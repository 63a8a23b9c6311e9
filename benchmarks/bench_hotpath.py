"""Trace-replay benchmark of the online-scheduler hot path.

Replays a synthetic heavy-traffic workload (see
:mod:`repro.workloads.stress`) through :class:`OnlineScheduler`, timing
every admission decision, and writes machine-readable results to
``BENCH_hotpath.json`` at the repository root.  The JSON carries
requests/sec, p50/p99 per-request latency, the workload parameters, the
machine it ran on (``env``), and an ``outcome_checksum`` over every job's
schedule — equal checksums
across code revisions prove a speedup changed *nothing* but speed.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full: 100k requests, N=512
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick    # CI smoke: 2k requests, N=128
    PYTHONPATH=src python benchmarks/bench_hotpath.py --profile  # + cProfile attribution

Unlike the pytest-benchmark suites next to it, this is a plain script —
the replay is far too heavy for repeat rounds, and the JSON artifact (not
a pytest report) is the product.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
try:
    import repro  # noqa: F401
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.schedulers.online import OnlineScheduler
from repro.sim.replay import ReplayResult, replay
from repro.workloads.stress import stress_workload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=100_000)
    parser.add_argument("--servers", type=int, default=512)
    parser.add_argument("--rho", type=float, default=0.3, help="advance-reservation fraction")
    parser.add_argument("--load", type=float, default=0.9, help="offered load vs capacity")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tau", type=float, default=900.0)
    parser.add_argument("--q-slots", type=int, default=288)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke scale: 2000 requests on 128 servers (explicit flags still win)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="replay the workload N times and report the median throughput "
        "(single runs on a shared host swing ±10-15%%; medians are what "
        "regression hunts should compare)",
    )
    parser.add_argument(
        "--out",
        default=str(_REPO_ROOT / "BENCH_hotpath.json"),
        help="result JSON path (default: BENCH_hotpath.json at the repo root)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="also run the replay under cProfile and print the hot functions",
    )
    return parser


def run(args: argparse.Namespace) -> dict:
    from repro.core.slot_tree import backend_info

    n_requests = args.requests
    n_servers = args.servers
    if args.quick:
        if n_requests == 100_000:
            n_requests = 2_000
        if n_servers == 512:
            n_servers = 128

    requests = stress_workload(
        n_requests=n_requests,
        n_servers=n_servers,
        rho=args.rho,
        seed=args.seed,
        tau=args.tau,
        load=args.load,
    )
    repeat = max(1, args.repeat)
    results: list[ReplayResult] = []
    for _ in range(repeat):
        scheduler = OnlineScheduler(n_servers=n_servers, tau=args.tau, q_slots=args.q_slots)
        results.append(replay(scheduler, requests))
    checksums = {r.outcome_checksum for r in results}
    if len(checksums) != 1:
        raise AssertionError(f"non-deterministic replay: {sorted(checksums)}")
    # the median run is the record: per-run throughput on a shared host
    # swings far more than any code change under test
    by_throughput = sorted(results, key=lambda r: r.requests_per_sec)
    result = by_throughput[len(results) // 2]

    backend = backend_info()["backend"]
    record = {
        "benchmark": "hotpath-replay",
        "quick": bool(args.quick),
        "backend": backend,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "kernel_backend": backend,
        },
        "n_servers": n_servers,
        "requests": n_requests,
        "rho": args.rho,
        "load": args.load,
        "tau": args.tau,
        "q_slots": args.q_slots,
        "seed": args.seed,
        "repeats": repeat,
        "elapsed_sec": round(result.elapsed_sec, 4),
        "requests_per_sec": round(result.requests_per_sec, 1),
        "requests_per_sec_all": [round(r.requests_per_sec, 1) for r in results],
        "p50_latency_us": round(result.latency_percentile(50.0), 2),
        "p99_latency_us": round(result.latency_percentile(99.0), 2),
        "accepted": result.accepted,
        "acceptance_rate": round(result.acceptance_rate, 4),
        "mean_attempts": round(result.mean_attempts, 3),
        "outcome_checksum": result.outcome_checksum,
    }
    return record


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    record = run(args)
    out = Path(args.out)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {out}")

    if args.profile:
        from repro.schedulers.profile import profile_call

        requests = stress_workload(
            n_requests=record["requests"],
            n_servers=record["n_servers"],
            rho=args.rho,
            seed=args.seed,
            tau=args.tau,
            load=args.load,
        )
        scheduler = OnlineScheduler(
            n_servers=record["n_servers"], tau=args.tau, q_slots=args.q_slots
        )
        report = profile_call(replay, scheduler, requests, record_latencies=False)
        print(report.stats_text(sort="cumulative", limit=25))
    return 0


if __name__ == "__main__":
    sys.exit(main())
