"""Acceptance benchmark for the reservation service (`repro serve`).

Boots real server subprocesses and replays an SWF-derived trace over TCP
twice:

* **Run A (uninterrupted)** — one server, the full trace, shadow-ledger
  validated end to end.
* **Run B (kill/restart)** — replay the first half, force a snapshot,
  ``SIGKILL`` the server mid-run, restart it from the snapshot, replay
  the second half with the first half's shadow ledger preloaded.

Every replay must finish with zero shadow-ledger violations and both
checksums must agree — the virtual clock plus persisted slot-tree
tie-break uids make a restarted server bit-identical to one that never
died.  Results land in ``BENCH_service.json`` at the repository root.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_service.py             # full: 10k requests
    PYTHONPATH=src python benchmarks/bench_service.py --jobs 2000 # CI smoke scale

A plain script like ``bench_hotpath.py``: the JSON artifact is the
product, and the subprocess orchestration does not fit pytest-benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
try:
    import repro  # noqa: F401
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(_REPO_ROOT / "src"))
    import repro  # noqa: F401

_ENV = dict(
    os.environ,
    PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=10_000, help="requests to replay")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--servers", type=int, default=128, help="system size N")
    parser.add_argument("--tau", type=float, default=900.0)
    parser.add_argument("--q-slots", type=int, default=96)
    parser.add_argument("--window", type=int, default=64, help="loadgen in-flight window")
    parser.add_argument(
        "--out",
        default=str(_REPO_ROOT / "BENCH_service.json"),
        help="result JSON path (default: BENCH_service.json at the repo root)",
    )
    return parser


def start_server(
    args: argparse.Namespace, snapshot: str | None
) -> tuple[subprocess.Popen, int]:
    """Launch ``repro serve`` and parse its ephemeral port off stdout."""
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--servers", str(args.servers),
        "--tau", str(args.tau),
        "--q-slots", str(args.q_slots),
    ]
    if snapshot:
        cmd += ["--snapshot-path", snapshot]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=_ENV, text=True
    )
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        raise RuntimeError(f"server failed to boot: {line!r}")
    port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
    return proc, port


def loadgen(args: argparse.Namespace, port: int, out: Path, **extra: object) -> dict:
    """Run ``repro loadgen`` against ``port`` and return its report."""
    cmd = [
        sys.executable, "-m", "repro.cli", "loadgen",
        "--port", str(port),
        "--swf", extra.pop("swf"),
        "--seed", str(args.seed),
        "--window", str(args.window),
        "--out", str(out),
    ]
    for flag, value in extra.items():
        if value is True:
            cmd.append(f"--{flag.replace('_', '-')}")
        elif value is not None:
            cmd += [f"--{flag.replace('_', '-')}", str(value)]
    completed = subprocess.run(cmd, env=_ENV, capture_output=True, text=True)
    if completed.returncode not in (0, 1):  # 1 = ledger violations, reported below
        raise RuntimeError(
            f"loadgen failed rc={completed.returncode}:\n{completed.stderr}"
        )
    if not out.exists():
        # rc 1 is also Python's uncaught-exception code: a loadgen that
        # died before writing its report is a crash, not a ledger verdict
        raise RuntimeError(
            f"loadgen wrote no report (rc={completed.returncode}):\n{completed.stderr}"
        )
    return json.loads(out.read_text())


def rpc(port: int, message: dict) -> dict:
    """One blocking NDJSON request/response (used to force a snapshot)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall((json.dumps(message) + "\n").encode())
        chunks = b""
        while not chunks.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks += chunk
    return json.loads(chunks)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="bench_service_"))
    trace = work / "trace.swf"

    generate = subprocess.run(
        [sys.executable, "-m", "repro.cli", "generate",
         "--jobs", str(args.jobs), "--seed", str(args.seed), "--out", str(trace)],
        env=_ENV, capture_output=True, text=True,
    )
    if generate.returncode != 0:
        raise RuntimeError(f"trace generation failed:\n{generate.stderr}")

    # ---- run A: uninterrupted ----------------------------------------
    server_a, port_a = start_server(args, snapshot=None)
    t0 = time.perf_counter()
    report_a = loadgen(args, port_a, work / "run_a.json", swf=str(trace), shutdown=True)
    wall_a = time.perf_counter() - t0
    server_a.wait(timeout=30)

    # ---- run B: kill -9 mid-replay, restart from snapshot ------------
    snapshot = str(work / "state.snap")
    half = args.jobs // 2
    server_b, port_b = start_server(args, snapshot=snapshot)
    t0 = time.perf_counter()
    report_b1 = loadgen(
        args, port_b, work / "run_b1.json",
        swf=str(trace), limit=half, ledger_out=str(work / "ledger.json"),
    )
    forced = rpc(port_b, {"op": "snapshot"})
    assert forced.get("ok"), f"snapshot op failed: {forced}"
    server_b.send_signal(signal.SIGKILL)  # no drain, no goodbye
    server_b.wait(timeout=30)

    server_b2, port_b2 = start_server(args, snapshot=snapshot)
    report_b2 = loadgen(
        args, port_b2, work / "run_b2.json",
        swf=str(trace), offset=half, ledger_in=str(work / "ledger.json"),
        shutdown=True,
    )
    wall_b = time.perf_counter() - t0
    server_b2.wait(timeout=30)

    # ---- verdict ------------------------------------------------------
    checksum_a = report_a["accepted_checksum"]
    checksum_b = report_b2["accepted_checksum"]
    violations = (
        report_a["violations_total"]
        + report_b1["violations_total"]
        + report_b2["violations_total"]
    )
    identical = checksum_a == checksum_b
    server_agrees = (
        report_a["server_status"]["accepted_checksum"] == checksum_a
        and report_b2["server_status"]["accepted_checksum"] == checksum_b
    )
    passed = identical and server_agrees and violations == 0

    result = {
        "benchmark": "service",
        "requests": args.jobs,
        "servers": args.servers,
        "tau": args.tau,
        "q_slots": args.q_slots,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "passed": passed,
        "violations_total": violations,
        "checksum_identical_after_kill_restart": identical,
        "server_client_checksums_agree": server_agrees,
        "uninterrupted": {
            "wall_s": round(wall_a, 3),
            "throughput_rps": report_a["throughput_rps"],
            "accepted": report_a["accepted"],
            "rejected": report_a["rejected"],
            "latency_ms": report_a["latency_ms"],
            "accepted_checksum": checksum_a,
        },
        "kill_restart": {
            "wall_s": round(wall_b, 3),
            "killed_after": half,
            "resumed_with_ledger_entries": report_b2["config"]["preloaded_ledger_entries"],
            "accepted": report_b1["accepted"] + report_b2["accepted"],
            "resent": report_b1["resent"] + report_b2["resent"],
            "accepted_checksum": checksum_b,
        },
    }
    out = Path(args.out)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    print(
        f"bench_service: {args.jobs} requests over TCP — "
        f"A {report_a['throughput_rps']} req/s, "
        f"checksums A={checksum_a} B={checksum_b}, "
        f"{violations} violation(s) -> {'PASS' if passed else 'FAIL'} ({out})"
    )
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
