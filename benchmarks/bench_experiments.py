"""Sequential vs parallel vs warm-cache benchmark of the experiment suite.

Enumerates the distinct simulations the paper's tables and figures need
(deduplicated by content address), then times three passes:

1. **sequential cold** — every run computed in-process, one after the
   other (the pre-store behaviour);
2. **parallel cold** — the same runs fanned out over ``--workers``
   processes into a disk-backed store;
3. **warm** — a fresh process-equivalent pass against the populated
   disk cache (every run a cache hit).

Per-run record checksums are compared across the three passes — the
speedup is only valid if the results are bit-identical — and everything
is written to ``BENCH_experiments.json`` at the repository root.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_experiments.py             # default scale, 4 workers
    PYTHONPATH=src python benchmarks/bench_experiments.py --quick     # CI smoke: tiny scale, 2 workers

Like ``bench_hotpath.py`` this is a plain script, not a pytest-benchmark
suite: the runs are far too heavy for repeat rounds and the JSON
artifact is the product.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
try:
    import repro  # noqa: F401
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.parallel import ARTIFACTS, enumerate_runs, warm_store
from repro.experiments.store import ResultStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=("smoke", "default", "full"), default="default"
    )
    parser.add_argument("--jobs", type=int, default=None, help="override the scale's n_jobs")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--artifacts",
        nargs="*",
        default=list(ARTIFACTS),
        choices=list(ARTIFACTS),
        help="artifacts whose runs to benchmark (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 300-job runs, 2 workers (explicit flags still win)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="reuse this store for the parallel/warm passes "
        "(default: a throwaway temp dir)",
    )
    parser.add_argument(
        "--out",
        default=str(_REPO_ROOT / "BENCH_experiments.json"),
        help="result JSON path (default: BENCH_experiments.json at the repo root)",
    )
    return parser


def run(args: argparse.Namespace) -> dict:
    config: ExperimentConfig = SCALES[args.scale]
    workers = args.workers
    if args.quick:
        if args.jobs is None and args.scale == "default":
            config = ExperimentConfig(n_jobs=300)
        if workers == 4:
            workers = 2
    if args.jobs is not None:
        config = ExperimentConfig(n_jobs=args.jobs)

    specs = enumerate_runs(args.artifacts, config)
    say = lambda line: print(line, file=sys.stderr)  # noqa: E731

    say(f"== sequential cold pass: {len(specs)} distinct runs ==")
    # memory-only: the baseline must not read a previously-populated disk cache
    sequential = warm_store(specs, workers=1, store=ResultStore(), progress=say)

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = args.cache_dir or tmp
        say(f"== parallel cold pass: {workers} workers, cache {cache_dir} ==")
        parallel = warm_store(
            specs, workers=workers, store=ResultStore(cache_dir), progress=say
        )
        say("== warm pass: fresh store over the populated cache ==")
        warm = warm_store(
            specs, workers=workers, store=ResultStore(cache_dir), progress=say
        )

    checksums_identical = (
        sequential.checksums == parallel.checksums == warm.checksums
        and len(sequential.checksums) == len(specs)
    )
    speedup = sequential.elapsed_sec / parallel.elapsed_sec if parallel.elapsed_sec else 0.0
    warm_speedup = parallel.elapsed_sec / warm.elapsed_sec if warm.elapsed_sec else 0.0

    record = {
        "benchmark": "experiments-parallel-store",
        "quick": bool(args.quick),
        "artifacts": list(args.artifacts),
        "n_jobs": config.n_jobs,
        "distinct_runs": len(specs),
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "sequential_sec": round(sequential.elapsed_sec, 3),
        "parallel_sec": round(parallel.elapsed_sec, 3),
        "warm_sec": round(warm.elapsed_sec, 3),
        "parallel_speedup": round(speedup, 2),
        "warm_speedup_vs_parallel_cold": round(warm_speedup, 1),
        "checksums_identical": checksums_identical,
        "failed_runs": len(sequential.failures) + len(parallel.failures) + len(warm.failures),
        "checksums": sequential.checksums,
    }
    return record


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    record = run(args)
    out = Path(args.out)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "checksums"}, indent=2))
    print(f"\nwrote {out}")
    return 0 if record["checksums_identical"] and not record["failed_runs"] else 1


if __name__ == "__main__":
    sys.exit(main())
