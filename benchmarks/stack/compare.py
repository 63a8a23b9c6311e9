"""Compare two result sets: ``python3 benchmarks/stack/compare.py A.json B.json``.

``A`` is the parent, ``B`` the change; both are files ``run.py`` wrote
without ``--workload``.  One row per workload × end-to-end metric: both
medians, every repeat, the change as a share of the parent's median, the
metric's bound from ``BENCHMARK.json``, and a verdict:

``ok``          not worse than the parent by more than the bound;
``regressed``   worse by more than the bound;
``unresolved``  a side's repeats spread wider than the bound and the two
                sides' repeats overlap, so the medians decide nothing —
                unless every repeat of ``B`` reads better than every one
                of ``A``, which is ``ok``.

``failed_share`` has bound 0: any rise is a regression.  Exits 1 when a
row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def verdict(a: list[float], b: list[float], higher_is_better: bool, bound: float) -> str:
    if higher_is_better:  # flip so that larger always reads worse
        a, b = [-x for x in a], [-x for x in b]
    base = abs(statistics.median(a))
    worse_by = (statistics.median(b) - statistics.median(a)) / base
    if max(b) < min(a):
        return "ok"
    spread = max(max(a) - min(a), max(b) - min(b)) / base
    if spread > bound and min(b) <= max(a):
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in argv)
    regressed = False
    print(f"{'workload':14} {'metric':21} {'A median':>10} {'B median':>10} {'delta':>8} {'bound':>6}  verdict  repeats A | B")
    for name, a in parent["workloads"].items():
        b = change["workloads"][name]
        for metric in SPEC["end_to_end"]:
            key = metric["name"]
            runs_a, runs_b = a["repeats"][key], b["repeats"][key]
            median_a, median_b = a["median"][key], b["median"][key]
            outcome = verdict(runs_a, runs_b, metric["better"] == "higher", metric["bound"])
            regressed |= outcome == "regressed"
            print(
                f"{name:14} {key:21} {median_a:10.4g} {median_b:10.4g} "
                f"{(median_b - median_a) / median_a:+8.1%} {metric['bound']:6.0%}  {outcome:10} "
                f"{' '.join(f'{x:.4g}' for x in runs_a)} | {' '.join(f'{x:.4g}' for x in runs_b)}"
            )
        outcome = "regressed" if b["failed_share"] > a["failed_share"] else "ok"
        regressed |= outcome == "regressed"
        print(
            f"{name:14} {'failed_share':21} {a['failed_share']:10.4g} {b['failed_share']:10.4g} "
            f"{'':8} {0:6.0%}  {outcome:10} {a['failed']}/{a['attempted']} | {b['failed']}/{b['attempted']}"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
