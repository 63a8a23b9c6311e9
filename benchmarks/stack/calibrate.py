"""How fast is this CPU right now?  A fixed piece of Python work says.

The reference box is a shared 2-vCPU VM whose CPUs switch, each on its own
and every few seconds, between full speed and about two thirds of it (a
neighbour on the same core; the guest sees no steal time): one stream
replayed every few seconds read 1.8k-3.2k rps.  No statistic within a run
removes that, and it is larger than any bound a regression gate could use.
So a wire phase runs in ten chunks with this calibration between them —
18 ms of work that touches dicts, lists, floats, ``bisect`` and ``json``
the way the system does, and that no change to the system can alter — and
the end-to-end timing metrics are reported *at reference speed*: each
chunk's wall time, CPU time and latencies are divided by how much slower
than :data:`REFERENCE_S` the calibration ran just before and after it.
Over twelve single ``closed32`` phases in a noisy spell the quartile spread
of throughput fell from 37 % raw to 9 % (``contended-tcp``) and from 20 %
to 4 % (``mixed-tcp``); one calibration before and one after the whole
phase only reached 11-15 %, because the slow spells are shorter than a
phase.  The README has the full table.
"""

from __future__ import annotations

import json
import statistics
from bisect import insort
from time import perf_counter

#: Median seconds per round on the quiet reference box (CPython 3.11).  It only
#: fixes the unit, so that a quiet reference box reads plain milliseconds: the
#: ratio of two runs does not depend on it.  It must be one constant for all
#: runs — measured per run it could not take out run-to-run drift, which is
#: what a gate compares.
REFERENCE_S = 1.18e-3

#: rounds per calibration, ≈18 ms
ROUNDS = 15


def _round() -> int:
    table: dict[int, float] = {}
    ordered: list[tuple[int, int]] = []
    for i in range(2000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0.0) + i * 0.5
        insort(ordered, (key, i))
        if len(ordered) > 256:
            del ordered[:128]
    rows = [[k, v] for k, v in list(table.items())[:200]]
    back = json.loads(json.dumps({"ok": True, "rows": rows}, sort_keys=True))
    return sum(len(str(row)) for row in back["rows"][:50])


def slowdown() -> float:
    """This CPU's time per round ÷ the reference box's: 1.0 is as fast, 1.3 is 30 % slower."""
    times = []
    for _ in range(ROUNDS):
        started = perf_counter()
        _round()
        times.append(perf_counter() - started)
    return statistics.median(times) / REFERENCE_S
