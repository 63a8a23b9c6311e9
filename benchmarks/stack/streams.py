"""Seeded request streams for the four stack workloads.

Every stream is a list of wire messages (the dicts ``repro serve`` reads
off its socket), fully determined by ``(workload, seed, part)``: the same
seed gives byte-identical streams, and a longer stream extends a shorter
one.  A seed's parts are independent streams of the same mix, one per
repeat of an end-to-end run.
Arrivals are Poisson in *virtual* time and sized against the system like
:func:`repro.workloads.stress.stress_workload` — the server's clock only
moves from the ``qr`` a request carries, so replay speed never changes a
verdict.

The system under test is fixed for all workloads: N=128 servers, τ=900 s,
Q=96 slots (a one-day horizon), Δt=τ, R_max=Q/2.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator

N_SERVERS = 128
TAU = 900.0
Q_SLOTS = 96
HORIZON = TAU * Q_SLOTS

#: in-flight requests of the pipelined closed-loop phase
WINDOW = 32

#: a cancel names one of this many most recent lead-time reserves
CANCEL_POOL = 200


@dataclass(frozen=True)
class Workload:
    """One traffic mix, its transport, and how many requests fill a second.

    The ``*_per_s`` counts size a phase: a phase of ``s`` seconds sends
    ``s × count`` requests, so every run of one commit does the same work
    and a faster commit finishes it sooner.  They are the rates this
    repository's seed commit sustains on the 2-core reference box;
    ``paced_rps`` is the constant open-loop rate (≈30 % of ``closed_per_s``).
    """

    name: str
    why: str
    transport: str  # "tcp" (NDJSON to repro serve) or "http" (via repro gateway)
    sizes: tuple[int, ...]
    size_weights: tuple[int, ...]
    load: float  # offered reserve area ÷ capacity
    durations: tuple[tuple[float, float, float], ...]  # (share, lo τ, hi τ)
    lead_share: float  # reserves submitted ahead of their start time
    probe_share: float = 0.0
    cancel_share: float = 0.0
    solo_per_s: int = 0
    closed_per_s: int = 0
    paced_rps: int = 0
    traced_per_s: int = 0


_STRESS_DURATIONS = ((0.7, 1.0, 8.0), (0.3, 8.0, 96.0))

_MIXED = dict(
    sizes=(1, 2, 4),
    size_weights=(50, 30, 20),
    load=0.3,
    durations=_STRESS_DURATIONS,
    lead_share=0.5,
    probe_share=0.3,
    cancel_share=0.2,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="contended-tcp",
            why="overload: each reserve retries ~30 times, so the Δt loop and "
            "Phase 1/2 search dominate; the only place retry-loop work shows",
            transport="tcp",
            sizes=(1, 2, 4, 8),
            size_weights=(40, 30, 20, 10),
            load=1.3,
            durations=_STRESS_DURATIONS,
            lead_share=0.2,
            solo_per_s=2500,
            closed_per_s=3200,
            paced_rps=950,
            traced_per_s=3500,
        ),
        Workload(
            name="wide-tcp",
            why="32-64 servers for 4-64 slots per reserve: allocate/apply_batch "
            "is nearly all the time; retry-loop and wire work must show no change",
            transport="tcp",
            sizes=(32, 48, 64),
            size_weights=(1, 1, 1),
            load=0.5,
            durations=((1.0, 4.0, 64.0),),
            lead_share=0.0,
            solo_per_s=700,
            closed_per_s=770,
            paced_rps=230,
            traced_per_s=700,
        ),
        Workload(
            name="mixed-tcp",
            why="cheap kernel ops (narrow reserves, probes, cancels): over half "
            "the latency is codec, admission, decision log and socket work",
            transport="tcp",
            solo_per_s=5800,
            closed_per_s=8200,
            paced_rps=2450,
            traced_per_s=11000,
            **_MIXED,
        ),
        Workload(
            name="mixed-http",
            why="the mixed-tcp stream through repro gateway: same kernel and "
            "service cost, so the difference is the gateway's HTTP layer",
            transport="http",
            solo_per_s=2700,
            closed_per_s=2750,
            paced_rps=825,
            traced_per_s=6500,
            **_MIXED,
        ),
    )
}


def _messages(w: Workload, seed: int, part: int) -> Iterator[dict[str, Any]]:
    # one rng per workload *mix*: mixed-tcp and mixed-http replay the same stream
    rng = random.Random(f"{w.sizes}/{w.load}/{w.probe_share}/{seed}/{part}")
    mean_nr = sum(s * k for s, k in zip(w.sizes, w.size_weights)) / sum(w.size_weights)
    mean_lr = sum(share * (lo + hi) / 2 for share, lo, hi in w.durations) * TAU
    interarrival = mean_lr * mean_nr / (w.load * N_SERVERS)
    duration_shares = [share for share, _, _ in w.durations]
    grain = TAU / 3.0
    t = 0.0
    index = 0
    lead_rids: deque[int] = deque(maxlen=CANCEL_POOL)
    while True:
        u = rng.random()
        if u < w.cancel_share and lead_rids:
            yield {"op": "cancel", "rid": rng.choice(lead_rids)}
        elif u < w.cancel_share + w.probe_share:
            ta = t + rng.uniform(0.0, HORIZON / 2)
            yield {
                "op": "probe",
                "ta": round(ta, 3),
                "tb": round(ta + rng.uniform(TAU, 8 * TAU), 3),
            }
        else:
            t += rng.expovariate(1.0 / interarrival)
            _, lo, hi = rng.choices(w.durations, duration_shares)[0]
            lr = max(grain, round(rng.uniform(lo * TAU, hi * TAU) / grain) * grain)
            lead = 0.0
            if rng.random() < w.lead_share:
                lead = rng.uniform(2 * TAU, HORIZON / 2)
                lead_rids.append(index)
            qr = round(t, 3)
            yield {
                "op": "reserve",
                "rid": index,  # request id = stream index
                "qr": qr,
                "sr": round(qr + lead, 3),
                "lr": lr,
                "nr": rng.choices(w.sizes, w.size_weights)[0],
            }
        index += 1


def build_stream(w: Workload, seed: int, count: int, part: int = 0) -> list[dict[str, Any]]:
    """The first ``count`` messages of part ``part`` of workload ``w`` under ``seed``."""
    source = _messages(w, seed, part)
    return [next(source) for _ in range(count)]
