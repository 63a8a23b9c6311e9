"""Instrumented trace replay for benchmarking the admission hot path.

:func:`replay` pushes a request stream through a scheduler exactly as
:func:`repro.sim.driver.run_simulation` would — submissions in ``q_r``
order, the clock advanced to each arrival — but times every ``submit``
call individually, which the event-heap driver cannot do without
polluting the measurement with heap bookkeeping.  It exists for the
benchmark harness (``benchmarks/bench_hotpath.py``, whose ``--profile``
runs it under cProfile); experiments keep using ``run_simulation``.

Only schedulers that decide at submission time and schedule no internal
events can be replayed this way (the online co-allocator with reclamation
off).  Batch baselines need the event heap and are rejected.

The :class:`ReplayResult` carries an ``outcome_checksum`` — a digest over
every job's ``(rid, start, servers)`` outcome — so performance work on
the calendar can assert that replays stay bit-identical across changes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

from ..core.types import Request
from ..sim.engine import Engine
from ..sim.job import Job, JobState

__all__ = ["ReplayResult", "replay"]

@dataclass(slots=True)
class ReplayResult:
    """Outcome and timing of one instrumented replay."""

    n_requests: int
    accepted: int
    elapsed_sec: float
    #: per-submit wall-clock latencies, microseconds, submission order
    latencies_us: list[float]
    #: digest over every job outcome; equal digests == identical schedules
    outcome_checksum: str
    mean_attempts: float
    jobs: list[Job]

    @property
    def requests_per_sec(self) -> float:
        if self.elapsed_sec <= 0.0:
            return 0.0
        return self.n_requests / self.elapsed_sec

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.n_requests if self.n_requests else 1.0

    def latency_percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) of per-request latency, in µs."""
        if not self.latencies_us:
            return 0.0
        ordered = sorted(self.latencies_us)
        idx = min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[idx]


def _checksum(jobs: list[Job]) -> str:
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(
            f"{job.rid}:{job.state}:{job.start_time}:{job.servers}\n".encode()
        )
    return digest.hexdigest()[:16]


def replay(
    scheduler,
    requests: list[Request],
    record_latencies: bool = True,
) -> ReplayResult:
    """Replay ``requests`` through ``scheduler``, timing each submission.

    The scheduler must resolve every job inside ``submit`` (no pending
    internal events afterwards); the online scheduler satisfies this with
    ``reclaim_early`` off.
    """
    if getattr(scheduler, "reclaim_early", False):
        raise ValueError("replay() cannot honour reclamation events; use run_simulation")
    ordered = sorted(requests, key=lambda r: (r.qr, r.rid))
    if not ordered:
        return ReplayResult(0, 0, 0.0, [], _checksum([]), 0.0, [])
    engine = Engine(start_time=ordered[0].qr)
    scheduler.bind(engine)
    jobs = [Job(req) for req in ordered]
    latencies: list[float] = []
    submit = scheduler.submit
    t_begin = perf_counter()
    if record_latencies:
        for job in jobs:
            engine.now = job.request.qr
            t0 = perf_counter_ns()
            submit(job)
            latencies.append((perf_counter_ns() - t0) / 1e3)
    else:
        for job in jobs:
            engine.now = job.request.qr
            submit(job)
    elapsed = perf_counter() - t_begin
    assert engine.pending() == 0, "replayed scheduler left internal events pending"

    done = [job for job in jobs if job.state == JobState.DONE]
    attempts = [job.attempts for job in done]
    return ReplayResult(
        n_requests=len(jobs),
        accepted=len(done),
        elapsed_sec=elapsed,
        latencies_us=latencies,
        outcome_checksum=_checksum(jobs),
        mean_attempts=sum(attempts) / len(attempts) if attempts else 0.0,
        jobs=jobs,
    )
