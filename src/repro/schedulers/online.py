"""Simulator adapter for the paper's online co-allocation algorithm.

Unlike the batch baselines, the online scheduler decides a job's fate the
moment it arrives: the co-allocator either commits ``n_r`` concrete
servers at some start time (``s_r + kΔt``, ``k < R_max``) or rejects the
request outright.  Nothing happens at job completion — the future is
already encoded in the availability calendar — so the adapter's work is
advancing the calendar clock and translating allocations into job
outcomes.

Per-job operation counts (Figure 7(b)) are captured by differencing the
shared :class:`~repro.core.opcount.OpCounter` around each scheduling call.
"""

from __future__ import annotations

from ..core.calendar import AvailabilityCalendar
from ..core.coalloc import OnlineCoAllocator
from ..core.opcount import OpCounter
from ..sim.engine import Engine
from .base import Job, JobState, SchedulerBase

__all__ = ["OnlineScheduler"]


class OnlineScheduler(SchedulerBase):
    """The paper's algorithm behind the common scheduler interface.

    Parameters
    ----------
    n_servers:
        System size ``N``.
    tau:
        Slot length ``τ``; the paper uses the minimum temporal request
        size (15 minutes in the evaluation).
    q_slots:
        Horizon ``H = Q·τ``.
    delta_t:
        Retry increment ``Δt`` (default: ``τ``).
    r_max:
        Maximum scheduling attempts (default ``Q // 2``, the paper's
        setting).
    reclaim_early:
        When True and a request carries an ``actual_lr`` below its
        estimate, the surplus ``[start + actual, start + estimate)`` is
        released back to the calendar at the job's (actual) completion —
        the natural extension of the paper's model to inaccurate user
        estimates.  Off by default (the paper reserves full estimates).
    """

    name = "online"

    def __init__(
        self,
        n_servers: int,
        tau: float,
        q_slots: int,
        delta_t: float | None = None,
        r_max: int | None = None,
        reclaim_early: bool = False,
    ) -> None:
        super().__init__(n_servers)
        self.reclaim_early = reclaim_early
        self.counter = OpCounter()
        self.tau = float(tau)
        self.q_slots = q_slots
        self.delta_t = float(delta_t) if delta_t is not None else float(tau)
        self.r_max = r_max if r_max is not None else max(1, q_slots // 2)
        self.calendar: AvailabilityCalendar | None = None
        self.allocator: OnlineCoAllocator | None = None
        self._busy_area = 0.0

    def bind(self, engine: "Engine") -> None:
        super().bind(engine)
        self.calendar = AvailabilityCalendar(
            n_servers=self.n_servers,
            tau=self.tau,
            q_slots=self.q_slots,
            start_time=engine.now,
            counter=self.counter,
        )
        self.allocator = OnlineCoAllocator(
            calendar=self.calendar,
            delta_t=self.delta_t,
            r_max=self.r_max,
            counter=self.counter,
        )

    def submit(self, job: Job) -> None:
        assert self.calendar is not None and self.allocator is not None
        if job.request.nr > self.n_servers:
            job.state = JobState.REJECTED
            return
        self.calendar.advance(self.now)
        before = self.counter.total()
        outcome = self.allocator.schedule_detailed(job.request)
        job.ops = self.counter.total() - before
        allocation = outcome.allocation
        if allocation is None:
            job.state = JobState.REJECTED
            # actual attempts made: a deadline/horizon early exit stops
            # the retry loop before R_max
            job.attempts = outcome.attempts
            return
        job.state = JobState.DONE  # outcome fully determined at admission
        job.start_time = allocation.start
        job.estimated_end = allocation.end
        job.end_time = allocation.start + job.request.runtime
        job.attempts = allocation.attempts
        job.servers = allocation.servers
        if self.reclaim_early and job.end_time < allocation.end:
            assert self.engine is not None
            self.engine.at(job.end_time, lambda: self._reclaim(job, allocation))
            self._busy_area += (job.end_time - allocation.start) * allocation.nr
        else:
            self._busy_area += (allocation.end - allocation.start) * allocation.nr

    def _reclaim(self, job: Job, allocation) -> None:
        """Release the unused tail of an over-estimated reservation."""
        assert self.calendar is not None
        self.calendar.advance(self.now)
        for server in allocation.servers:
            self.calendar.release(server, job.end_time, allocation.end)

    def utilization(self, now: float, since: float = 0.0) -> float:
        span = now - since
        if span <= 0:
            return 0.0
        return self._busy_area / (span * self.n_servers)
