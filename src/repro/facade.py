"""One-stop public facade over the co-allocation machinery.

:class:`CoAllocationScheduler` bundles an
:class:`~repro.core.calendar.AvailabilityCalendar` and an
:class:`~repro.core.coalloc.OnlineCoAllocator` behind the interface a
resource manager (the VCL front-end of Section 3.1, a PCE of Section 3.2,
or a MapReduce master) would use:

* :meth:`schedule` — submit a request, get an allocation or ``None``;
* :meth:`range_search` / :meth:`commit` — inspect then commit;
* :meth:`suggest_alternatives` — "otherwise, it suggests alternative times
  at which the resources are available" (Section 3.1);
* :meth:`cancel` / :meth:`release_early` — give resources back;
* :meth:`advance` — move the clock (rolls the slot-tree horizon).
"""

from __future__ import annotations

from .core.calendar import AvailabilityCalendar
from .core.coalloc import OnlineCoAllocator, ScheduleOutcome
from .core.opcount import OpCounter
from .core.types import Allocation, IdlePeriod, RangeQuery, Request
from .errors import ConflictError, MalformedRequestError, NotFoundError, RejectedError

__all__ = ["CoAllocationScheduler", "allocation_to_dict", "allocation_from_dict"]

#: facade/scheduler state-dict schema version (see :meth:`export_state`)
STATE_VERSION = 1


def allocation_to_dict(allocation: Allocation) -> dict:
    """JSON-serializable form of an :class:`Allocation` (snapshot support).

    Each server is written as ``[server, start, end]`` under
    ``"reservations"``, one entry per server, as snapshots have always
    held them.
    """
    start, end = allocation.start, allocation.end
    return {
        "rid": allocation.rid,
        "start": allocation.start,
        "end": allocation.end,
        "attempts": allocation.attempts,
        "delay": allocation.delay,
        "reservations": [[server, start, end] for server in allocation.servers],
    }


def allocation_from_dict(data: dict) -> Allocation:
    """Inverse of :func:`allocation_to_dict`.

    Raises ``ValueError`` unless the window is non-empty and every listed
    reservation books exactly it: an allocation stores one window for
    all its servers.
    """
    rid, start, end = int(data["rid"]), float(data["start"]), float(data["end"])
    windows = {(float(st), float(et)) for _s, st, et in data["reservations"]}
    if not start < end or windows - {(start, end)}:
        raise ValueError(
            f"allocation {rid}: reservations {sorted(windows)} do not all book "
            f"its window [{start}, {end})"
        )
    return Allocation(
        rid=rid,
        start=start,
        end=end,
        servers=tuple([int(s) for s, _st, _et in data["reservations"]]),
        attempts=int(data["attempts"]),
        delay=float(data["delay"]),
    )


class CoAllocationScheduler:
    """High-level scheduler for a system of ``n_servers``.

    Parameters
    ----------
    n_servers:
        Number of servers ``N``.
    tau:
        Slot length ``τ`` (time units; the simulator uses seconds).
    q_slots:
        Slots in the horizon; ``H = q_slots * tau``.
    delta_t:
        Retry increment ``Δt``; defaults to ``tau``, the paper's setting
        (15 minutes with τ = 15 min).
    r_max:
        Maximum scheduling attempts; defaults to ``Q // 2`` as in the
        paper's evaluation.
    start_time:
        Initial clock value.
    """

    def __init__(
        self,
        n_servers: int,
        tau: float,
        q_slots: int,
        delta_t: float | None = None,
        r_max: int | None = None,
        start_time: float = 0.0,
    ) -> None:
        self.counter = OpCounter()
        self.calendar = AvailabilityCalendar(
            n_servers=n_servers,
            tau=tau,
            q_slots=q_slots,
            start_time=start_time,
            counter=self.counter,
        )
        self.allocator = OnlineCoAllocator(
            calendar=self.calendar,
            delta_t=delta_t if delta_t is not None else tau,
            r_max=r_max if r_max is not None else max(1, q_slots // 2),
            counter=self.counter,
        )
        self._allocations: dict[int, Allocation] = {}

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.calendar.now

    def advance(self, to_time: float) -> None:
        """Advance the clock, rolling the availability horizon."""
        self.calendar.advance(to_time)

    # -- scheduling -----------------------------------------------------

    def schedule(self, request: Request) -> Allocation | None:
        """Schedule a request; remembers the allocation for later cancel."""
        return self.schedule_detailed(request).allocation

    def schedule_detailed(self, request: Request) -> ScheduleOutcome:
        """Schedule a request, always reporting attempts and failure reason."""
        outcome = self.allocator.schedule_detailed(request)
        if outcome.allocation is not None:
            self._allocations[outcome.allocation.rid] = outcome.allocation
        return outcome

    def schedule_or_raise(self, request: Request) -> Allocation:
        """Schedule a request; raise a typed error instead of returning ``None``.

        Raises :class:`~repro.errors.RejectedError` carrying the retry
        policy's verdict (``reason``/``attempts``), so callers — the CLI
        and the service — can distinguish "rejected after ``R_max``
        retries" from a malformed request (which raises
        :class:`~repro.errors.MalformedRequestError` at
        :class:`~repro.core.types.Request` construction time).
        """
        outcome = self.schedule_detailed(request)
        if outcome.allocation is None:
            raise RejectedError(
                f"request {request.rid} rejected after {outcome.attempts} attempt(s) "
                f"({outcome.reason})",
                reason=outcome.reason,
                attempts=outcome.attempts,
            )
        return outcome.allocation

    def range_search(self, ta: float, tb: float) -> list[IdlePeriod]:
        """All idle periods covering ``[ta, tb)``; commits nothing."""
        return self.allocator.range_search(RangeQuery(ta=ta, tb=tb))

    def commit(
        self, periods: list[IdlePeriod], start: float, end: float, rid: int = 0
    ) -> Allocation:
        """Commit periods previously returned by :meth:`range_search`.

        Raises :class:`~repro.errors.ConflictError` (a ``ValueError``)
        when a period can no longer host the window — someone else
        committed it between the range search and this commit — or when
        ``start`` lies beyond the schedulable horizon (the retry ladder
        never offers such a start; a caller's own may not use one).
        """
        try:
            allocation = self.allocator.commit(periods, start, end, rid=rid)
        except ValueError as exc:
            raise ConflictError(str(exc)) from exc
        self._allocations[rid] = allocation
        return allocation

    def suggest_alternatives(
        self, request: Request, max_suggestions: int = 3
    ) -> list[float]:
        """Start times at which the request *would* fit, without committing.

        Walks the scheduling loop's own ladder
        (:meth:`OnlineCoAllocator.next_start`: ``s_r, s_r + Δt, …`` up to
        ``R_max`` points, ending at the deadline or the horizon) but
        read-only, so every suggestion is a start :meth:`schedule` itself
        would grant; used by front-ends to answer "when could I get
        this?" after a refusal.
        """
        allocator = self.allocator
        suggestions: list[float] = []
        base = max(request.sr, self.calendar.now)
        k, reason = allocator.next_start(request, base, 0)
        while reason is None and len(suggestions) < max_suggestions:
            start = base + k * allocator.delta_t
            if self.calendar.find_feasible(start, start + request.lr, request.nr) is not None:
                suggestions.append(start)
            k, reason = allocator.next_start(request, base, k + 1)
        return suggestions

    # -- giving resources back -----------------------------------------

    def cancel(self, rid: int) -> None:
        """Cancel a previously granted allocation, freeing all its servers.

        Raises :class:`~repro.errors.NotFoundError` (a ``KeyError``) when
        no active allocation carries ``rid``.
        """
        allocation = self._allocations.pop(rid, None)
        if allocation is None:
            raise NotFoundError(f"no active allocation with rid={rid}")
        lo, end = max(allocation.start, self.calendar.now), allocation.end
        if lo < end:
            for server in allocation.servers:
                self.calendar.release(server, lo, end)

    def release_early(self, rid: int, at_time: float) -> None:
        """Reclaim the tail of a running allocation that finished early.

        Frees ``[at_time, end)`` on every server of the allocation — the
        early-completion reclamation extension (jobs usually run shorter
        than their estimate in real traces).
        """
        allocation = self._allocations.get(rid)
        if allocation is None:
            raise NotFoundError(f"no active allocation with rid={rid}")
        if not allocation.start <= at_time < allocation.end:
            # refused before the pop: the allocation stays cancellable
            raise ValueError(
                f"early release at {at_time} outside allocation window "
                f"[{allocation.start}, {allocation.end})"
            )
        del self._allocations[rid]
        for server in allocation.servers:
            self.calendar.release(server, at_time, allocation.end)

    # -- elastic pool ----------------------------------------------------

    def add_servers(self, count: int) -> list[int]:
        """Grow the pool by ``count`` servers; returns the new server ids.

        Raises :class:`~repro.errors.MalformedRequestError` for a
        non-positive count.
        """
        if count <= 0:
            raise MalformedRequestError(f"must add at least one server, got {count}")
        return self.calendar.add_servers(count)

    def drain(self, server: int) -> dict:
        """Stop ``server`` from admitting new reservations (idempotent).

        Existing reservations are honored until their end; the server can
        be :meth:`remove`\\ d once its last commitment has passed.  Raises
        :class:`~repro.errors.MalformedRequestError` for an unknown
        server and :class:`~repro.errors.ConflictError` for a removed
        one.
        """
        self._check_pool_server(server)
        try:
            changed = self.calendar.drain(server)
        except ValueError as exc:
            raise ConflictError(str(exc)) from exc
        return {
            "server": server,
            "status": "draining",
            "changed": changed,
            "drained": self.calendar.is_drained(server),
        }

    def remove(self, server: int) -> dict:
        """Retire a drained server (idempotent once removed).

        Raises :class:`~repro.errors.MalformedRequestError` for an
        unknown server and :class:`~repro.errors.ConflictError` when the
        server is still active or not yet drained.
        """
        self._check_pool_server(server)
        try:
            changed = self.calendar.remove(server)
        except ValueError as exc:
            raise ConflictError(str(exc)) from exc
        return {"server": server, "status": "removed", "changed": changed}

    def pool_status(self) -> dict:
        """Pool membership by state plus per-server drain progress."""
        return self.calendar.pool_status()

    def _check_pool_server(self, server: int) -> None:
        if not 0 <= server < self.calendar.n_servers:
            raise MalformedRequestError(
                f"server {server} out of range (pool has ever held "
                f"{self.calendar.n_servers} servers)"
            )

    # -- serializable state (snapshot/restore) ---------------------------

    def export_state(self) -> dict:
        """Full scheduler state as JSON-serializable data.

        Bundles the calendar's authoritative state (see
        :meth:`AvailabilityCalendar.export_state`) with the retry-policy
        parameters and the active allocations, so a restored scheduler
        can keep serving ``cancel``/``release_early`` for reservations
        granted before the snapshot.
        """
        return {
            "version": STATE_VERSION,
            "calendar": self.calendar.export_state(),
            "delta_t": self.allocator.delta_t,
            "r_max": self.allocator.r_max,
            "allocations": [
                allocation_to_dict(self._allocations[rid])
                for rid in sorted(self._allocations)
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> CoAllocationScheduler:
        """Rebuild a scheduler from :meth:`export_state` output."""
        version = state.get("version")
        if version != STATE_VERSION:
            raise ValueError(
                f"unsupported scheduler state version {version!r} "
                f"(this build reads version {STATE_VERSION})"
            )
        calendar_state = state["calendar"]
        scheduler = cls(
            n_servers=int(calendar_state["n_servers"]),
            tau=float(calendar_state["tau"]),
            q_slots=int(calendar_state["q_slots"]),
            delta_t=float(state["delta_t"]),
            r_max=int(state["r_max"]),
            start_time=float(calendar_state["now"]),
        )
        scheduler.calendar = AvailabilityCalendar.from_state(
            calendar_state, counter=scheduler.counter
        )
        scheduler.allocator.calendar = scheduler.calendar
        scheduler._allocations = {
            int(a["rid"]): allocation_from_dict(a) for a in state["allocations"]
        }
        return scheduler

    # -- introspection ---------------------------------------------------

    @property
    def n_servers(self) -> int:
        return self.calendar.n_servers

    def utilization(self, ta: float, tb: float) -> float:
        """Fraction of server-time committed within ``[ta, tb)``.

        Computed from the calendar's idle periods, so it reflects every
        commitment including advance reservations.
        """
        if not ta < tb:
            raise ValueError(f"window [{ta}, {tb}) is empty")
        window = tb - ta
        idle = 0.0
        for server in range(self.calendar.n_servers):
            for p in self.calendar.idle_periods(server):
                lo, hi = max(p.st, ta), min(p.et, tb)
                if lo < hi:
                    idle += hi - lo
        total = window * self.calendar.n_servers
        return 1.0 - idle / total
