"""The online co-allocation algorithm of Section 4.2.

:class:`OnlineCoAllocator` wraps an
:class:`~repro.core.calendar.AvailabilityCalendar` and implements the
paper's scheduling loop:

1. attempt to find ``n_r`` feasible idle periods starting at ``s_r``
   (Phase 1 + Phase 2 range search in the slot tree of ``slot(s_r)``);
2. on failure, retry at ``s_r + Δt``, ``s_r + 2Δt``, … up to ``R_max``
   total attempts — running the search only at the grid points the
   calendar cannot certify infeasible in O(1) (see
   :meth:`OnlineCoAllocator.next_start`);
3. on success, commit the window on the chosen servers and report the allocation together
   with the attempt count and the incurred delay.

Deadline support (the Section 5.2 extension) falls out naturally: a
request with a deadline simply stops retrying once the candidate start
would miss ``deadline - l_r``.

The allocator also exposes the paper's *temporal range search*: retrieve
every resource available in a window without committing, letting the
caller post-process (e.g. the lambda-grid application selects a path and
wavelength among the returned resources) and commit later.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calendar import AvailabilityCalendar
from .opcount import NULL_COUNTER, OpCounter
from .types import Allocation, IdlePeriod, RangeQuery, Request

__all__ = ["OnlineCoAllocator", "ScheduleOutcome"]


@dataclass(frozen=True, slots=True)
class ScheduleOutcome:
    """Full result of one scheduling call, success or not.

    ``attempts`` is the number of grid points ``s_r + kΔt`` examined —
    searched with Phase 1/2 or passed over by the calendar's O(1)
    infeasibility certificate; either way the point could not host the
    request.  A deadline or horizon early exit stops the retry loop
    before ``R_max``, and the count reflects that (it may even be zero
    when the very first candidate start is already out of range).
    """

    #: the committed allocation, or ``None`` when the request was rejected
    allocation: Allocation | None
    #: scheduling attempts actually made (``<= R_max``)
    attempts: int
    #: why the request failed: ``"deadline"`` (next start would miss the
    #: deadline), ``"horizon"`` (next start beyond the schedulable
    #: horizon), ``"exhausted"`` (all ``R_max`` attempts failed);
    #: ``None`` on success
    reason: str | None


class OnlineCoAllocator:
    """Online scheduler with advance reservations and bounded retries.

    Parameters
    ----------
    calendar:
        The availability calendar to allocate from.
    delta_t:
        Retry increment ``Δt`` (the paper uses 15 minutes).
    r_max:
        Maximum number of scheduling attempts per request (the paper sets
        ``R_max = Q/2``); ``R_max · Δt`` bounds the delay a request can
        accumulate.
    counter:
        Operation counter; pass the calendar's counter to aggregate data
        structure and scheduler operations in one place.
    """

    def __init__(
        self,
        calendar: AvailabilityCalendar,
        delta_t: float,
        r_max: int,
        counter: OpCounter = NULL_COUNTER,
    ) -> None:
        if delta_t <= 0:
            raise ValueError(f"retry increment must be positive, got {delta_t}")
        if r_max < 1:
            raise ValueError(f"need at least one scheduling attempt, got {r_max}")
        self.calendar = calendar
        self.delta_t = float(delta_t)
        self.r_max = r_max
        self.counter = counter

    def schedule(self, request: Request) -> Allocation | None:
        """Schedule a request; returns ``None`` when every attempt fails.

        The first attempt is made at ``max(s_r, now)`` — a request whose
        earliest start lies in the past (e.g. replayed from a trace) is
        scheduled from the current time.
        """
        return self.schedule_detailed(request).allocation

    def schedule_detailed(self, request: Request) -> ScheduleOutcome:
        """Like :meth:`schedule`, but always reports attempts and reason.

        Callers tracking per-request effort (``job.attempts``, Table 2)
        need the *actual* attempt count on failure: a deadline or horizon
        early exit covers fewer than ``R_max`` grid points.
        """
        calendar = self.calendar
        base = max(request.sr, calendar.now)
        k, reason = self.next_start(request, base, 0)
        while reason is None:
            start = base + k * self.delta_t
            end = start + request.lr
            feasible = calendar.find_feasible(start, end, request.nr)
            if feasible is not None:
                self.counter.add("attempt", k + 1)
                allocation = Allocation(
                    rid=request.rid,
                    start=start,
                    end=end,
                    servers=calendar.allocate(feasible, start, end),
                    attempts=k + 1,
                    delay=start - request.sr,
                )
                return ScheduleOutcome(allocation, k + 1, None)
            k, reason = self.next_start(request, base, k + 1)
        self.counter.add("attempt", k)
        return ScheduleOutcome(None, k, reason)

    def next_start(self, request: Request, base: float, k: int) -> tuple[int, str | None]:
        """The ladder's next grid index ``>= k`` worth a Phase 1/2 search.

        The one walk of the Section 4.2 ladder ``base + k·Δt``: grid
        points the calendar certifies infeasible
        (:meth:`~repro.core.calendar.AvailabilityCalendar.skip_infeasible`)
        are passed over in O(1) each — they still count as attempts,
        because ``k`` stays the grid index.  Returns ``(k, None)`` when
        index ``k`` must be searched, or ``(k, reason)`` when the ladder
        ends there: ``"exhausted"`` (``k == R_max``), ``"deadline"`` or
        ``"horizon"`` — so on every exit ``k`` is the attempt count.
        """
        calendar = self.calendar
        latest = request.latest_start
        k = calendar.skip_infeasible(
            base, self.delta_t, k, self.r_max, latest, request.lr, request.nr
        )
        if k >= self.r_max:
            return k, "exhausted"
        start = base + k * self.delta_t
        if start > latest:
            # any later start would miss the deadline
            return k, "deadline"
        if not calendar.in_horizon(start):
            # beyond the schedulable horizon
            return k, "horizon"
        return k, None

    def range_search(self, query: RangeQuery) -> list[IdlePeriod]:
        """All idle periods covering ``[ta, tb)``; commits nothing.

        The caller may post-process the result and commit a subset via
        :meth:`commit`.
        """
        self.counter.add("attempt")
        return self.calendar.range_search(query.ta, query.tb)

    def commit(
        self, periods: list[IdlePeriod], start: float, end: float, rid: int = 0
    ) -> Allocation:
        """Commit specific idle periods found by an earlier range search.

        Raises ``ValueError`` if any period can no longer host the window
        (someone else committed it in between).
        """
        return Allocation(
            rid=rid,
            start=start,
            end=end,
            servers=self.calendar.allocate(periods, start, end),
            attempts=1,
            delay=0.0,
        )
