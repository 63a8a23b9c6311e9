"""Core value types shared across the library.

The vocabulary follows Section 2 of the paper:

* a *request* ``r = (q_r, s_r, l_r, n_r)`` asks for ``n_r`` servers for
  ``l_r`` time units starting no earlier than ``s_r`` (submitted at ``q_r``);
* an *idle period* is a maximal interval during which one server is free;
* a *reservation* is a committed ``[start, end)`` interval on one server;
* an *allocation* is the set of ``n_r`` reservations granted to a request.

Times are floats in arbitrary units (the simulator uses seconds).  An idle
period whose server has no commitment after ``st`` extends to
``math.inf``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "INF",
    "Request",
    "IdlePeriod",
    "Reservation",
    "Allocation",
    "RangeQuery",
    "ensure_uid_floor",
    "uid_source",
]

INF = math.inf

_period_uids = itertools.count()


def ensure_uid_floor(floor: int) -> None:
    """Advance the global period-uid counter to at least ``floor``.

    Snapshot restore re-creates idle periods with their *persisted* uids
    (uid order is the tree tie-break, so reusing it keeps a restored
    calendar's selection order bit-identical to the original's).  The
    counter must then skip past every restored uid so freshly created
    periods never collide.
    """
    global _period_uids
    current = next(_period_uids)
    _period_uids = itertools.count(max(current, floor))


def uid_source() -> Callable[[], int]:
    """The global period-uid counter's ``__next__``, for explicit uids.

    :func:`ensure_uid_floor` rebinds the counter, so take this at the
    start of each batch of period creations, never once at import.
    """
    return _period_uids.__next__


@dataclass(frozen=True, slots=True)
class Request:
    """A co-allocation request ``r = (q_r, s_r, l_r, n_r)``.

    Attributes
    ----------
    qr:
        Submission time.
    sr:
        Earliest start time; ``sr > qr`` is an advance reservation.
    lr:
        Temporal size (duration) of the reservation; must be positive and
        finite (an open-ended grant would leave its servers no trailing
        idle period and could never be cancelled).
    nr:
        Spatial size (number of servers); must be a positive integer.
    rid:
        Caller-chosen identifier, carried through to the allocation.
    deadline:
        Optional latest *completion* time.  The scheduler will not start
        the job later than ``deadline - lr`` (Section 5.2's deadline
        extension).
    actual_lr:
        Optional *actual* runtime, when it differs from the estimate
        ``lr`` (SWF logs record both).  Schedulers reserve ``lr`` — the
        paper's model — but simulations may complete the job after
        ``actual_lr`` and, with reclamation enabled, return the surplus.
        Must satisfy ``0 < actual_lr <= lr`` (a job never outlives its
        reservation).
    """

    qr: float
    sr: float
    lr: float
    nr: int
    rid: int = 0
    deadline: float | None = None
    actual_lr: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.lr < INF:
            raise ValueError(
                f"request {self.rid}: duration must be positive and finite, got {self.lr}"
            )
        if self.actual_lr is not None and not 0 < self.actual_lr <= self.lr:
            raise ValueError(
                f"request {self.rid}: actual runtime {self.actual_lr} must lie in (0, {self.lr}]"
            )
        if self.nr <= 0:
            raise ValueError(f"request {self.rid}: spatial size must be positive, got {self.nr}")
        if self.sr < self.qr:
            raise ValueError(
                f"request {self.rid}: start time {self.sr} precedes submission {self.qr}"
            )
        if self.deadline is not None and self.deadline < self.sr + self.lr:
            raise ValueError(
                f"request {self.rid}: deadline {self.deadline} is infeasible "
                f"(earliest completion is {self.sr + self.lr})"
            )

    @property
    def er(self) -> float:
        """Ending time ``e_r = s_r + l_r`` of the earliest-start schedule."""
        return self.sr + self.lr

    @property
    def latest_start(self) -> float:
        """Latest admissible start time (``inf`` without a deadline)."""
        if self.deadline is None:
            return INF
        return self.deadline - self.lr

    @property
    def runtime(self) -> float:
        """The actual runtime: ``actual_lr`` when recorded, else ``lr``."""
        return self.actual_lr if self.actual_lr is not None else self.lr

    def is_advance(self) -> bool:
        """True when the request reserves resources ahead of time."""
        return self.sr > self.qr


@dataclass(frozen=True, slots=True, eq=False)
class IdlePeriod:
    """A maximal interval ``[st, et)`` during which ``server`` is free.

    ``et`` may be ``math.inf`` for the trailing idle period of a server.
    Identity (``uid``) rather than value equality is used so that two
    coincidentally equal intervals on different servers, or re-created
    intervals, never alias each other inside the slot trees.
    """

    server: int
    st: float
    et: float
    uid: int = field(default_factory=lambda: next(_period_uids))

    def __post_init__(self) -> None:
        if not self.st < self.et:
            raise ValueError(f"idle period on server {self.server}: [{self.st}, {self.et}) is empty")

    def is_candidate(self, sr: float) -> bool:
        """Candidate for a request starting at ``sr`` (paper: ``st_i <= s_r``)."""
        return self.st <= sr

    def is_feasible(self, sr: float, er: float) -> bool:
        """Feasible for ``[sr, er)`` (paper: ``st_i <= s_r`` and ``et_i >= e_r``)."""
        return self.st <= sr and self.et >= er

    def overlaps(self, lo: float, hi: float) -> bool:
        """True when the period intersects the half-open window ``[lo, hi)``."""
        return self.st < hi and self.et > lo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IdlePeriod(server={self.server}, [{self.st}, {self.et}), uid={self.uid})"


@dataclass(frozen=True, slots=True)
class Reservation:
    """A committed interval ``[start, end)`` on one server for request ``rid``."""

    rid: int
    server: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"reservation for {self.rid}: [{self.start}, {self.end}) is empty")

    @property
    def duration(self) -> float:
        return self.end - self.start


# Trusted construction.  ``AvailabilityCalendar.allocate`` builds two
# remnants and a reservation per carved period from bounds its own branch
# conditions have just ordered, so ``__post_init__`` re-proving them is
# pure cost (DESIGN.md §15a).  These build the same frozen, slotted
# instances the way the frozen ``__init__`` does — each slot set through
# its member descriptor — minus the per-field ``object.__setattr__``
# lookup and the check.  Only ``core/calendar.py`` calls them (CI holds
# it to that); everything else, snapshot restore included, goes through
# the validating constructors.
_new = object.__new__
_period_server, _period_st, _period_et, _period_uid = (
    vars(IdlePeriod)[name].__set__ for name in ("server", "st", "et", "uid")
)
_res_rid, _res_server, _res_start, _res_end = (
    vars(Reservation)[name].__set__ for name in ("rid", "server", "start", "end")
)


def make_period(server: int, st: float, et: float, uid: int) -> IdlePeriod:
    """An :class:`IdlePeriod` whose caller has already proven ``st < et``."""
    period = _new(IdlePeriod)
    _period_server(period, server)
    _period_st(period, st)
    _period_et(period, et)
    _period_uid(period, uid)
    return period


def make_reservation(rid: int, server: int, start: float, end: float) -> Reservation:
    """A :class:`Reservation` whose caller has already proven ``start < end``."""
    reservation = _new(Reservation)
    _res_rid(reservation, rid)
    _res_server(reservation, server)
    _res_start(reservation, start)
    _res_end(reservation, end)
    return reservation


@dataclass(frozen=True, slots=True)
class Allocation:
    """The outcome of a successful scheduling attempt.

    Attributes
    ----------
    rid:
        The request this allocation satisfies.
    start, end:
        The common start/end times of all reservations.
    reservations:
        One :class:`Reservation` per allocated server.
    attempts:
        Number of scheduling attempts made (1 = succeeded at ``s_r``).
    delay:
        ``start - s_r``; the waiting time introduced by the scheduler.
    """

    rid: int
    start: float
    end: float
    reservations: tuple[Reservation, ...]
    attempts: int
    delay: float

    @property
    def servers(self) -> tuple[int, ...]:
        return tuple(res.server for res in self.reservations)

    @property
    def nr(self) -> int:
        return len(self.reservations)


@dataclass(frozen=True, slots=True)
class RangeQuery:
    """A temporal range search: all resources free in ``[ta, tb)``.

    Mirrors the paper's range-search feature (``s_r = t_a``,
    ``l_r = t_b - t_a``, ``n_r >= 1``); the scheduler answers without
    committing anything.
    """

    ta: float
    tb: float

    def __post_init__(self) -> None:
        if not self.ta < self.tb:
            raise ValueError(f"range query window [{self.ta}, {self.tb}) is empty")
