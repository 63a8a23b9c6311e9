"""The paper's primary contribution: online resource co-allocation.

Public surface:

* :class:`~repro.core.types.Request`, :class:`~repro.core.types.IdlePeriod`,
  :class:`~repro.core.types.Allocation`, :class:`~repro.core.types.RangeQuery`
  — the vocabulary of Section 2;
* :class:`~repro.core.slot_tree.TwoDimTree` — the per-slot 2-D tree (§4.1);
* :class:`~repro.core.calendar.AvailabilityCalendar` — Q rolling slot trees;
* :class:`~repro.core.coalloc.OnlineCoAllocator` — the scheduling loop (§4.2);
* :class:`~repro.core.opcount.OpCounter` — operation instrumentation (Fig 7b).
"""

from .calendar import AvailabilityCalendar
from .coalloc import OnlineCoAllocator
from .opcount import NULL_COUNTER, OpCounter
from .slot_tree import TwoDimTree
from .types import INF, Allocation, IdlePeriod, RangeQuery, Request

__all__ = [
    "INF",
    "Allocation",
    "AvailabilityCalendar",
    "IdlePeriod",
    "NULL_COUNTER",
    "OnlineCoAllocator",
    "OpCounter",
    "RangeQuery",
    "Request",
    "TwoDimTree",
]
