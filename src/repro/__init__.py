"""repro — reproduction of *Resource Co-Allocation for Large-Scale
Distributed Environments* (Castillo, Rouskas, Harfoush; HPDC 2009).

The package implements the paper's online co-allocation algorithm (slotted
2-dimensional availability trees + two-phase range search + bounded-retry
scheduling), the batch-scheduler baselines it is evaluated against, a
discrete-event grid simulator, calibrated synthetic versions of the three
Parallel Workload Archive traces used in the evaluation, and the full
experiment harness regenerating every table and figure.

Quickstart::

    from repro import CoAllocationScheduler, Request

    sched = CoAllocationScheduler(n_servers=64, tau=900.0, q_slots=96)
    alloc = sched.schedule(Request(qr=0.0, sr=0.0, lr=3600.0, nr=8))
    print(alloc.servers, alloc.start, alloc.delay)

See ``examples/`` for end-to-end scenarios and ``DESIGN.md`` for the
system inventory.
"""

from .core import (
    INF,
    Allocation,
    AvailabilityCalendar,
    IdlePeriod,
    OnlineCoAllocator,
    OpCounter,
    RangeQuery,
    Request,
    TwoDimTree,
)
from .facade import CoAllocationScheduler

__version__ = "1.0.0"

__all__ = [
    "INF",
    "Allocation",
    "AvailabilityCalendar",
    "CoAllocationScheduler",
    "IdlePeriod",
    "OnlineCoAllocator",
    "OpCounter",
    "RangeQuery",
    "Request",
    "TwoDimTree",
    "__version__",
]
