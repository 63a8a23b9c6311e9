"""Differential verification of the co-allocation core (``repro fuzz``).

The package pits the production slot-tree scheduler against an
obviously-correct reference implementation over randomized request
streams, and the TCP reservation service against deterministic fault
plans:

* :mod:`repro.verify.oracle` — the O(N·Q) reference co-allocator over
  plain per-server sorted idle lists;
* :mod:`repro.verify.genstream` — seeded request-stream generator with
  load profiles;
* :mod:`repro.verify.differ` — the lock-step differential executor,
  delta-debugging shrinker, and failing-test emitter;
* :mod:`repro.verify.chaos` — the two deterministic fault plans that
  need real processes: ``front-door`` (through a gateway) and
  ``kill-promote`` (failover onto a follower).

See ``docs/testing.md`` for how to run and extend the fuzzer, and
``tests/verify/corpus/`` for the regression corpus of minimized traces.
"""

from .differ import Divergence, FuzzResult, run_stream  # noqa: F401
from .genstream import PROFILES, generate_stream  # noqa: F401
from .oracle import ReferenceScheduler  # noqa: F401
