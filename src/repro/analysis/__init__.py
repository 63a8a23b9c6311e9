"""Domain-aware static analysis and structural invariant auditing.

Three engines guard the correctness of the co-allocation hot path:

* :mod:`repro.analysis.lint` — a custom AST lint pass catching the bug
  classes that broke, or nearly broke, the calendar fast path (rules
  ``RA001`` … ``RA009``: accidental ``pop(0)`` scans, sorting inside
  loops, float modulo / equality on time values, wall-clock or unseeded
  randomness leaking into the simulator, code reaching into slot-tree
  internals) plus the async-actor concurrency rules (``RA201`` …
  ``RA204``: awaited read-modify-write races on actor state, blocking
  calls inside coroutines, fire-and-forget tasks, unbounded stream
  reads) from :mod:`repro.analysis.rules.concurrency`.

* :mod:`repro.analysis.protocol_check` — wire-protocol conformance
  (``RA205``/``RA206``): every literal ``{"op": ...}`` send site and
  every handler table in the service is cross-checked against the
  declarative :data:`repro.service.protocol.REGISTRY`, with drift
  injections that self-test the checker.

* :mod:`repro.analysis.audit` — deep structural audits (checks ``RA101``
  … ``RA116``) over :class:`~repro.core.slot_tree.TwoDimTree` and
  :class:`~repro.core.calendar.AvailabilityCalendar`: size fields, split
  keys, leaf ordering, secondary-index synchrony, uid-map bijection,
  slot-coverage, pending-bucket bookkeeping, tail-index ordering, and
  idle-time conservation across ``allocate``/``release``.

All are surfaced by the ``repro check`` CLI subcommand (``--concurrency``
adds the protocol pass) and documented in ``docs/analysis.md``.  The
audit engine also backs the ``validate()`` methods of the core data
structures and ``replay(audit_stride=…)``.
"""

from .audit import (
    AuditError,
    AuditFinding,
    MutationAuditor,
    audit_calendar,
    audit_tree,
)
from .lint import KNOWN_RULE_IDS, LintReport, lint_paths, lint_source
from .protocol_check import PROTOCOL_INJECTIONS, ProtocolReport, run_protocol_check
from .rules import ALL_RULES, Rule, Violation

__all__ = [
    "ALL_RULES",
    "AuditError",
    "AuditFinding",
    "KNOWN_RULE_IDS",
    "LintReport",
    "MutationAuditor",
    "PROTOCOL_INJECTIONS",
    "ProtocolReport",
    "Rule",
    "Violation",
    "audit_calendar",
    "audit_tree",
    "lint_paths",
    "lint_source",
    "run_protocol_check",
]
