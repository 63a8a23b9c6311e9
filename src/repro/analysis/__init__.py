"""Domain-aware static analysis and structural invariant auditing.

Two engines guard the correctness of the co-allocation hot path:

* :mod:`repro.analysis.lint` — a custom AST lint pass catching the bug
  classes that broke the calendar fast path and the service (rules
  ``RA001`` … ``RA003``, ``RA008``, ``RA009``: accidental ``pop(0)``
  scans, sorting inside loops, float modulo on time values, reading
  ``r_max`` beside a ``ScheduleOutcome``, the single-writer actor
  boundary) plus the async rules ``RA202`` and ``RA204`` (blocking
  calls inside coroutines, unbounded stream reads) from
  :mod:`repro.analysis.rules.concurrency`.

* :mod:`repro.analysis.audit` — deep structural audits (checks ``RA101``
  … ``RA116``) over :class:`~repro.core.slot_tree.TwoDimTree` and
  :class:`~repro.core.calendar.AvailabilityCalendar`: cached summaries, leaf
  ordering, secondary-index synchrony, uid-map bijection, write-buffer
  agreement, slot coverage, the arithmetic horizon and tail-index
  ordering.

The lint pass is the ``repro check`` CLI subcommand; the audit engine
backs the ``validate()`` methods of the core data structures, which the
tests call.  Both are documented in ``docs/analysis.md``.

The wire protocol has no static pass.  Its registry
(:data:`repro.service.protocol.REGISTRY`) is enforced at runtime by
``decode_line`` / ``validate_payload``, and the server and the follower
build their handler tables from it (DESIGN.md §22).
"""

from .audit import (
    AuditError,
    AuditFinding,
    audit_calendar,
    audit_tree,
)
from .lint import KNOWN_RULE_IDS, LintReport, lint_paths, lint_source
from .rules import ALL_RULES, Rule, Violation

__all__ = [
    "ALL_RULES",
    "AuditError",
    "AuditFinding",
    "KNOWN_RULE_IDS",
    "LintReport",
    "Rule",
    "Violation",
    "audit_calendar",
    "audit_tree",
    "lint_paths",
    "lint_source",
]
