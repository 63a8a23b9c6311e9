"""Rules enforcing module boundaries and API contracts.

``RA007`` keeps slot-tree internals private: the update invariants (the
sorted leaf array and its cached summary, the materialised secondary
indexes, the per-tree uid map) are maintained by ``core/slot_tree.py``
alone, and any outside reader becomes an outside *mutator* one refactor
later.  ``RA008`` enforces the ``ScheduleOutcome`` contract: the attempt
count on rejection is ``outcome.attempts`` (a deadline/horizon early
exit performs fewer than ``R_max`` attempts), never the scheduler's
``r_max`` parameter.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import LintContext, Rule, Violation

__all__ = ["SlotTreeInternalsRule", "OutcomeContractRule"]

#: attributes that exist only on slot-tree internals: the uid map and
#: the sorted leaves with their cached count, maximum and secondaries
_PRIVATE_ATTRS = frozenset({"_by_uid", "_leaves", "_secs", "_max_et", "_count"})

#: modules allowed to touch them: the tree itself and the designated
#: invariant auditor (whose whole job is inspecting internals)
_ALLOWED_MODULES = (
    "core/slot_tree.py",
    "analysis/audit.py",
)


class SlotTreeInternalsRule(Rule):
    """RA007: slot-tree internals reached from outside ``core/slot_tree.py``."""

    id = "RA007"
    title = "slot-tree internals accessed from outside"
    hint = (
        "go through the TwoDimTree public surface (insert/remove/bulk_load, "
        "phase1/phase2/find_feasible, periods, validate); if an invariant "
        "needs checking, extend repro.analysis.audit instead"
    )

    def applies_to(self, module: str) -> bool:
        return module not in _ALLOWED_MODULES

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr in _PRIVATE_ATTRS:
                yield self.violation(
                    ctx,
                    node,
                    f".{node.attr} is slot-tree internal state",
                )


class OutcomeContractRule(Rule):
    """RA008: ScheduleOutcome consumers must not read ``r_max``.

    A function that calls ``schedule_detailed()`` gets the *actual*
    attempt count and rejection reason in the outcome; reading ``r_max``
    in the same function means it is reconstructing (wrongly) what the
    outcome already reports — the exact bug the attempt-count fix of the
    fast-path PR removed.
    """

    id = "RA008"
    title = "ScheduleOutcome consumer reads r_max"
    hint = "read outcome.attempts / outcome.reason instead of assuming r_max"

    #: the retry loops themselves legitimately iterate up to r_max
    _IMPLEMENTATIONS = ("core/coalloc.py", "core/linear.py")

    def applies_to(self, module: str) -> bool:
        return module not in self._IMPLEMENTATIONS

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls_detailed = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "schedule_detailed"
                for node in ast.walk(func)
            )
            if not calls_detailed:
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr == "r_max":
                    yield self.violation(
                        ctx,
                        node,
                        "reads r_max while consuming a ScheduleOutcome "
                        "(early exits make attempts < r_max)",
                    )
