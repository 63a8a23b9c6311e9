"""Rule enforcing the ``ScheduleOutcome`` API contract.

``RA008``: the attempt count on rejection is ``outcome.attempts`` (a
deadline/horizon early exit performs fewer than ``R_max`` attempts),
never the scheduler's ``r_max`` parameter.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import LintContext, Rule, Violation

__all__ = ["OutcomeContractRule"]


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

    def applies_to(self, module: str) -> bool:
        # the retry loop itself legitimately iterates up to r_max
        return module != "core/coalloc.py"

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
