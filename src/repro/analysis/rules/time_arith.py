"""Rule guarding float time arithmetic in slot geometry.

The calendar maps times to slots with products and floor division
(:meth:`AvailabilityCalendar.slot_of`) precisely because ``t % tau``
drifts by an ulp for non-integral ``tau`` — the exact bug class a
previous PR fixed on the slot boundaries.  ``RA003`` keeps that
arithmetic from creeping back in.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import LintContext, Rule, Violation, in_hot_path

__all__ = ["FloatTimeModuloRule"]

#: identifiers that conventionally hold simulated-time values in this
#: codebase (Section 2 vocabulary plus the calendar/slot geometry)
_TIME_NAMES = frozenset(
    {
        "t", "st", "et", "sr", "er", "qr", "lr", "ta", "tb",
        "tau", "now", "start", "end",
        "start_time", "end_time", "to_time", "at_time",
        "deadline", "horizon", "horizon_start", "horizon_end",
        "delta_t", "lead", "delay", "cutoff", "until", "duration",
        "new_end", "latest", "elapsed",
    }
)


def _name_is_time(name: str) -> bool:
    return name in _TIME_NAMES or name.endswith(("_time", "_end", "_start"))


def is_time_expr(node: ast.AST) -> bool:
    """Heuristic: does the expression denote a simulated-time value?

    Names and attributes are matched against the codebase's time
    vocabulary; arithmetic over a time value is itself a time value.
    """
    if isinstance(node, ast.Name):
        return _name_is_time(node.id)
    if isinstance(node, ast.Attribute):
        return _name_is_time(node.attr)
    if isinstance(node, ast.BinOp):
        return is_time_expr(node.left) or is_time_expr(node.right)
    if isinstance(node, ast.UnaryOp):
        return is_time_expr(node.operand)
    return False


class FloatTimeModuloRule(Rule):
    """RA003: ``%`` on time values drifts for non-integral ``tau``.

    ``t % tau`` and ``t // tau * tau`` disagree by an ulp near slot
    boundaries when ``tau`` has no exact binary representation; a time
    sitting exactly on a boundary then lands in the wrong slot.  String
    formatting with ``%`` is ignored.
    """

    id = "RA003"
    title = "float modulo on time values"
    hint = (
        "derive slot indexes with floor division plus the boundary fix-up "
        "loop of AvailabilityCalendar.slot_of, then compare against q*tau "
        "products directly"
    )

    def applies_to(self, module: str) -> bool:
        return in_hot_path(module)

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp) or not isinstance(node.op, ast.Mod):
                continue
            # old-style string formatting, not arithmetic
            if isinstance(node.left, (ast.Constant, ast.JoinedStr)) and isinstance(
                getattr(node.left, "value", None), str
            ):
                continue
            if is_time_expr(node.left) or is_time_expr(node.right):
                yield self.violation(
                    ctx,
                    node,
                    "modulo on a time value is not ulp-exact for non-integral tau",
                )

