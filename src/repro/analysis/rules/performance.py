"""Rules guarding the algorithmic complexity of the hot path.

``RA001`` and ``RA002`` target the two accidental-``O(N)`` patterns that
have actually appeared in this codebase (both fixed by the PR that
introduced this linter): popping/inserting at the front of a Python list
shifts every element, and sorting inside a loop turns an ``O(N log N)``
pass into ``O(N^2 log N)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import LintContext, Rule, Violation, in_hot_path

__all__ = ["FrontOfListRule", "SortInLoopRule"]


class FrontOfListRule(Rule):
    """RA001: ``seq.pop(0)`` / ``seq.insert(0, …)`` shift the whole list.

    Applies everywhere: a front-of-list shift is never the right tool —
    use :class:`collections.deque`, ``heapq``, an index walk, or a sliced
    ``del`` — and the ones that start in cold code migrate into hot loops.
    """

    id = "RA001"
    title = "front-of-list pop/insert is O(N)"
    hint = (
        "use collections.deque.popleft(), heapq, an index walk with a single "
        "sliced `del seq[:n]`, or iterate in reverse"
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            args = node.args
            zero_first = (
                bool(args)
                and isinstance(args[0], ast.Constant)
                and args[0].value == 0
                and not isinstance(args[0].value, bool)
            )
            if attr == "pop" and len(args) == 1 and zero_first:
                yield self.violation(
                    ctx, node, "pop(0) shifts every remaining element (O(N) per call)"
                )
            elif attr == "insert" and len(args) == 2 and zero_first:
                yield self.violation(
                    ctx, node, "insert(0, ...) shifts every existing element (O(N) per call)"
                )


class SortInLoopRule(Rule):
    """RA002: ``sorted()`` / ``.sort()`` inside a loop body, hot path only.

    The calendar maintains order incrementally (``bisect``/``insort``)
    and a slot tree sorts once per update; re-sorting inside a loop
    is how an ``O((log N)^2)`` search quietly becomes ``O(N log N)`` per
    request.  Comprehensions do not count as loops — a single sort over a
    freshly built list is the idiomatic fast path.
    """

    id = "RA002"
    title = "sort inside a loop"
    hint = (
        "hoist the sort out of the loop, or maintain order incrementally "
        "with bisect/insort (see the calendar's per-server period lists)"
    )

    def applies_to(self, module: str) -> bool:
        return in_hot_path(module)

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        loops: list[ast.For | ast.While] = [
            n for n in ast.walk(ctx.tree) if isinstance(n, (ast.For, ast.While))
        ]
        seen: set[int] = set()  # nested loops walk the same calls twice
        for loop in loops:
            for node in ast.walk(loop):
                if node is loop or id(node) in seen:
                    continue
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == "sorted":
                    seen.add(id(node))
                    yield self.violation(ctx, node, "sorted() called inside a loop body")
                elif isinstance(func, ast.Attribute) and func.attr == "sort":
                    seen.add(id(node))
                    yield self.violation(ctx, node, ".sort() called inside a loop body")
