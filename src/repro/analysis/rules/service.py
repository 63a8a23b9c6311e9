"""Rule guarding the service layer's single-writer actor boundary.

The reservation server's correctness argument is that exactly one task —
the actor loop — ever touches the scheduler/calendar: connection
handlers only pass messages.  A coroutine that calls the blocking commit
path directly both breaks single-writer ownership (two interleaved
coroutines can each pass a feasibility check and double-book) and stalls
the event loop for the duration of an ``O((log N)^2)`` commit.

``RA009`` makes that contract a lint rule: inside ``service/`` modules,
an ``async def`` may not call scheduler-owning methods on a
scheduler/calendar/allocator receiver.  The actor loop itself (any
coroutine whose name contains ``actor``) is exempt — it *is* the single
writer — and synchronous helpers are exempt because they can only run
when called, i.e. from the actor.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import LintContext, Rule, Violation

__all__ = ["ActorBoundaryRule"]

#: methods that read or mutate calendar state (the "commit path")
_GUARDED_METHODS = frozenset(
    {
        "schedule",
        "schedule_detailed",
        "schedule_or_raise",
        "commit",
        "allocate",
        "release",
        "release_early",
        "cancel",
        "advance",
        "range_search",
        "find_feasible",
        "skip_infeasible",
        "next_start",
        "suggest_alternatives",
    }
)

#: receiver names that denote the shared scheduling state
_GUARDED_RECEIVERS = frozenset({"scheduler", "calendar", "allocator", "facade"})


def _receiver_name(node: ast.AST) -> str | None:
    """The last name segment of the call receiver (``self.scheduler`` → ``scheduler``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class ActorBoundaryRule(Rule):
    """RA009: blocking commit path called from a coroutine outside the actor."""

    id = "RA009"
    title = "scheduler commit path called outside the single-writer actor"
    hint = (
        "enqueue a (message, future) pair for the actor loop instead; only the "
        "actor coroutine (name contains 'actor') may touch the scheduler/calendar"
    )

    def applies_to(self, module: str) -> bool:
        return module.startswith("service/")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            if "actor" in node.name.lower():
                continue  # the single writer itself
            yield from self._check_coroutine(ctx, node)

    def _check_coroutine(
        self, ctx: LintContext, coroutine: ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        # nested sync defs are walked too: they inherit the coroutine's
        # context, since the event loop runs them when the coroutine calls
        # them; nested coroutines also get their own top-level visit, which
        # is harmless (same verdict twice would need a nested async actor)
        for node in ast.walk(coroutine):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _GUARDED_METHODS:
                continue
            receiver = _receiver_name(func.value)
            if receiver in _GUARDED_RECEIVERS:
                yield self.violation(
                    ctx,
                    node,
                    f"coroutine {coroutine.name!r} calls "
                    f"{receiver}.{func.attr}() outside the single-writer actor",
                )
