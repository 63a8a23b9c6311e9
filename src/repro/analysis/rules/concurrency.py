"""Async-actor concurrency rules, RA201 … RA204.

The service layer's correctness rests on event-loop discipline: state
shared between coroutines is only safe to read-modify-write *within*
one await-free segment (RA201); nothing may block the loop (RA202);
every spawned task needs an owner (RA203); and every stream read needs
an explicit size bound, because ``asyncio``'s default ``limit`` is
64 KiB and a legitimate longer line kills the connection (RA204).
These rules make all four invariants lintable.

Scope: ``service/``, ``gateway/`` and ``verify/`` — the packages that
run coroutines.  RA201 additionally exempts the single-writer actor
loop (any coroutine whose name contains ``actor``), mirroring RA009:
the actor owns the state, so its cross-await updates cannot race
anything.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..concurrency import (
    awaited_call_ids,
    find_lost_updates,
    iter_coroutines,
    walk_body,
)
from .base import LintContext, Rule, Violation
from .determinism import _import_table, _qualified

__all__ = [
    "BlockingCallRule",
    "FireAndForgetTaskRule",
    "LostUpdateRule",
    "UnboundedStreamRule",
]


def _in_async_scope(module: str) -> bool:
    return module.startswith(("service/", "gateway/", "verify/"))


class LostUpdateRule(Rule):
    """RA201: self state read-modify-written across an await (lost update)."""

    id = "RA201"
    title = "read-modify-write of shared state spans an await"
    hint = (
        "another task can interleave at the await and its update is lost; "
        "re-read the attribute after awaiting, mutate it inside one await-free "
        "segment, or route the update through the single-writer actor"
    )

    def applies_to(self, module: str) -> bool:
        return module.startswith(("service/", "gateway/"))

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        for coroutine in iter_coroutines(ctx.tree):
            if "actor" in coroutine.name.lower():
                continue  # the single writer owns its state across awaits
            for finding in find_lost_updates(coroutine):
                yield self.violation(
                    ctx,
                    finding.node,
                    f"coroutine {coroutine.name!r} writes {finding.path} from a "
                    f"value read on line {finding.read_line}, with await(s) in "
                    f"between — a concurrent update in the gap is silently lost",
                )


#: module-level callables that block the event loop, via import aliases
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
)

#: method names that block when called synchronously on their usual
#: receivers (Popen, sockets, sync file objects); awaited calls — the
#: StreamReader/StreamWriter versions — are exempt
_BLOCKING_METHODS = frozenset(
    {"wait", "communicate", "readline", "readlines", "readuntil", "recv", "accept",
     "sendall", "connect"}
)


class BlockingCallRule(Rule):
    """RA202: a blocking call on the event loop inside a coroutine."""

    id = "RA202"
    title = "blocking call inside a coroutine"
    hint = (
        "the event loop (every connection, the actor, the metrics task) stalls "
        "for the call's duration; use the async equivalent (asyncio.sleep, "
        "StreamReader) or push it off-loop with await asyncio.to_thread(...)"
    )

    def applies_to(self, module: str) -> bool:
        return _in_async_scope(module)

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        table = _import_table(ctx.tree)
        for coroutine in iter_coroutines(ctx.tree):
            awaited = awaited_call_ids(coroutine)
            for node in walk_body(coroutine):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                qualified = _qualified(func, table)
                if qualified in _BLOCKING_CALLS:
                    yield self.violation(
                        ctx,
                        node,
                        f"coroutine {coroutine.name!r} calls {qualified}(), "
                        f"blocking the event loop",
                    )
                    continue
                if (
                    isinstance(func, ast.Name)
                    and func.id == "open"
                    and func.id not in table
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"coroutine {coroutine.name!r} calls open(): synchronous "
                        f"file I/O blocks the event loop",
                    )
                    continue
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _BLOCKING_METHODS
                    and id(node) not in awaited
                    and qualified is None  # asyncio.wait(...) etc resolve above
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"coroutine {coroutine.name!r} calls .{func.attr}() without "
                        f"await — on a Popen/socket/file object this blocks the "
                        f"event loop",
                    )


class FireAndForgetTaskRule(Rule):
    """RA203: a created task nobody retains, awaits, or observes."""

    id = "RA203"
    title = "fire-and-forget create_task"
    hint = (
        "keep a reference (the event loop holds tasks only weakly — a "
        "garbage-collected task silently disappears mid-flight) and either "
        "await it or attach a done-callback so its exceptions surface"
    )

    def applies_to(self, module: str) -> bool:
        return _in_async_scope(module)

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        table = _import_table(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
                continue
            call = node.value
            qualified = _qualified(call.func, table)
            spawner = qualified in ("asyncio.create_task", "asyncio.ensure_future")
            if not spawner and isinstance(call.func, ast.Attribute):
                receiver = call.func.value
                # loop.create_task / get_event_loop().create_task — but not
                # TaskGroup.create_task, which owns its children
                spawner = call.func.attr == "create_task" and (
                    isinstance(receiver, ast.Name) and receiver.id.endswith("loop")
                )
            if spawner:
                yield self.violation(
                    ctx,
                    node,
                    "task created and immediately dropped: its result, its "
                    "exceptions, and (under GC pressure) the task itself are lost",
                )


#: stream factories whose default ``limit`` is 64 KiB
_LIMIT_FACTORIES = frozenset({"asyncio.open_connection", "asyncio.start_server"})


class UnboundedStreamRule(Rule):
    """RA204: a StreamReader created without an explicit limit override."""

    id = "RA204"
    title = "stream created without an explicit limit"
    hint = (
        "pass limit= explicitly (MAX_LINE_BYTES): the "
        "asyncio default is 64 KiB and readline()/readuntil() raise on any "
        "longer line, killing the connection on legitimate large payloads"
    )

    def applies_to(self, module: str) -> bool:
        return _in_async_scope(module)

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        table = _import_table(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = _qualified(node.func, table)
            if qualified not in _LIMIT_FACTORIES:
                continue
            if any(keyword.arg == "limit" for keyword in node.keywords):
                continue
            yield self.violation(
                ctx,
                node,
                f"{qualified}() without limit=: readline() on the resulting "
                f"stream fails at the 64 KiB default",
            )
