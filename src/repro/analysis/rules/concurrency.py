"""Async concurrency rules, RA202 and RA204.

The service layer's correctness rests on event-loop discipline: nothing
may block the loop (RA202), and every stream read needs an explicit
size bound, because ``asyncio``'s default ``limit`` is 64 KiB and a
legitimate longer line kills the connection (RA204).

Scope: ``service/``, ``gateway/`` and ``verify/`` — the packages that
run coroutines.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import LintContext, Rule, Violation

__all__ = ["BlockingCallRule", "UnboundedStreamRule"]


def _import_table(tree: ast.Module) -> dict[str, str]:
    """Map local names to the qualified names they were imported as."""
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def _qualified(node: ast.AST, table: dict[str, str]) -> str | None:
    """Resolve a call target to a dotted name through the import table."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = table.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def iter_coroutines(tree: ast.AST) -> Iterator[ast.AsyncFunctionDef]:
    """Every ``async def`` in the tree, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


def walk_body(fn: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """All nodes lexically in ``fn``'s own body.

    Nested function definitions (sync or async) are *not* descended
    into: a nested sync helper may legitimately block when handed to
    ``asyncio.to_thread``, and a nested coroutine is checked on its own
    when :func:`iter_coroutines` reaches it.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def awaited_call_ids(fn: ast.AsyncFunctionDef) -> frozenset[int]:
    """``id()`` of every Call node that is the direct value of an await
    (so ``await reader.readline()`` is fine where a bare
    ``reader.readline()`` is not)."""
    return frozenset(
        id(node.value)
        for node in walk_body(fn)
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call)
    )


def _in_async_scope(module: str) -> bool:
    return module.startswith(("service/", "gateway/", "verify/"))


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
