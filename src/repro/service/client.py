"""The one NDJSON request/reply exchange every production caller shares.

``encode`` → write → ``readline``, with the rules that are easy to get
wrong decided once: the read limits, a reply torn mid-line, an abandoned
exchange, a connection lost with many exchanges in flight (DESIGN.md
§10, §14).  The gateway, the follower and the CLI one-shots all go
through :class:`ServiceClient`; CI fails on an ``open_connection(``
anywhere else in ``src/``.

Exchanges are pipelined: :meth:`ServiceClient.submit` queues a line and
returns a future, the server answers in request order, and one reader
task hands each reply line to the oldest waiter.  :meth:`ServiceClient.rpc`
is ``submit`` awaited and parsed — there is no second exchange path.

Deliberately absent: retry and options.  Only the caller knows which ops
are idempotent (the gateway resends ``reserve`` but never ``cancel``) and
what a lost connection means to it — so every failure surfaces as one
exception on every exchange it cost, and the next ``submit`` starts on a
fresh connection.

The verification harnesses (``verify/chaos.py``, ``benchmarks/stack``)
keep their own blocking clients on purpose: a bug in shared code cannot
be caught by a checker that shares it.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from typing import Any

from .protocol import MAX_LINE_BYTES, READ_CHUNK_BYTES, encode

__all__ = ["ServiceClient"]


class _Link:
    """One connection: lines not yet written, exchanges not yet answered."""

    __slots__ = ("outbox", "waiters", "writer", "task")

    def __init__(self) -> None:
        self.outbox: list[bytes] = []
        self.waiters: deque[asyncio.Future[bytes]] = deque()
        self.writer: asyncio.StreamWriter | None = None  # None while connecting
        self.task: asyncio.Task[None]  # reads the replies; set by whoever makes the link

    def flush(self) -> None:
        """Everything queued since the last flush, in one ``write``."""
        if self.outbox and self.writer is not None:
            self.writer.write(b"".join(self.outbox))
            self.outbox.clear()


class ServiceClient:
    """One lazily (re)opened connection, exchanges answered first in, first out."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._link: _Link | None = None

    @property
    def connected(self) -> bool:
        """Whether a connection is open (no exchange has lost it)."""
        return self._link is not None and self._link.writer is not None

    @property
    def inflight(self) -> int:
        """Exchanges submitted and not yet answered."""
        return len(self._link.waiters) if self._link is not None else 0

    def close(self) -> None:
        """Drop the connection; the next :meth:`submit` opens a fresh one."""
        link = self._link
        if link is not None:
            self._drop(link, "connection closed")
            link.task.cancel()

    def submit(self, message: dict[str, Any]) -> asyncio.Future[bytes]:
        """Queue one message; the future resolves to its raw reply line.

        Never blocks: the lines submitted in one event-loop turn leave in
        one ``write``.  A reply that cannot be had — refused connect, EOF,
        any ``OSError``, a line torn mid-reply or over ``MAX_LINE_BYTES`` —
        closes the connection and fails *every* exchange in flight with
        :class:`ConnectionError`; each may or may not have been applied.
        A caller that stops waiting just cancels (or drops) its future:
        the late reply is discarded when it arrives, and the connection
        and everybody else's exchanges are untouched.
        """
        line = encode(message)  # an unencodable message is the caller's ValueError
        loop = asyncio.get_running_loop()
        link = self._link
        if link is None:
            link = self._link = _Link()
            link.task = loop.create_task(self._pump(link))
        if not link.outbox and link.writer is not None:
            loop.call_soon(link.flush)
        link.outbox.append(line)
        waiter: asyncio.Future[bytes] = loop.create_future()
        link.waiters.append(waiter)
        return waiter

    async def rpc(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one message, return its reply (:meth:`submit`, awaited and parsed)."""
        waiter = self.submit(message)
        try:
            return json.loads(await waiter)
        except (ConnectionError, ValueError) as exc:
            raise ConnectionError(
                f"no usable reply to {message.get('op')!r}: {exc}"
            ) from exc

    async def _pump(self, link: _Link) -> None:
        """Open ``link``'s connection, then match reply lines to waiters."""
        reason = "connection closed"
        try:
            reader, writer = await asyncio.open_connection(
                self.host, self.port, limit=MAX_LINE_BYTES
            )
            writer.transport.max_size = READ_CHUNK_BYTES
            link.writer = writer
            link.flush()
            while True:
                raw = await reader.readline()
                if not raw.endswith(b"\n"):
                    raise ConnectionError(
                        "peer closed the connection" + (" mid-reply" if raw else "")
                    )
                if not link.waiters:
                    raise ConnectionError("peer sent a line nobody asked for")
                waiter = link.waiters.popleft()
                if not waiter.done():  # else abandoned: its late reply stops here
                    waiter.set_result(raw)
        except (OSError, ValueError) as exc:  # ValueError: a line over the limit
            reason = str(exc)
        finally:
            self._drop(link, reason)

    def _drop(self, link: _Link, reason: str) -> None:
        """Close ``link`` and fail whoever still waits on it."""
        if self._link is link:
            self._link = None
        link.outbox.clear()
        if link.writer is not None:
            link.writer.close()
        while link.waiters:
            waiter = link.waiters.popleft()
            if not waiter.done():
                waiter.set_exception(ConnectionError(reason))
                # marked retrieved: an exchange its caller abandoned (a
                # vanished HTTP client) must not log "never retrieved"
                waiter.exception()
