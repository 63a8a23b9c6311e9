"""The one NDJSON request/reply exchange every production caller shares.

``encode`` → write → drain → ``readline`` → ``json.loads``, with the
rules that are easy to get wrong decided once: the read limits, a reply
torn mid-line, a cancelled exchange (DESIGN.md §10).  The gateway, the
follower and the CLI one-shots all go through :class:`ServiceClient`;
CI fails on an ``open_connection(`` anywhere else in ``src/``.

Deliberately absent: retry, locking, pipelining and options.  Only the
caller knows which ops are idempotent (the gateway resends ``reserve``
but never ``cancel``), whether exchanges can race (the gateway serves
many HTTP clients, the follower has a single tail task), and what a lost
connection means to it — so every failure surfaces as one exception and
the next :meth:`ServiceClient.rpc` starts on a fresh connection.

The verification harnesses (``verify/chaos.py``, ``benchmarks/stack``)
keep their own blocking clients on purpose: a bug in shared code cannot
be caught by a checker that shares it.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from .protocol import MAX_LINE_BYTES, READ_CHUNK_BYTES, encode

__all__ = ["ServiceClient"]


class ServiceClient:
    """One lazily (re)opened connection, one exchange in flight."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._conn: tuple[asyncio.StreamReader, asyncio.StreamWriter] | None = None

    @property
    def connected(self) -> bool:
        """Whether a connection is open (the last exchange did not lose it)."""
        return self._conn is not None

    def close(self) -> None:
        """Drop the connection; the next :meth:`rpc` opens a fresh one."""
        if self._conn is not None:
            _, writer = self._conn
            self._conn = None
            writer.close()

    async def rpc(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one message, return its reply.

        A reply that cannot be had — refused connect, EOF, any
        ``OSError``, a line torn mid-JSON or over ``MAX_LINE_BYTES`` —
        closes the connection and raises :class:`ConnectionError`; the
        message may or may not have been applied.  A cancelled exchange
        closes it too: between write and ``readline`` the reply is still
        on its way, and left buffered it would answer the *next* rpc.
        """
        line = encode(message)  # an unencodable message is the caller's ValueError
        try:
            if self._conn is None:
                self._conn = await asyncio.open_connection(
                    self.host, self.port, limit=MAX_LINE_BYTES
                )
                self._conn[1].transport.max_size = READ_CHUNK_BYTES
            reader, writer = self._conn
            writer.write(line)
            await writer.drain()
            raw = await reader.readline()
            if not raw:
                raise ConnectionError("peer closed the connection")
            return json.loads(raw)
        except (asyncio.CancelledError, ConnectionError):
            self.close()
            raise
        except (OSError, ValueError) as exc:
            self.close()
            raise ConnectionError(
                f"no usable reply to {message.get('op')!r}: {exc}"
            ) from exc
