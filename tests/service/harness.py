"""In-process client/server helpers shared by the service tests.

The tests run real asyncio TCP servers on ephemeral loopback ports, but
everything lives in one process and one event loop (`asyncio.run` per
test) — no subprocesses, no sleeps, no port races.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.service.server import ReservationService, ServiceConfig

__all__ = [
    "ScriptedBackend",
    "start_service",
    "start_fake_backend",
    "rpc_all",
    "rpc",
    "reserve_msg",
    "SMALL",
]

#: a calendar small enough to fill deterministically: N=2 servers,
#: horizon = tau * q_slots = 40 time units, r_max = q_slots // 2 = 2
SMALL = dict(n_servers=2, tau=10.0, q_slots=4)


async def start_service(**overrides: Any) -> ReservationService:
    """Boot a service on an ephemeral port; caller must stop it."""
    service = ReservationService.create(ServiceConfig(**overrides))
    await service.start()
    return service


async def start_fake_backend(handler):
    """An NDJSON 'backend' whose per-connection behavior the test scripts."""
    server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
    return server, server.sockets[0].getsockname()[1]


class ScriptedBackend:
    """Answers each line per ``script(message)``: bytes to write back, or
    ``None`` to drop the connection with whatever was already written."""

    def __init__(self, script):
        self.script = script
        self.connections = 0

    async def handle(self, reader, writer):
        self.connections += 1
        try:
            while raw := await reader.readline():
                answer = await self.script(json.loads(raw))
                if answer is None:
                    break
                writer.write(answer)
                await writer.drain()
                if not answer.endswith(b"\n"):
                    break  # a torn line: die mid-reply
        except (ConnectionError, OSError):
            pass  # the client dropped us mid-answer: expected
        finally:
            writer.close()


async def rpc_all(port: int, *messages: dict | bytes) -> list[dict]:
    """Open one connection, pipeline all messages, read all responses."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for message in messages:
        if isinstance(message, bytes):
            writer.write(message)
        else:
            writer.write((json.dumps(message) + "\n").encode())
    await writer.drain()
    responses = []
    for _ in messages:
        raw = await reader.readline()
        assert raw, "server closed the connection mid-conversation"
        responses.append(json.loads(raw))
    writer.close()
    return responses


async def rpc(port: int, message: dict | bytes) -> dict:
    """One request, one response."""
    (response,) = await rpc_all(port, message)
    return response


def reserve_msg(rid: int, sr: float, lr: float, nr: int, **extra: Any) -> dict:
    return {"op": "reserve", "rid": rid, "sr": sr, "lr": lr, "nr": nr, **extra}
