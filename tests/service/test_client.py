"""ServiceClient: the one request/reply exchange, and its four exits.

Every production caller (gateway, follower, ``repro reserve`` /
``promote``) goes through :class:`repro.service.client.ServiceClient`,
so the failure rules are pinned here once instead of per caller: EOF, a
reply torn mid-line and a refused connect all surface as
``ConnectionError`` with the connection dropped, and an exchange
cancelled between write and read leaves no stale reply behind.
"""

import asyncio
import json
import socket

import pytest

from repro.service.client import ServiceClient
from repro.service.protocol import READ_CHUNK_BYTES

from .harness import SMALL, ScriptedBackend, start_fake_backend, start_service


def _reply(message: dict, **extra) -> bytes:
    return json.dumps({"ok": True, "op": message["op"], **extra}).encode() + b"\n"


async def _with_backend(script, body):
    backend = ScriptedBackend(script)
    server, port = await start_fake_backend(backend.handle)
    client = ServiceClient("127.0.0.1", port)
    try:
        return await body(client, backend)
    finally:
        client.close()
        server.close()
        await server.wait_closed()


class TestExchange:
    def test_exchanges_share_one_lazily_opened_connection(self):
        async def script(message):
            return _reply(message)

        async def body(client, backend):
            assert not client.connected and backend.connections == 0
            first = await client.rpc({"op": "status"})
            second = await client.rpc({"op": "pool_status"})
            assert client.connected
            client.close()
            assert not client.connected
            third = await client.rpc({"op": "status"})  # reopens
            return first, second, third, backend.connections

        first, second, third, connections = asyncio.run(_with_backend(script, body))
        assert (first["op"], second["op"], third["op"]) == (
            "status", "pool_status", "status",
        )
        assert connections == 2

    def test_against_a_real_service(self):
        async def scenario():
            service = await start_service(**SMALL)
            client = ServiceClient("127.0.0.1", service.port)
            granted = await client.rpc(
                {"op": "reserve", "rid": 1, "sr": 0.0, "lr": 10.0, "nr": 2}
            )
            status = await client.rpc({"op": "status"})
            client.close()
            await service.stop()
            return granted, status

        granted, status = asyncio.run(scenario())
        assert granted["ok"] and granted["servers"] == [0, 1]
        assert status["decided"] == 1

    def test_a_reply_longer_than_asyncios_default_limit_is_read_whole(self):
        """A probe reply listing many periods passes 64 KiB; the reader is
        bounded by MAX_LINE_BYTES, the recv chunk by READ_CHUNK_BYTES."""
        padding = "x" * (200 * 1024)

        async def script(message):
            return _reply(message, padding=padding)

        async def body(client, backend):
            response = await client.rpc({"op": "status"})
            return response, client._conn[1].transport.max_size

        response, max_size = asyncio.run(_with_backend(script, body))
        assert response["padding"] == padding
        assert max_size == READ_CHUNK_BYTES

    def test_an_unencodable_message_is_the_callers_error_not_a_lost_connection(self):
        async def script(message):
            return _reply(message)

        async def body(client, backend):
            await client.rpc({"op": "status"})
            with pytest.raises(ValueError):
                await client.rpc({"op": "probe", "ta": float("nan"), "tb": 1.0})
            return client.connected

        assert asyncio.run(_with_backend(script, body)) is True


class TestExits:
    def test_eof_instead_of_a_reply(self):
        async def script(message):
            return None if message["op"] == "cancel" else _reply(message)

        async def body(client, backend):
            with pytest.raises(ConnectionError):
                await client.rpc({"op": "cancel", "rid": 1})
            dropped = not client.connected
            # no retry inside the client: the failed cancel cost one
            # connection, and the next rpc opens a fresh one
            assert backend.connections == 1
            after = await client.rpc({"op": "status"})
            return dropped, after, backend.connections

        dropped, after, connections = asyncio.run(_with_backend(script, body))
        assert dropped
        assert after["op"] == "status" and connections == 2

    def test_reply_torn_mid_line(self):
        async def script(message):
            if message["op"] == "cancel":
                return b'{"ok": true, "op": "canc'
            return _reply(message)

        async def body(client, backend):
            with pytest.raises(ConnectionError, match="no usable reply to 'cancel'"):
                await client.rpc({"op": "cancel", "rid": 1})
            dropped = not client.connected
            after = await client.rpc({"op": "status"})
            return dropped, after

        dropped, after = asyncio.run(_with_backend(script, body))
        assert dropped and after["op"] == "status"

    def test_refused_connect(self):
        with socket.socket() as sock:  # a port nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]

        async def scenario():
            client = ServiceClient("127.0.0.1", port)
            with pytest.raises(ConnectionError):
                await client.rpc({"op": "status"})
            return client.connected

        assert asyncio.run(scenario()) is False

    def test_cancellation_between_write_and_read_leaves_no_stale_reply(self):
        """The abandoned exchange's reply is still on its way; were the
        connection kept, it would answer the next rpc verbatim."""

        async def script(message):
            if message.get("seq") == 1:
                await asyncio.sleep(0.3)  # beyond the caller's patience
            return _reply(message, seq=message.get("seq"))

        async def body(client, backend):
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    client.rpc({"op": "status", "seq": 1}), timeout=0.05
                )
            dropped = not client.connected
            after = await client.rpc({"op": "status", "seq": 2})
            return dropped, after, backend.connections

        dropped, after, connections = asyncio.run(_with_backend(script, body))
        assert dropped
        assert after["seq"] == 2  # its own reply, not the late seq-1 one
        assert connections == 2
