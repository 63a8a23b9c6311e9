"""ServiceClient: the one request/reply exchange, and its four exits.

Every production caller (gateway, follower, ``repro reserve`` /
``promote``) goes through :class:`repro.service.client.ServiceClient`,
so the failure rules are pinned here once instead of per caller: EOF, a
reply torn mid-line and a refused connect all surface as
``ConnectionError`` with the connection dropped, and an exchange
cancelled between write and read leaves no stale reply behind — each
once for ``rpc`` (one exchange in flight) and once for many.
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
            return response, client._link.writer.transport.max_size

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
        """The abandoned exchange's reply is still on its way; it is
        dropped when it arrives instead of answering the next rpc, and the
        connection — which other exchanges may share — is kept."""

        async def script(message):
            if message.get("seq") == 1:
                await asyncio.sleep(0.3)  # beyond the caller's patience
            return _reply(message, seq=message.get("seq"))

        async def body(client, backend):
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    client.rpc({"op": "status", "seq": 1}), timeout=0.05
                )
            kept = client.connected
            after = await client.rpc({"op": "status", "seq": 2})
            return kept, after, backend.connections

        kept, after, connections = asyncio.run(_with_backend(script, body))
        assert kept
        assert after["seq"] == 2  # its own reply, not the late seq-1 one
        assert connections == 1


class TestPipeline:
    """Many exchanges in flight on the one connection, answered FIFO."""

    def test_one_turns_submits_leave_in_one_write_and_resolve_in_order(self):
        async def script(message):
            return _reply(message, seq=message["seq"])

        async def body(client, backend):
            await client.rpc({"op": "status", "seq": -1})  # connected: writes are countable
            writer = client._link.writer
            writes = []
            real_write = writer.write
            writer.write = lambda data: (writes.append(data), real_write(data))
            waiters = [client.submit({"op": "status", "seq": i}) for i in range(50)]
            inflight = client.inflight
            lines = await asyncio.gather(*waiters)
            return writes, inflight, lines, client.inflight, backend.connections

        writes, inflight, lines, left, connections = asyncio.run(
            _with_backend(script, body)
        )
        assert len(writes) == 1 and writes[0].count(b"\n") == 50
        assert inflight == 50 and left == 0 and connections == 1
        # the raw reply lines, newline and all, each to its own waiter
        assert all(line.endswith(b"\n") for line in lines)
        assert [json.loads(line)["seq"] for line in lines] == list(range(50))

    def test_submits_before_the_connection_is_open_are_sent_once_it_is(self):
        async def script(message):
            return _reply(message, seq=message["seq"])

        async def body(client, backend):
            waiters = [client.submit({"op": "status", "seq": i}) for i in range(3)]
            assert not client.connected  # still connecting: nothing written yet
            return [json.loads(line)["seq"] for line in await asyncio.gather(*waiters)]

        assert asyncio.run(_with_backend(script, body)) == [0, 1, 2]

    def test_eof_after_j_of_k_replies_fails_the_rest_and_only_the_rest(self):
        async def script(message):
            return None if message["seq"] == 3 else _reply(message, seq=message["seq"])

        async def body(client, backend):
            waiters = [client.submit({"op": "status", "seq": i}) for i in range(8)]
            results = await asyncio.gather(*waiters, return_exceptions=True)
            dropped = not client.connected
            after = await client.rpc({"op": "status", "seq": 99})
            return results, dropped, after, backend.connections

        results, dropped, after, connections = asyncio.run(_with_backend(script, body))
        assert [json.loads(line)["seq"] for line in results[:3]] == [0, 1, 2]
        assert all(isinstance(result, ConnectionError) for result in results[3:])
        assert dropped
        assert after["seq"] == 99 and connections == 2

    def test_torn_line_fails_its_waiter_and_everyone_behind_it(self):
        async def script(message):
            if message["seq"] == 1:
                return b'{"ok": true, "op": "stat'
            return _reply(message, seq=message["seq"])

        async def body(client, backend):
            waiters = [client.submit({"op": "status", "seq": i}) for i in range(4)]
            return await asyncio.gather(*waiters, return_exceptions=True)

        results = asyncio.run(_with_backend(script, body))
        assert json.loads(results[0])["seq"] == 0
        assert all(isinstance(result, ConnectionError) for result in results[1:])
        assert "mid-reply" in str(results[1])

    def test_refused_connect_fails_every_waiter(self):
        with socket.socket() as sock:  # a port nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]

        async def scenario():
            client = ServiceClient("127.0.0.1", port)
            waiters = [client.submit({"op": "status"}) for _ in range(5)]
            results = await asyncio.gather(*waiters, return_exceptions=True)
            return results, client.connected, client.inflight

        results, connected, inflight = asyncio.run(scenario())
        assert all(isinstance(result, ConnectionError) for result in results)
        assert not connected and inflight == 0

    def test_a_cancelled_waiters_late_reply_is_dropped_not_handed_on(self):
        async def script(message):
            if message["seq"] == 1:
                await asyncio.sleep(0.1)  # answered long after its waiter left
            return _reply(message, seq=message["seq"])

        async def body(client, backend):
            waiters = [client.submit({"op": "status", "seq": i}) for i in range(4)]
            await waiters[0]
            waiters[1].cancel()
            rest = await asyncio.gather(*waiters[2:])
            return [json.loads(line)["seq"] for line in rest], client.connected, backend.connections

        seqs, connected, connections = asyncio.run(_with_backend(script, body))
        assert seqs == [2, 3]  # each its own reply, none shifted by one
        assert connected and connections == 1

    def test_close_fails_whoever_still_waits(self):
        async def script(message):
            await asyncio.sleep(1.0)
            return _reply(message)

        async def body(client, backend):
            waiters = [client.submit({"op": "status"}) for _ in range(3)]
            await asyncio.sleep(0.01)
            client.close()
            return await asyncio.gather(*waiters, return_exceptions=True)

        results = asyncio.run(_with_backend(script, body))
        assert all(isinstance(result, ConnectionError) for result in results)
