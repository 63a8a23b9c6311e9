"""The HTTP front door: routing, auth, rate limits, verbatim proxying.

Everything runs in one process and one event loop: a real
:class:`~repro.service.server.ReservationService` behind a real
:class:`~repro.gateway.app.Gateway`, exercised through the stdlib
HTTP client in :func:`repro.gateway.http.http_request`.
"""

import asyncio
import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    BusyError,
    ConflictError,
    MalformedRequestError,
    NotFoundError,
    RejectedError,
    ShuttingDownError,
    error_payload,
)
from repro.gateway.app import PIPELINE_DEPTH, Gateway, GatewayConfig, _Exchange
from repro.gateway.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpError,
    RequestBuffer,
    format_retry_after,
    http_request,
    read_request,
)
from repro.service.protocol import ProtocolError, encode

from ..service.harness import (
    SMALL,
    ScriptedBackend,
    reserve_msg,
    rpc,
    start_fake_backend,
    start_service,
)


async def start_stack(service_overrides=None, **gateway_overrides):
    """Boot service + gateway; returns (service, gateway)."""
    service = await start_service(**(service_overrides or SMALL))
    gateway = Gateway(
        GatewayConfig(backend_port=service.port, **gateway_overrides)
    )
    await gateway.start()
    return service, gateway


async def http(port, method, path, body=None, headers=()):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await http_request(reader, writer, method, path, body, headers)
    finally:
        writer.close()


async def read_response(reader):
    """One response off the stream: ``(status, lower-cased headers, body bytes)``."""
    lines = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return int(lines[0].split(" ")[1]), headers, body


def post_bytes(path: str, message: dict, version: str = "HTTP/1.1", headers=()) -> bytes:
    """One POST as the bytes a client puts on the wire."""
    body = json.dumps(message).encode()
    head = [f"POST {path} {version}", "Host: repro", f"Content-Length: {len(body)}"]
    head.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


async def fetch_metrics(port):
    """GET /metrics as text (it is Prometheus exposition, not JSON)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
    await writer.drain()
    _, _, body = await read_response(reader)
    writer.close()
    return body.decode()


async def settled(read, quiet: float = 0.15):
    """``read()`` once it has stopped changing for ``quiet`` seconds."""
    value = read()
    while True:
        await asyncio.sleep(quiet)
        if read() == value:
            return value
        value = read()


class TestRouting:
    def test_healthz_and_unknown_routes(self):
        async def scenario():
            service, gateway = await start_stack()
            health = await http(gateway.port, "GET", "/healthz")
            missing = await http(gateway.port, "GET", "/v1/nope")
            wrong_method = await http(gateway.port, "GET", "/v1/reserve")
            status_post = await http(gateway.port, "POST", "/v1/status", body={})
            await gateway.stop()
            await service.stop()
            return health, missing, wrong_method, status_post

        health, missing, wrong_method, status_post = asyncio.run(scenario())
        assert health[0] == 200 and health[2]["ok"] is True
        assert missing[0] == 404
        assert wrong_method[0] == 405
        assert status_post[0] == 405

    def test_keep_alive_serves_many_requests_per_connection(self):
        async def scenario():
            service, gateway = await start_stack()
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            statuses = []
            for rid in range(1, 6):
                status, _, body = await http_request(
                    reader, writer, "POST", "/v1/reserve",
                    reserve_msg(rid, 0.0, 5.0, 1),
                )
                statuses.append((status, body["ok"]))
            writer.close()
            await gateway.stop()
            await service.stop()
            return statuses

        statuses = asyncio.run(scenario())
        assert all(status == 200 for status, _ in statuses)


async def raw_post(reader, writer, path: str, payload: bytes):
    """POST bytes the stdlib encoder refuses to produce (``Infinity``)."""
    head = f"POST {path} HTTP/1.1\r\nHost: repro\r\nContent-Length: {len(payload)}\r\n\r\n"
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()
    status, _, body = await read_response(reader)
    return status, json.loads(body)


class TestProxySemantics:
    def test_non_finite_numbers_are_a_400_and_the_connection_is_kept(self):
        async def scenario():
            service, gateway = await start_stack()
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            answers = [
                await raw_post(reader, writer, path, payload)
                for path, payload in (
                    ("/v1/reserve", b'{"rid":2,"sr":0,"lr":Infinity,"nr":1}'),
                    ("/v1/reserve", b'{"rid":2,"sr":0,"lr":5,"nr":1,"qr":NaN}'),
                    ("/v1/probe", b'{"ta":0,"tb":Infinity}'),
                    ("/v1/admin/scale", b'{"action":"add_servers","count":1,"qr":Infinity}'),
                )
            ]
            # ``seq`` is passed through unchecked: unencodable, so refused here
            unsendable = await raw_post(reader, writer, "/v1/probe", b'{"ta":0,"tb":5,"seq":NaN}')
            # same connection, next request served; nothing reached the backend
            served = await http_request(
                reader, writer, "POST", "/v1/reserve", reserve_msg(2, 0.0, 5.0, 1)
            )
            status = await rpc(service.port, {"op": "status"})
            writer.close()
            await gateway.stop()
            await service.stop()
            return answers, unsendable, served, status

        answers, unsendable, served, status = asyncio.run(scenario())
        for code, body in answers:
            assert code == 400 and body["error"]["code"] == "MALFORMED"
            assert "finite" in body["error"]["message"]
        assert unsendable[0] == 400 and unsendable[1]["error"]["code"] == "MALFORMED"
        assert served[0] == 200 and served[2]["ok"]
        assert status["decided"] == 1 and status["metrics"]["malformed"] == 0

    def test_an_over_deep_body_is_a_400_and_the_connection_is_kept(self):
        """A body under the size cap can nest deeper than the JSON parser
        recurses; its ``RecursionError`` used to kill the connection."""
        deep = b'{"ta":0,"tb":5,"seq":' + b"[" * 20_000 + b"]" * 20_000 + b"}"

        async def scenario():
            service, gateway = await start_stack()
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            refused = await asyncio.wait_for(
                raw_post(reader, writer, "/v1/probe", deep), timeout=10.0
            )
            served = await asyncio.wait_for(
                http_request(reader, writer, "GET", "/v1/status"), timeout=10.0
            )
            writer.close()
            await gateway.stop()
            await service.stop()
            return refused, served

        (code, body), served = asyncio.run(scenario())
        assert code == 400 and body["error"]["code"] == "MALFORMED"
        assert "nested too deeply" in body["error"]["message"]
        assert served[0] == 200 and served[2]["ok"]

    def test_gateway_and_tcp_answer_identically(self):
        """The HTTP body is the backend's NDJSON response verbatim: the
        same op via the gateway and via raw TCP yields the same JSON."""

        async def scenario():
            # two identical services, one fronted, one raw
            fronted, gateway = await start_stack()
            raw = await start_service(**SMALL)
            pairs = []
            for message in (
                reserve_msg(1, 0.0, 10.0, 1),
                reserve_msg(2, 0.0, 10.0, 2),
                {"op": "probe", "ta": 0.0, "tb": 10.0},
                {"op": "cancel", "rid": 1},
                {"op": "cancel", "rid": 999},
                reserve_msg(2, 0.0, 10.0, 2),  # replay of rid 2
            ):
                _, _, via_http = await http(
                    gateway.port, "POST", f"/v1/{message['op']}", message
                )
                via_tcp = await rpc(raw.port, message)
                pairs.append((via_http, via_tcp))
            status_http = await http(gateway.port, "GET", "/v1/status")
            status_tcp = await rpc(raw.port, {"op": "status"})
            await gateway.stop()
            await fronted.stop()
            await raw.stop()
            return pairs, status_http[2], status_tcp

        pairs, status_http, status_tcp = asyncio.run(scenario())
        for via_http, via_tcp in pairs:
            assert via_http == via_tcp
        assert status_http["accepted_checksum"] == status_tcp["accepted_checksum"]

    def test_error_codes_map_to_http_statuses(self):
        async def scenario():
            service, gateway = await start_stack()
            results = {}
            # MALFORMED: missing required fields
            results["malformed"] = await http(
                gateway.port, "POST", "/v1/reserve", {"rid": 1}
            )
            # MALFORMED: unknown field (registry strictness, not a 2nd schema)
            results["unknown_field"] = await http(
                gateway.port, "POST", "/v1/reserve",
                {**reserve_msg(5, 0.0, 5.0, 1), "bogus": True},
            )
            # op in the body disagreeing with the endpoint is malformed too
            results["op_mismatch"] = await http(
                gateway.port, "POST", "/v1/cancel", reserve_msg(6, 0.0, 5.0, 1)
            )
            # NOT_FOUND: cancel of an unknown rid
            results["not_found"] = await http(
                gateway.port, "POST", "/v1/cancel", {"rid": 404}
            )
            # non-JSON body
            results["not_json"] = await http(
                gateway.port, "POST", "/v1/reserve", ["not", "an", "object"]
            )
            await gateway.stop()
            await service.stop()
            return results

        results = asyncio.run(scenario())
        assert results["malformed"][0] == 400
        assert results["malformed"][2]["error"]["code"] == "MALFORMED"
        assert results["unknown_field"][0] == 400
        assert results["op_mismatch"][0] == 400
        assert results["not_found"][0] == 404
        assert results["not_found"][2]["error"]["code"] == "NOT_FOUND"
        assert results["not_json"][0] == 400

    def test_dead_backend_is_502(self):
        async def scenario():
            service, gateway = await start_stack()
            await service.stop()  # kill the backend under the gateway
            response = await http(
                gateway.port, "POST", "/v1/reserve", reserve_msg(1, 0.0, 5.0, 1)
            )
            await gateway.stop()
            return response

        status, _, body = asyncio.run(scenario())
        assert status == 502
        assert body["error"]["code"] == "BACKEND_DOWN"


class TestBackendConnection:
    """The shared multiplexed backend connection: cancellation hygiene
    and the per-op retry policy."""

    def test_metrics_timeout_does_not_poison_the_connection(self):
        """A /metrics status probe that hits status_timeout is abandoned,
        the backend connection — which every HTTP client shares — is not:
        the late status reply is dropped when it arrives instead of
        answering the *next* request verbatim."""

        async def scenario():
            async def script(message):
                if message["op"] == "status":
                    await asyncio.sleep(0.4)  # beyond status_timeout
                return encode({"ok": True, "op": message["op"]})

            backend = ScriptedBackend(script)
            server, backend_port = await start_fake_backend(backend.handle)
            gateway = Gateway(
                GatewayConfig(backend_port=backend_port, status_timeout=0.05)
            )
            await gateway.start()
            first = await http(gateway.port, "POST", "/v1/probe", {"ta": 0.0, "tb": 1.0})
            metrics = await fetch_metrics(gateway.port)
            after = await http(gateway.port, "POST", "/v1/probe", {"ta": 0.0, "tb": 1.0})
            await gateway.stop()
            server.close()
            await server.wait_closed()
            return first, metrics, after, backend.connections

        first, metrics, after, connections = asyncio.run(scenario())
        assert first[0] == 200 and first[2]["op"] == "probe"
        assert "repro_gateway_backend_up 0" in metrics
        # the abandoned probe is still unanswered when the page is rendered
        assert "repro_gateway_backend_inflight 1" in metrics
        # were the late reply handed on, this body would be the status reply
        assert after[0] == 200 and after[2]["op"] == "probe"
        assert connections == 1

    def test_cancel_is_never_retried_but_reserve_is(self):
        """A backend connection that dies with a request on it: reserve is
        resent through a fresh connection (rid-keyed exactly-once), but
        cancel surfaces 502 — resending could launder an applied cancel
        into NOT_FOUND."""

        async def scenario():
            connections = 0

            async def one_answer_backend(reader, writer):
                # answers one op, reads the next and drops without a word:
                # that op may or may not have been applied
                nonlocal connections
                connections += 1
                try:
                    raw = await reader.readline()
                    if raw:
                        writer.write(encode({"ok": True, "op": json.loads(raw)["op"]}))
                        await writer.drain()
                        await reader.readline()
                finally:
                    writer.close()

            server, backend_port = await start_fake_backend(one_answer_backend)
            gateway = Gateway(GatewayConfig(backend_port=backend_port))
            await gateway.start()
            warm = await http(gateway.port, "POST", "/v1/probe", {"ta": 0.0, "tb": 1.0})
            retried = await http(
                gateway.port, "POST", "/v1/reserve", reserve_msg(1, 0.0, 5.0, 1)
            )
            cost_of_reserve = connections
            # the resend was the fresh connection's one answer, so the
            # cancel is read and dropped too
            failed = await http(gateway.port, "POST", "/v1/cancel", {"rid": 1})
            cost_of_cancel = connections - cost_of_reserve
            recovered = await http(
                gateway.port, "POST", "/v1/probe", {"ta": 0.0, "tb": 1.0}
            )
            await gateway.stop()
            server.close()
            await server.wait_closed()
            return warm, retried, failed, recovered, cost_of_reserve, cost_of_cancel

        warm, retried, failed, recovered, cost_of_reserve, cost_of_cancel = asyncio.run(
            scenario()
        )
        assert warm[0] == 200
        assert retried[0] == 200 and retried[2]["op"] == "reserve"
        assert cost_of_reserve == 2  # the warm one, and the resend's
        assert failed[0] == 502
        assert failed[2]["error"]["code"] == "BACKEND_DOWN"
        assert cost_of_cancel == 0  # never resent
        assert recovered[0] == 200 and recovered[2]["op"] == "probe"

    def test_connection_lost_with_k_in_flight_resends_in_order_exactly_once(self):
        """The backend answers j of k pipelined requests and closes: the
        j are answered, every unanswered retriable request is resent once
        — in its original order — a cancel is 502, and the HTTP client
        still reads k responses in request order."""

        async def scenario():
            received: list[list[dict]] = []

            async def lossy_backend(reader, writer):
                mine: list[dict] = []
                received.append(mine)
                first = len(received) == 1
                try:
                    while raw := await reader.readline():
                        mine.append(json.loads(raw))
                        if first and len(mine) > 3:
                            break  # three answered, the rest lost with the connection
                        reply = {"ok": True, "op": mine[-1]["op"], "seq": mine[-1]["seq"]}
                        writer.write(encode(reply))
                        await writer.drain()
                finally:
                    writer.close()

            server, backend_port = await start_fake_backend(lossy_backend)
            gateway = Gateway(GatewayConfig(backend_port=backend_port))
            await gateway.start()
            ops = ["reserve", "probe", "reserve", "reserve", "cancel", "probe", "reserve", "cancel", "reserve"]
            requests = []
            for seq, op in enumerate(ops):
                message = {
                    "reserve": reserve_msg(seq, 0.0, 5.0, 1),
                    "probe": {"ta": 0.0, "tb": 1.0},
                    "cancel": {"rid": seq},
                }[op]
                requests.append(post_bytes(f"/v1/{op}", {**message, "seq": seq}))
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.write(b"".join(requests))
            responses = [await read_response(reader) for _ in ops]
            writer.close()
            await gateway.stop()
            server.close()
            await server.wait_closed()
            return ops, responses, received

        ops, responses, received = asyncio.run(scenario())
        bodies = [json.loads(body) for _, _, body in responses]
        for seq, (op, (status, _, _), body) in enumerate(zip(ops, responses, bodies)):
            assert body["op"] == op  # request order, through the loss
            if op == "cancel" and seq >= 3:
                assert status == 502 and body["error"]["code"] == "BACKEND_DOWN"
            else:
                assert status == 200 and body["seq"] == seq
        # the fresh connection saw the unanswered retriable requests, each
        # once, in the order the client sent them — and no cancel
        assert [m["seq"] for m in received[1]] == [3, 5, 6, 8]
        assert len(received) == 2

    def test_a_second_loss_is_502_for_every_request_it_cost(self):
        async def scenario():
            received: list[dict] = []
            connections = 0

            async def dead_backend(reader, writer):
                nonlocal connections
                connections += 1
                raw = await reader.readline()  # read one, answer none
                if raw:
                    received.append(json.loads(raw))
                writer.close()

            server, backend_port = await start_fake_backend(dead_backend)
            gateway = Gateway(GatewayConfig(backend_port=backend_port))
            await gateway.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.write(
                b"".join(
                    post_bytes("/v1/reserve", reserve_msg(rid, 0.0, 5.0, 1))
                    for rid in (1, 2, 3)
                )
            )
            responses = [await read_response(reader) for _ in range(3)]
            writer.close()
            await gateway.stop()
            server.close()
            await server.wait_closed()
            return responses, received, connections

        responses, received, connections = asyncio.run(scenario())
        assert [status for status, _, _ in responses] == [502, 502, 502]
        # the original send, then each request's one resend, in order
        assert [m["rid"] for m in received] == [1, 1, 2, 3]
        assert connections == 4

    def _torn_reply_scenario(self, request):
        """Run ``request(gateway_port)`` against a backend that dies
        mid-reply on every connection, then one probe once it has healed.
        Returns ``(response, connections the request cost, healed probe)``."""

        async def scenario():
            healed = False

            async def script(message):
                if not healed:
                    return b'{"ok": true, "op": "canc'  # torn mid-JSON
                return json.dumps({"ok": True, "op": message["op"]}).encode() + b"\n"

            backend = ScriptedBackend(script)
            server, backend_port = await start_fake_backend(backend.handle)
            gateway = Gateway(GatewayConfig(backend_port=backend_port))
            await gateway.start()
            response = await request(gateway.port)
            cost = backend.connections
            healed = True
            after = await http(gateway.port, "POST", "/v1/probe", {"ta": 0.0, "tb": 1.0})
            await gateway.stop()
            server.close()
            await server.wait_closed()
            return response, cost, after

        return asyncio.run(scenario())

    def test_torn_cancel_reply_is_502_without_a_retry(self):
        """A backend that dies mid-reply owes the HTTP client a 502, not a
        dropped connection (an undecodable line is a lost connection)."""
        failed, cost, after = self._torn_reply_scenario(
            lambda port: http(port, "POST", "/v1/cancel", {"rid": 1})
        )
        assert failed[0] == 502
        assert failed[2]["error"]["code"] == "BACKEND_DOWN"
        assert cost == 1  # a cancel may have applied: never resent
        assert after[0] == 200 and after[2]["op"] == "probe"

    def test_torn_reserve_reply_retries_once_then_502(self):
        failed, cost, after = self._torn_reply_scenario(
            lambda port: http(port, "POST", "/v1/reserve", reserve_msg(1, 0.0, 5.0, 1))
        )
        assert failed[0] == 502
        assert failed[2]["error"]["code"] == "BACKEND_DOWN"
        assert cost == 2  # one resend, on a fresh connection
        assert after[0] == 200 and after[2]["op"] == "probe"

    def test_torn_status_reply_reads_as_backend_down_on_metrics(self):
        metrics, _, after = self._torn_reply_scenario(fetch_metrics)
        assert "repro_gateway_backend_up 0" in metrics
        assert after[0] == 200 and after[2]["op"] == "probe"


class HeldBackend:
    """Reads and counts every line at once; answers — in order, each
    padded to ``padding`` bytes — only once ``release`` is set."""

    def __init__(self, padding: int = 0) -> None:
        self.received = 0
        self.release = asyncio.Event()
        self.padding = "x" * padding

    async def handle(self, reader, writer):
        lines: asyncio.Queue = asyncio.Queue()
        answering = asyncio.create_task(self._answer(lines, writer))
        try:
            while raw := await reader.readline():
                self.received += 1
                lines.put_nowait(json.loads(raw))
        except (ConnectionError, OSError):
            pass
        finally:
            answering.cancel()
            writer.close()

    async def _answer(self, lines, writer):
        while True:
            message = await lines.get()
            await self.release.wait()
            reply = {"ok": True, "op": message["op"], "seq": message.get("seq")}
            writer.write(encode({**reply, "padding": self.padding}))
            await writer.drain()


class TestPipelining:
    """Many requests in flight per HTTP connection, answered in order."""

    def test_a_burst_comes_back_in_order_and_reaches_the_actor_as_batches(self):
        async def scenario():
            service, gateway = await start_stack()
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.write(
                b"".join(
                    post_bytes("/v1/reserve", reserve_msg(rid, 0.0, 5.0, 1))
                    for rid in range(1, PIPELINE_DEPTH + 1)
                )
            )
            responses = [await read_response(reader) for _ in range(PIPELINE_DEPTH)]
            writer.close()
            status = await rpc(service.port, {"op": "status"})
            await gateway.stop()
            await service.stop()
            return responses, status

        responses, status = asyncio.run(scenario())
        assert all(code == 200 for code, _, _ in responses)  # grants and rejections
        rids = [json.loads(body)["rid"] for _, _, body in responses]
        assert rids == list(range(1, PIPELINE_DEPTH + 1))
        assert status["decided"] == PIPELINE_DEPTH
        # one exchange at a time would be one op per actor turn
        assert status["metrics"]["mean_batch"] > 1

    def test_two_connections_interleaved_each_get_their_own_replies(self):
        async def scenario():
            service, gateway = await start_stack()
            a = await asyncio.open_connection("127.0.0.1", gateway.port)
            b = await asyncio.open_connection("127.0.0.1", gateway.port)
            for i in range(20):
                a[1].write(post_bytes("/v1/reserve", reserve_msg(100 + i, 0.0, 5.0, 1)))
                b[1].write(post_bytes("/v1/reserve", reserve_msg(200 + i, 0.0, 5.0, 1)))
                if i % 5 == 0:
                    await asyncio.sleep(0)  # let some leave before the rest are written
            rids = []
            for reader, writer in (a, b):
                bodies = [json.loads((await read_response(reader))[2]) for _ in range(20)]
                rids.append([body["rid"] for body in bodies])
                writer.close()
            await gateway.stop()
            await service.stop()
            return rids

        rids_a, rids_b = asyncio.run(scenario())
        assert rids_a == [100 + i for i in range(20)]
        assert rids_b == [200 + i for i in range(20)]

    def test_a_client_that_never_reads_holds_depth_requests_and_nobody_elses(self):
        """The slow reader: A pipelines ten times the depth and never
        reads a byte.  The gateway stops reading A at the depth; B, on
        its own connection, is served throughout."""

        async def scenario():
            backend = HeldBackend(padding=32 * 1024)
            server, backend_port = await start_fake_backend(backend.handle)
            gateway = Gateway(
                GatewayConfig(backend_port=backend_port, status_timeout=0.05)
            )
            await gateway.start()
            # a small fixed receive buffer: the kernel cannot absorb the
            # responses A does not read
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", gateway.port))
            _, a_writer = await asyncio.open_connection(sock=sock)
            a_writer.write(
                b"".join(
                    post_bytes("/v1/probe", {"ta": 0.0, "tb": 1.0, "seq": seq})
                    for seq in range(10 * PIPELINE_DEPTH)
                )
            )
            # nothing answered yet: exactly the depth reaches the backend
            held = await settled(lambda: backend.received)
            b_reader, b_writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            b_writer.write(post_bytes("/v1/probe", {"ta": 0.0, "tb": 1.0, "seq": "b-1"}))
            with_b = await settled(lambda: backend.received)
            metrics = await fetch_metrics(gateway.port)  # its probe times out behind A's
            backend.release.set()
            b_first = await asyncio.wait_for(read_response(b_reader), timeout=10)
            # answered now, but A still does not read: the gateway takes one
            # more of A's requests for each response the kernel's socket
            # buffers take (a few MB at most), and then stops again
            flooded = await settled(lambda: backend.received)
            b_writer.write(post_bytes("/v1/probe", {"ta": 0.0, "tb": 1.0, "seq": "b-2"}))
            b_second = await asyncio.wait_for(read_response(b_reader), timeout=10)
            a_writer.close()
            b_writer.close()
            await gateway.stop()
            server.close()
            await server.wait_closed()
            return held, with_b, metrics, b_first, flooded, b_second

        held, with_b, metrics, b_first, flooded, b_second = asyncio.run(scenario())
        assert held == PIPELINE_DEPTH
        assert with_b == PIPELINE_DEPTH + 1  # B is let through while A is stopped
        # A's, B's, and the scrape's own abandoned probe
        assert f"repro_gateway_backend_inflight {PIPELINE_DEPTH + 2}" in metrics
        assert b_first[0] == 200 and json.loads(b_first[2])["seq"] == "b-1"
        assert flooded < 10 * PIPELINE_DEPTH  # never A's whole backlog (18 MB of replies)
        assert b_second[0] == 200 and json.loads(b_second[2])["seq"] == "b-2"

    def test_proxied_bodies_are_the_backends_bytes(self):
        """Verbatim is literal: the body is the reply line minus its
        newline, whatever its spacing or key order — only the status and
        headers are the gateway's."""
        shed = BusyError("admission queue full", retry_after=0.25)
        rejection = {"code": "REJECTED", "exit_code": 3, "reason": "no_capacity", "attempts": 2}
        lines = {
            1: b'{"servers": [0, 1],  "ok": true, "op": "reserve", "rid": 1}\n',
            2: encode({"ok": False, "op": "reserve", "rid": 2, "error": rejection}),
            3: encode({"ok": False, "op": "reserve", "rid": 3, "error": shed.payload()}),
        }

        async def scenario():
            async def script(message):
                return lines[message["rid"]]

            server, backend_port = await start_fake_backend(ScriptedBackend(script).handle)
            gateway = Gateway(GatewayConfig(backend_port=backend_port))
            await gateway.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            writer.write(
                b"".join(
                    post_bytes("/v1/reserve", reserve_msg(rid, 0.0, 5.0, 1)) for rid in lines
                )
            )
            responses = [await read_response(reader) for _ in lines]
            writer.close()
            await gateway.stop()
            server.close()
            await server.wait_closed()
            return responses

        granted, rejected, busy = asyncio.run(scenario())
        assert (granted[0], granted[2]) == (200, lines[1][:-1])
        assert (rejected[0], rejected[2]) == (200, lines[2][:-1])
        assert (busy[0], busy[2]) == (429, lines[3][:-1])
        assert busy[1]["retry-after"] == format_retry_after(0.25)
        assert "retry-after" not in granted[1] and "retry-after" not in rejected[1]


class TestHttpVersions:
    """Who closes: HTTP/1.1 persists unless asked not to, HTTP/1.0 closes
    unless asked not to, and the response header says which."""

    @pytest.mark.parametrize(
        "version, header, persists",
        [
            ("HTTP/1.1", None, True),
            ("HTTP/1.1", "close", False),
            ("HTTP/1.0", None, False),  # hung until PR 23: the close never came
            ("HTTP/1.0", "keep-alive", True),
        ],
    )
    def test_connection_persistence(self, version, header, persists):
        headers = (("Connection", header),) if header else ()

        async def scenario():
            service, gateway = await start_stack()
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            request = post_bytes("/v1/probe", {"ta": 0.0, "tb": 1.0}, version, headers)
            writer.write(request)
            first = await asyncio.wait_for(read_response(reader), timeout=5)
            if persists:
                writer.write(request)
                rest = await asyncio.wait_for(read_response(reader), timeout=5)
            else:
                rest = await asyncio.wait_for(reader.read(), timeout=5)  # to EOF
            writer.close()
            await gateway.stop()
            await service.stop()
            return first, rest

        first, rest = asyncio.run(scenario())
        assert first[0] == 200
        if persists:
            assert first[1]["connection"] == "keep-alive"
            assert rest[0] == 200
        else:
            assert first[1]["connection"] == "close"
            assert rest == b""


class TestAuth:
    def test_token_table_gates_requests_and_labels_tenants(self, tmp_path):
        tokens = tmp_path / "tokens"
        tokens.write_text("s3cret:alice\n")

        async def scenario():
            service, gateway = await start_stack(token_file=str(tokens))
            denied = await http(
                gateway.port, "POST", "/v1/reserve", reserve_msg(1, 0.0, 5.0, 1)
            )
            wrong = await http(
                gateway.port, "POST", "/v1/reserve", reserve_msg(1, 0.0, 5.0, 1),
                headers=(("Authorization", "Bearer wrong"),),
            )
            granted = await http(
                gateway.port, "POST", "/v1/reserve", reserve_msg(1, 0.0, 5.0, 1),
                headers=(("Authorization", "Bearer s3cret"),),
            )
            metrics = await fetch_metrics(gateway.port)
            await gateway.stop()
            await service.stop()
            return denied, wrong, granted, metrics

        denied, wrong, granted, metrics = asyncio.run(scenario())
        assert denied[0] == 401
        assert "bearer" in denied[1]["www-authenticate"].lower()
        assert wrong[0] == 401
        assert granted[0] == 200 and granted[2]["ok"]
        # authenticated traffic is attributed to its tenant in the metrics
        assert 'tenant="alice"' in metrics
        assert 'reason="unauthorized"' in metrics


class TestAdminScale:
    def test_scale_endpoint_statuses_bodies_and_labels(self, tmp_path):
        """``POST /v1/admin/scale`` resolves ``action`` to the wire op and
        is otherwise the standard op path: edge errors raised before the
        action is known are labelled ``scale``, later ones carry the wire
        op, verdicts pass through verbatim, and a request is counted —
        as ``scale:<action>`` — only once its action is known."""
        tokens = tmp_path / "tokens"
        tokens.write_text("s3cret:ops\n")
        auth = (("Authorization", "Bearer s3cret"),)

        async def scenario():
            service, gateway = await start_stack(token_file=str(tokens))
            results = {}

            async def scale(body, headers=auth):
                return await http(
                    gateway.port, "POST", "/v1/admin/scale", body, headers=headers
                )

            results["denied"] = await scale({"action": "drain", "server": 0}, ())
            results["no_action"] = await scale({"count": 1})
            results["bad_action"] = await scale({"action": "status"})
            results["bad_field"] = await scale({"action": "drain", "count": 1})
            results["grow"] = await scale(
                {"action": "add_servers", "count": 2, "aid": "grow-1"}
            )
            results["grow_again"] = await scale(
                {"action": "add_servers", "count": 2, "aid": "grow-1"}
            )
            results["conflict"] = await scale({"action": "remove", "server": 0})
            results["get"] = await http(
                gateway.port, "GET", "/v1/admin/scale", headers=auth
            )
            results["pool"] = await http(
                gateway.port, "GET", "/v1/admin/pool", headers=auth
            )
            via_tcp = await rpc(
                service.port, {"op": "add_servers", "count": 2, "aid": "grow-1"}
            )
            metrics = await fetch_metrics(gateway.port)
            await gateway.stop()
            await service.stop()
            return results, via_tcp, metrics

        results, via_tcp, metrics = asyncio.run(scenario())
        assert results["denied"][0] == 401
        assert results["denied"][2]["op"] == "scale"
        for early in ("no_action", "bad_action"):
            status, _, body = results[early]
            assert status == 400 and body["op"] == "scale"
            assert body["error"]["code"] == "MALFORMED"
            assert "scale action must be one of" in body["error"]["message"]
        status, _, body = results["bad_field"]
        assert status == 400 and body["op"] == "drain"
        assert "unknown field 'count'" in body["error"]["message"]
        assert results["grow"][0] == 200
        assert results["grow"][2]["servers"] == [2, 3]
        assert results["grow_again"][2]["replayed"] is True
        assert results["grow_again"][2] == via_tcp  # the backend's body, verbatim
        assert results["conflict"][0] == 409
        assert results["conflict"][2]["error"]["code"] == "CONFLICT"
        assert results["get"][0] == 405
        assert results["pool"][2]["total"] == 4
        assert 'requests_total{endpoint="scale:add_servers",tenant="ops"} 2' in metrics
        assert 'requests_total{endpoint="scale:drain",tenant="ops"} 1' in metrics
        assert 'requests_total{endpoint="scale:remove",tenant="ops"} 1' in metrics
        assert 'endpoint="scale"' not in metrics  # never a label of its own
        assert 'rejects_total{reason="malformed",tenant="ops"} 3' in metrics
        assert 'repro_gateway_replayed_total{tenant="ops"} 1' in metrics


class TestRateLimit:
    def test_burst_429s_carry_the_buckets_own_retry_after(self):
        """Satellite: one back-off source. Under a 10x-burst flood every
        429's Retry-After header must equal the JSON body's retry_after
        rendered through format_retry_after — never a second estimate."""

        async def scenario():
            service, gateway = await start_stack(rate=50.0, burst=10.0)
            responses = []
            for rid in range(1, 101):  # 10x the burst capacity
                responses.append(
                    await http(
                        gateway.port, "POST", "/v1/probe", {"ta": 0.0, "tb": 1.0}
                    )
                )
            await gateway.stop()
            await service.stop()
            return responses

        responses = asyncio.run(scenario())
        limited = [r for r in responses if r[0] == 429]
        assert limited, "a 10x burst must trip the per-tenant bucket"
        for _, headers, body in limited:
            assert body["error"]["code"] == "BUSY"
            retry_after = body["error"]["retry_after"]
            assert retry_after > 0.0
            assert headers["retry-after"] == format_retry_after(retry_after)
            # RFC 9110: the header is integer delta-seconds, never 0
            assert headers["retry-after"].isdigit()
            assert int(headers["retry-after"]) >= 1

    def test_proxied_busy_reuses_the_admission_controllers_estimate(self):
        """A backend BUSY (admission shed) becomes 429 with Retry-After
        equal to the controller's own retry_after — the TCP and HTTP
        front doors advertise the same back-off for the same overload."""
        shed = BusyError("admission queue full", retry_after=1.75)

        async def scenario():
            async def script(message):
                return encode({"ok": False, "op": message["op"], "error": shed.payload()})

            server, backend_port = await start_fake_backend(ScriptedBackend(script).handle)
            gateway = Gateway(GatewayConfig(backend_port=backend_port))
            await gateway.start()
            response = await http(
                gateway.port, "POST", "/v1/reserve", reserve_msg(1, 0.0, 5.0, 1)
            )
            await gateway.stop()
            server.close()
            await server.wait_closed()
            return response

        status, headers, body = asyncio.run(scenario())
        tcp_payload = shed.payload()
        assert status == 429
        # byte-identical to what the TCP client sees in the BUSY error...
        assert body["error"] == tcp_payload
        # ...and the header is that same number through the one formatter
        assert headers["retry-after"] == format_retry_after(
            tcp_payload["retry_after"]
        )
        # 1.75 s rounds *up* to RFC 9110 integer delta-seconds
        assert headers["retry-after"] == "2"

    def test_status_and_health_are_never_rate_limited(self):
        async def scenario():
            service, gateway = await start_stack(rate=50.0, burst=1.0)
            for _ in range(20):
                status = await http(gateway.port, "GET", "/v1/status")
                health = await http(gateway.port, "GET", "/healthz")
                assert status[0] == 200 and health[0] == 200
            await gateway.stop()
            await service.stop()

        asyncio.run(scenario())


class TestMetrics:
    def test_metrics_expose_gateway_and_service_series(self):
        async def scenario():
            service, gateway = await start_stack()
            for rid in range(1, 4):
                await http(
                    gateway.port, "POST", "/v1/reserve", reserve_msg(rid, 0.0, 5.0, 1)
                )
            text = await fetch_metrics(gateway.port)
            await gateway.stop()
            await service.stop()
            return text

        text = asyncio.run(scenario())
        assert (
            'repro_gateway_requests_total{endpoint="reserve",tenant="anonymous"} 3'
            in text
        )
        assert "# TYPE repro_gateway_requests_total counter" in text
        assert "repro_gateway_backend_up 1" in text
        assert "# TYPE repro_gateway_backend_inflight gauge" in text
        assert "repro_gateway_backend_inflight 0" in text  # sampled after its own probe
        assert 'repro_service_accepted_total' in text
        assert 'repro_gateway_request_seconds{quantile="0.5"}' in text


# ----------------------------------------------------------------------
# which reply lines the gateway decodes
# ----------------------------------------------------------------------

#: the error-code -> status table the gateway documents, written out
#: here so a drift in ``app._STATUS_FOR`` shows
DOCUMENTED_STATUS = {
    "MALFORMED": 400,
    "NOT_FOUND": 404,
    "CONFLICT": 409,
    "REJECTED": 200,
    "BUSY": 429,
    "SHUTTING_DOWN": 503,
}


def decoded_reply(line: bytes):
    """The answer to ``line`` from a gateway that decodes every reply:
    ``(status, body, Retry-After or None, replays counted, busy counted)``."""
    response = json.loads(line)
    if response.get("ok"):
        return 200, line[:-1], None, int(bool(response.get("replayed"))), 0
    error = response.get("error") or {}
    status = DOCUMENTED_STATUS.get(error.get("code"), 500)
    retry_after = None
    if status == 429 and error.get("retry_after") is not None:
        retry_after = format_retry_after(float(error["retry_after"]))
    return status, line[:-1], retry_after, 0, int(status == 429)


_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | st.sampled_from(['"ok":false', '"ok":true', '"replayed":true', "ok", "replayed"])
)
_keys = st.sampled_from(["ok", "replayed", "error", "code", "retry_after"]) | st.text(max_size=6)
#: a ``seq`` the backend echoes untouched: anything JSON, often nesting
#: ``ok``/``replayed`` keys and strings that look like them
_seqs = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_keys, children, max_size=3),
    max_leaves=10,
)
_rids = st.integers(0, 10**6)
_times = st.floats(0, 1e6, allow_nan=False)


def _granted(rid, start, servers):
    return {
        "ok": True, "op": "reserve", "rid": rid, "start": start, "end": start + 5.0,
        "servers": servers, "attempts": 1, "delay": 0.0,
    }


def _error(op, exc, **fields):
    return {"ok": False, "op": op, **fields, "error": error_payload(exc)}


_shapes = st.one_of(
    st.builds(_granted, _rids, _times, st.lists(st.integers(0, 63), max_size=4)),
    st.builds(
        lambda rid, start: {**_granted(rid, start, [0]), "replayed": True}, _rids, _times
    ),
    st.builds(
        lambda rid, attempts, replayed: {
            **_error("reserve", RejectedError("no capacity", "no_capacity", attempts), rid=rid),
            **({"replayed": True} if replayed else {}),
        },
        _rids, st.integers(1, 30), st.booleans(),
    ),
    st.builds(
        lambda rid: _error("reserve", MalformedRequestError("lr must be positive"), rid=rid),
        _rids,
    ),
    st.builds(
        lambda periods: {"count": len(periods), "ok": True, "op": "probe", "periods": periods},
        st.lists(st.tuples(st.integers(0, 63), _times, _times | st.none()).map(list), max_size=6),
    ),
    st.just(_error("probe", ProtocolError("probe: field 'tb' must be a finite number"))),
    st.builds(lambda rid: {"ok": True, "op": "cancel", "rid": rid}, _rids),
    st.builds(
        lambda rid: _error("cancel", NotFoundError(f"no active reservation {rid}"), rid=rid),
        _rids,
    ),
    st.builds(
        lambda op, retry_after: _error(op, BusyError("admission queue full", retry_after)),
        st.sampled_from(["reserve", "probe", "cancel"]),
        st.floats(0, 100, allow_nan=False),
    ),
    st.builds(
        lambda op: _error(op, ShuttingDownError("draining")),
        st.sampled_from(["reserve", "probe", "cancel", "status"]),
    ),
    st.just(_error("add_servers", ConflictError("server 0 is draining"))),
)


@st.composite
def backend_replies(draw):
    reply = draw(_shapes)
    if draw(st.booleans()):
        reply["seq"] = draw(_seqs)
    return reply


class TestReplyClassification:
    """A reply is decoded only when it may be an error or a replay; the
    answer is the one a gateway that decodes every reply gives."""

    @settings(max_examples=400, deadline=None)
    @given(reply=backend_replies())
    def test_the_answer_equals_the_decoding_reference(self, reply):
        gateway = Gateway(GatewayConfig())
        line = encode(reply)
        exchange = _Exchange(reply["op"], "acme", {"op": reply["op"]}, None)
        answer = gateway._reply_for(exchange, line)
        status, body, retry_after, replayed, busy = decoded_reply(line)
        assert (answer.status, answer.body) == (status, body)
        assert dict(answer.headers).get("Retry-After") == retry_after
        assert gateway.replayed_total.value(tenant="acme") == replayed
        assert gateway.rejects_total.value(tenant="acme", reason="busy") == busy
        assert gateway.rejects_total.value(tenant="acme", reason="backend_down") == 0

    def test_a_burst_of_successes_decodes_no_reply_line(self, monkeypatch):
        """A pipelined burst of success replies is answered with no
        ``json.loads`` of a reply line; the replay behind it is the one
        line decoded (so the spy sees the gateway's decodes)."""
        ops = ["reserve", "probe", "cancel"] * (PIPELINE_DEPTH // 3)
        replies = []
        for seq, op in enumerate(ops):
            reply = {"ok": True, "op": op, "seq": seq}
            if op == "probe":
                reply.update(count=1, periods=[[0, 0.0, None]])
            replies.append(encode(reply))
        replay = encode({**_granted(7, 0.0, [0]), "replayed": True})
        replies.append(replay)
        sent = set(replies)
        decoded = []
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            if isinstance(text, bytes) and text in sent:
                decoded.append(text)
            return loads(text, *args, **kwargs)

        async def scenario():
            async def script(message):
                return replies[message["seq"]]

            server, backend_port = await start_fake_backend(ScriptedBackend(script).handle)
            gateway = Gateway(GatewayConfig(backend_port=backend_port))
            await gateway.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
            requests = [
                post_bytes(
                    f"/v1/{op}",
                    {
                        "reserve": reserve_msg(seq, 0.0, 5.0, 1),
                        "probe": {"ta": 0.0, "tb": 1.0},
                        "cancel": {"rid": seq},
                    }[op] | {"seq": seq},
                )
                for seq, op in enumerate(ops)
            ]
            requests.append(post_bytes("/v1/reserve", reserve_msg(7, 0.0, 5.0, 1, seq=len(ops))))
            with monkeypatch.context() as patch:
                patch.setattr(json, "loads", counting_loads)
                writer.write(b"".join(requests))
                responses = [await read_response(reader) for _ in requests]
            writer.close()
            await gateway.stop()
            server.close()
            await server.wait_closed()
            return responses, gateway

        responses, gateway = asyncio.run(scenario())
        assert decoded == [replay]
        assert [(code, body) for code, _, body in responses] == [
            (200, line[:-1]) for line in replies
        ]
        assert gateway.replayed_total.value(tenant="anonymous") == 1


# ----------------------------------------------------------------------
# framing: a read's requests parsed from one buffer
# ----------------------------------------------------------------------

#: two good requests a framing error may sit behind
VALID = (
    post_bytes("/v1/probe", {"ta": 0.0, "tb": 1.0})
    + b"GET /healthz HTTP/1.1\r\nHost: repro\r\n\r\n"
)
VALID_PARSED = [
    ("POST", "/v1/probe", b'{"ta": 0.0, "tb": 1.0}'),
    ("GET", "/healthz", b""),
]

#: each framing error, the bytes that cause it and the status it is answered with
FRAMING_ERRORS = {
    "request line": (b"GARBAGE\r\n\r\n", 400),
    "request version": (b"GET /healthz HTTP/2.0\r\n\r\n", 400),
    "header line": (b"GET /healthz HTTP/1.1\r\nNoColonHere\r\n\r\n", 400),
    "chunked": (
        b"POST /v1/probe HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        411,
    ),
    "no length": (b"POST /v1/probe HTTP/1.1\r\nHost: repro\r\n\r\n{}", 411),
    "bad length": (b"POST /v1/probe HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
    "negative length": (b"POST /v1/probe HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    "body too large": (
        b"POST /v1/probe HTTP/1.1\r\nContent-Length: %d\r\n\r\n{" % (MAX_BODY_BYTES + 1),
        413,
    ),
    "head too large": (
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEADER_BYTES + b"\r\n\r\n",
        431,
    ),
    "eof mid-head": (b"POST /v1/probe HTTP/1.1\r\nContent-Le", 400),
    "eof mid-body": (b'POST /v1/probe HTTP/1.1\r\nContent-Length: 30\r\n\r\n{"ta":0', 400),
}


def frame(chunks):
    """Requests framed from ``chunks`` as they arrive, then the EOF:
    ``([(method, path, body), ...], status of the error that ended it or None)``."""
    buffer = RequestBuffer()
    parsed = []
    try:
        for chunk in chunks:
            buffer.feed(chunk)
            while (request := buffer.next_request()) is not None:
                parsed.append((request.method, request.path, request.body))
        buffer.eof()
    except HttpError as exc:
        return parsed, exc.status
    return parsed, None


def frame_stream(data):
    """The same bytes through the stream parser :func:`read_request`."""

    async def scenario():
        reader = asyncio.StreamReader(limit=MAX_BODY_BYTES)
        reader.feed_data(data)
        reader.feed_eof()
        parsed = []
        try:
            while (request := await read_request(reader)) is not None:
                parsed.append((request.method, request.path, request.body))
        except HttpError as exc:
            return parsed, exc.status
        return parsed, None

    return asyncio.run(scenario())


class TestFraming:
    def test_valid_requests_frame_across_every_split(self):
        assert frame([VALID]) == (VALID_PARSED, None)
        for cut in range(1, len(VALID)):
            assert frame([VALID[:cut], VALID[cut:]]) == (VALID_PARSED, None), cut
        assert frame([bytes([byte]) for byte in VALID]) == (VALID_PARSED, None)

    @pytest.mark.parametrize("case", sorted(FRAMING_ERRORS))
    def test_each_error_keeps_its_status_across_every_split(self, case):
        bad, status = FRAMING_ERRORS[case]
        data = VALID + bad
        expected = (VALID_PARSED, status)
        assert frame([data]) == expected
        assert frame_stream(data) == expected
        assert frame([bad]) == ([], status)
        for cut in range(1, len(data)):
            assert frame([data[:cut], data[cut:]]) == expected, cut
        assert frame([bytes([byte]) for byte in data]) == expected

    def test_a_read_ending_on_a_request_boundary_is_a_clean_eof(self):
        assert frame([VALID, b""]) == (VALID_PARSED, None)
        assert frame_stream(VALID) == (VALID_PARSED, None)

    def test_errors_behind_valid_requests_answer_in_order_and_close(self):
        """Over a socket: the valid requests and the bad one in one write,
        then the bad one split over two writes; the valid ones are
        answered, the bad one with its status, and the connection closes."""

        async def scenario():
            async def script(message):
                return encode({"ok": True, "op": message["op"]})

            server, backend_port = await start_fake_backend(ScriptedBackend(script).handle)
            gateway = Gateway(GatewayConfig(backend_port=backend_port))
            await gateway.start()
            results = {}
            for case, (bad, _) in sorted(FRAMING_ERRORS.items()):
                for cut in (None, len(bad) // 2):
                    reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
                    if cut is None:
                        writer.write(VALID + bad)
                    else:
                        writer.write(VALID + bad[:cut])
                        await writer.drain()
                        await asyncio.sleep(0.02)  # the rest arrives in a later read
                        writer.write(bad[cut:])
                    if case.startswith("eof"):
                        writer.write_eof()
                    answered = [await read_response(reader) for _ in range(3)]
                    rest = await asyncio.wait_for(reader.read(), timeout=5)
                    writer.close()
                    results[case, cut] = (
                        [code for code, _, _ in answered],
                        answered[-1][1]["connection"],
                        rest,
                    )
            await gateway.stop()
            server.close()
            await server.wait_closed()
            return results

        results = asyncio.run(scenario())
        for (case, _), (codes, connection, rest) in results.items():
            assert codes == [200, 200, FRAMING_ERRORS[case][1]], case
            assert connection == "close" and rest == b"", case
