"""The HTTP front door: routing, auth, rate limits, verbatim proxying.

Everything runs in one process and one event loop: a real
:class:`~repro.service.server.ReservationService` behind a real
:class:`~repro.gateway.app.Gateway`, exercised through the stdlib
HTTP client in :func:`repro.gateway.http.http_request`.
"""

import asyncio
import json

from repro.errors import BusyError
from repro.gateway.app import Gateway, GatewayConfig
from repro.gateway.http import format_retry_after, http_request

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


async def fetch_metrics(port):
    """GET /metrics as text (it is Prometheus exposition, not JSON)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    length = next(
        int(line.split(":")[1])
        for line in head.decode().split("\r\n")
        if line.lower().startswith("content-length")
    )
    text = (await reader.readexactly(length)).decode()
    writer.close()
    return text


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
    raw_head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
    status = int(raw_head.split(" ")[1])
    length = next(
        int(line.split(":")[1])
        for line in raw_head.split("\r\n")
        if line.lower().startswith("content-length")
    )
    return status, json.loads(await reader.readexactly(length))


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
        """A /metrics status probe that hits status_timeout abandons the
        exchange between write and readline.  The connection must be
        dropped with it: otherwise the late status reply stays buffered
        and answers the *next* client rpc verbatim."""

        async def scenario():
            async def backend(reader, writer):
                try:
                    while True:
                        raw = await reader.readline()
                        if not raw:
                            break
                        message = json.loads(raw)
                        if message["op"] == "status":
                            await asyncio.sleep(0.4)  # beyond status_timeout
                        writer.write(
                            json.dumps({"ok": True, "op": message["op"]}).encode()
                            + b"\n"
                        )
                        await writer.drain()
                except (ConnectionError, OSError):
                    pass  # the gateway dropped us mid-answer: expected
                finally:
                    writer.close()

            server, backend_port = await start_fake_backend(backend)
            gateway = Gateway(
                GatewayConfig(backend_port=backend_port, status_timeout=0.05)
            )
            await gateway.start()
            # warm the pooled connection, then force the abandoned probe
            first = await http(gateway.port, "POST", "/v1/probe", {"ta": 0.0, "tb": 1.0})
            metrics = await fetch_metrics(gateway.port)
            after = await http(gateway.port, "POST", "/v1/probe", {"ta": 0.0, "tb": 1.0})
            await gateway.stop()
            server.close()
            await server.wait_closed()
            return first, metrics, after

        first, metrics, after = asyncio.run(scenario())
        assert first[0] == 200 and first[2]["op"] == "probe"
        assert "repro_gateway_backend_up 0" in metrics
        # without the invalidation this body would be the stale status reply
        assert after[0] == 200 and after[2]["op"] == "probe"

    def test_cancel_is_never_retried_but_reserve_is(self):
        """A half-dead pooled connection: reserve retries through a fresh
        connection (rid-keyed exactly-once), but cancel surfaces 502 —
        retrying could launder an applied cancel into NOT_FOUND."""

        async def scenario():
            async def one_shot_backend(reader, writer):
                # answer exactly one op, then drop the connection: the
                # gateway's next exchange on the pooled socket sees EOF
                try:
                    raw = await reader.readline()
                    if raw:
                        message = json.loads(raw)
                        writer.write(
                            json.dumps({"ok": True, "op": message["op"]}).encode()
                            + b"\n"
                        )
                        await writer.drain()
                finally:
                    writer.close()

            server, backend_port = await start_fake_backend(one_shot_backend)
            gateway = Gateway(GatewayConfig(backend_port=backend_port))
            await gateway.start()
            warm = await http(gateway.port, "POST", "/v1/probe", {"ta": 0.0, "tb": 1.0})
            retried = await http(
                gateway.port, "POST", "/v1/reserve", reserve_msg(1, 0.0, 5.0, 1)
            )
            # the retry's fresh connection answered one op, so the pool
            # is half-dead again when the cancel arrives
            failed = await http(gateway.port, "POST", "/v1/cancel", {"rid": 1})
            recovered = await http(
                gateway.port, "POST", "/v1/probe", {"ta": 0.0, "tb": 1.0}
            )
            await gateway.stop()
            server.close()
            await server.wait_closed()
            return warm, retried, failed, recovered

        warm, retried, failed, recovered = asyncio.run(scenario())
        assert warm[0] == 200
        assert retried[0] == 200 and retried[2]["op"] == "reserve"
        assert failed[0] == 502
        assert failed[2]["error"]["code"] == "BACKEND_DOWN"
        assert recovered[0] == 200 and recovered[2]["op"] == "probe"

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

        async def scenario():
            service, gateway = await start_stack()

            shed = BusyError("admission queue full", retry_after=1.75)

            async def busy_backend(message):
                return {"ok": False, "op": message["op"], "error": shed.payload()}

            gateway._backend_rpc = busy_backend
            response = await http(
                gateway.port, "POST", "/v1/reserve", reserve_msg(1, 0.0, 5.0, 1)
            )
            await gateway.stop()
            await service.stop()
            return response, shed.payload()

        (status, headers, body), tcp_payload = asyncio.run(scenario())
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
        assert 'repro_service_accepted_total' in text
        assert 'repro_gateway_request_seconds{quantile="0.5"}' in text
