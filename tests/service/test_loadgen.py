"""The shadow ledger, and the server behaviour only a replay witnesses.

The replays pipeline a seeded reserve stream over a real asyncio server
(``harness.rpc_all``) and book every accepted reply into a
:class:`ShadowLedger`; they check decisions, not speed
(``benchmarks/stack`` owns load, DESIGN.md §10).
"""

import asyncio

from repro.gateway.app import Gateway, GatewayConfig
from repro.gateway.http import http_request
from repro.service.loadgen import ShadowLedger
from repro.service.server import accepted_checksum
from repro.workloads.archive import generate_workload

from .harness import reserve_msg, rpc_all, start_service


class TestShadowLedger:
    def test_clean_bookings_pass(self):
        ledger = ShadowLedger()
        ledger.record(1, 0.0, 0.0, 10.0, [0, 1])
        ledger.record(2, 0.0, 10.0, 20.0, [0, 1])  # back-to-back is legal
        ledger.record(3, 0.0, 0.0, 10.0, [2])
        assert ledger.violations == []

    def test_double_booking_detected(self):
        ledger = ShadowLedger()
        ledger.record(1, 0.0, 0.0, 10.0, [0])
        ledger.record(2, 0.0, 5.0, 15.0, [0])
        assert [v["kind"] for v in ledger.violations] == ["double_booking"]
        assert "rid 1" in ledger.violations[0]["detail"]

    def test_overlap_on_any_server_is_flagged(self):
        ledger = ShadowLedger()
        ledger.record(1, 0.0, 0.0, 10.0, [0, 3])
        ledger.record(2, 0.0, 2.0, 4.0, [1, 3])  # clashes only on server 3
        assert [v["kind"] for v in ledger.violations] == ["double_booking"]

    def test_early_start_detected(self):
        ledger = ShadowLedger()
        ledger.record(1, sr=50.0, start=40.0, end=60.0, servers=[0])
        assert [v["kind"] for v in ledger.violations] == ["early_start"]

    def test_duplicate_accept_detected(self):
        ledger = ShadowLedger()
        ledger.record(1, 0.0, 0.0, 10.0, [0])
        ledger.record(1, 0.0, 20.0, 30.0, [1])
        assert [v["kind"] for v in ledger.violations] == ["duplicate_accept"]

    def test_checksum_matches_server_side_format(self):
        ledger = ShadowLedger()
        ledger.record(3, 0.0, 0.0, 10.0, [2, 0])
        ledger.record(1, 5.0, 5.0, 8.0, [1])
        decided = {
            1: {"ok": True, "start": 5.0, "end": 8.0, "servers": [1]},
            2: {"ok": False, "error": {"code": "REJECTED"}},  # rejects don't count
            3: {"ok": True, "start": 0.0, "end": 10.0, "servers": [0, 2]},
        }
        assert ledger.checksum() == accepted_checksum(decided)


def reserve_stream(jobs: int, seed: int) -> list[dict]:
    return [
        reserve_msg(r.rid, r.sr, r.lr, r.nr, qr=r.qr)
        for r in generate_workload("KTH", n_jobs=jobs, seed=seed)
    ]


def book(messages: list[dict], replies: list[dict]) -> ShadowLedger:
    """The client's view of a replay: every accepted reply, re-verified."""
    ledger = ShadowLedger()
    for message, reply in zip(messages, replies, strict=True):
        assert reply["rid"] == message["rid"]  # FIFO on one connection
        if reply["ok"]:
            ledger.record(
                message["rid"], message["sr"], reply["start"], reply["end"],
                reply["servers"],
            )
        else:
            assert reply["error"]["code"] == "REJECTED"
    return ledger


def test_replay_end_to_end_with_zero_violations():
    """150 pipelined requests over real TCP: every response validated
    against the shadow ledger, client and server checksums agree."""
    messages = reserve_stream(150, seed=1)

    async def scenario():
        service = await start_service(n_servers=64, tau=900.0, q_slots=96)
        *replies, status, shutdown = await rpc_all(
            service.port, *messages, {"op": "status"}, {"op": "shutdown"}
        )
        await service.wait_stopped()  # the shutdown op stopped the server
        return replies, status, shutdown

    replies, status, shutdown = asyncio.run(scenario())
    ledger = book(messages, replies)
    assert ledger.violations == []
    assert 0 < len(ledger.entries) < 150  # some accepted, some rejected
    assert status["accepted_checksum"] == ledger.checksum()
    assert shutdown["accepted_checksum"] == ledger.checksum()


def test_replay_flags_a_corrupted_server(monkeypatch):
    """If the server lies (hands out an overlapping window), the shadow
    ledger catches it — the validation is not trusting server state."""
    from repro.service.server import ReservationService

    original = ReservationService._actor_apply_reserve

    def corrupted(self, message):
        response = original(self, message)
        if response.get("ok") and message["rid"] % 2 == 1:
            response = dict(response, servers=[0])  # herd everyone onto server 0
        return response

    messages = reserve_stream(40, seed=3)

    async def scenario():
        monkeypatch.setattr(ReservationService, "_actor_apply_reserve", corrupted)
        service = await start_service(n_servers=8, tau=900.0, q_slots=96)
        replies = await rpc_all(service.port, *messages)
        await service.stop()
        return replies

    ledger = book(messages, asyncio.run(scenario()))
    assert any(v["kind"] == "double_booking" for v in ledger.violations)


def test_http_transport_matches_tcp_checksum():
    """The same replay through the HTTP front door (an in-process real
    Gateway) and through raw TCP yields the same accepted checksum and
    zero violations — the transport cannot change decisions."""
    messages = reserve_stream(120, seed=5)

    async def tcp_run():
        service = await start_service(n_servers=16, tau=900.0, q_slots=96)
        *replies, status = await rpc_all(service.port, *messages, {"op": "status"})
        await service.stop()
        return replies, status

    async def http_run():
        service = await start_service(n_servers=16, tau=900.0, q_slots=96)
        gateway = Gateway(GatewayConfig(backend_port=service.port, rate=1e6, burst=1e6))
        await gateway.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
        replies = [
            (await http_request(reader, writer, "POST", "/v1/reserve", message))[2]
            for message in messages
        ]
        _, _, status = await http_request(reader, writer, "GET", "/v1/status")
        writer.close()
        await gateway.stop()
        await service.stop()
        return replies, status

    tcp_replies, tcp_status = asyncio.run(tcp_run())
    http_replies, http_status = asyncio.run(http_run())
    via_tcp, via_http = book(messages, tcp_replies), book(messages, http_replies)
    assert via_tcp.violations == via_http.violations == []
    assert via_http.checksum() == via_tcp.checksum()
    assert http_status["accepted_checksum"] == tcp_status["accepted_checksum"]
    assert http_status["accepted_checksum"] == via_tcp.checksum()
