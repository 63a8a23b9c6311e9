"""Loadgen: shadow-ledger validation and an in-process end-to-end replay."""

import asyncio

import pytest

from repro.service.loadgen import (
    LoadgenConfig,
    OpenLoopPacer,
    ShadowLedger,
    request_source,
    run_loadgen,
)
from repro.service.server import accepted_checksum

from .harness import start_service


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

    def test_dump_load_round_trip(self, tmp_path):
        ledger = ShadowLedger()
        ledger.record(1, 0.0, 0.0, 10.0, [0, 1])
        ledger.record(2, 0.0, 10.0, 20.0, [0])
        path = tmp_path / "ledger.json"
        ledger.dump(str(path))
        reloaded = ShadowLedger.load(str(path))
        assert reloaded.checksum() == ledger.checksum()
        # the reloaded book still detects conflicts with preloaded entries
        reloaded.record(3, 0.0, 5.0, 15.0, [1])
        assert [v["kind"] for v in reloaded.violations] == ["double_booking"]


class TestOpenLoopPacer:
    def test_cumulative_schedule_bounds_total_drift(self):
        """10k sends where every sleep overshoots by 30% of the pacing
        interval (asyncio.sleep never undersleeps, and often overshoots).
        A relative sleep-1/rate pacer would finish ~3000 intervals late;
        the cumulative schedule repays each overshoot on the next send,
        so the replay's total wall-time error stays under one interval."""
        rate = 100.0
        interval = 1.0 / rate
        overshoot = 0.3 * interval
        clock = [0.0]
        pacer = OpenLoopPacer(rate, clock=lambda: clock[0])
        n = 10_000
        for _ in range(n):
            delay = pacer.delay()
            if delay > 0:
                clock[0] += delay + overshoot
            pacer.mark_sent()
        assert abs(clock[0] - n / rate) < interval

    def test_unpaced_run_never_sleeps(self):
        pacer = OpenLoopPacer(0.0)
        for _ in range(100):
            assert pacer.delay() == 0.0
            pacer.mark_sent()

    def test_anchor_survives_a_reconnect_stall(self):
        clock = [5.0]
        pacer = OpenLoopPacer(10.0, clock=lambda: clock[0])
        assert pacer.delay() == 0.0  # the first send is immediate
        pacer.mark_sent()
        clock[0] += 3.0  # a long reconnect stall: 30 sends behind schedule
        for _ in range(30):
            assert pacer.delay() == 0.0  # catch up, don't re-anchor
            pacer.mark_sent()
        assert pacer.delay() > 0.0  # caught up: pacing resumes


class TestRequestSource:
    def test_offset_and_limit_slice_the_stream(self):
        base = LoadgenConfig(workload="KTH", jobs=50, seed=7)
        full = [r.rid for r in request_source(base)]
        assert len(full) == 50
        sliced = LoadgenConfig(workload="KTH", jobs=50, seed=7, offset=10, limit=5)
        assert [r.rid for r in request_source(sliced)] == full[10:15]

    def test_same_seed_same_stream(self):
        a = [(r.rid, r.qr, r.lr, r.nr) for r in request_source(LoadgenConfig(jobs=30))]
        b = [(r.rid, r.qr, r.lr, r.nr) for r in request_source(LoadgenConfig(jobs=30))]
        assert a == b

    def test_swf_source(self, tmp_path):
        from repro.cli import main

        swf = tmp_path / "w.swf"
        assert main(["generate", "--jobs", "40", "--out", str(swf)]) == 0
        config = LoadgenConfig(swf=str(swf), limit=25)
        requests = list(request_source(config))
        assert len(requests) == 25


def test_replay_end_to_end_with_zero_violations(tmp_path):
    """150 synthetic requests over real TCP: every response validated
    against the shadow ledger, client and server checksums agree."""
    out = tmp_path / "report.json"

    async def scenario():
        service = await start_service(n_servers=64, tau=900.0, q_slots=96)
        config = LoadgenConfig(
            port=service.port,
            workload="KTH",
            jobs=150,
            seed=1,
            window=16,
            out=str(out),
            shutdown=True,
        )
        report = await run_loadgen(config)
        await service.wait_stopped()  # the shutdown op stopped the server
        return report

    report = asyncio.run(scenario())
    assert report["completed"] == report["requests"] == 150
    assert report["violations_total"] == 0
    assert report["accepted"] > 0
    assert report["accepted"] + report["rejected"] == 150
    assert report["server_status"]["accepted_checksum"] == report["accepted_checksum"]
    assert report["server_shutdown"]["accepted_checksum"] == report["accepted_checksum"]
    assert report["latency_ms"]["count"] == 150
    assert out.exists()


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

    async def scenario():
        monkeypatch.setattr(ReservationService, "_actor_apply_reserve", corrupted)
        service = await start_service(n_servers=8, tau=900.0, q_slots=96)
        config = LoadgenConfig(port=service.port, workload="KTH", jobs=40, seed=3)
        report = await run_loadgen(config)
        await service.stop()
        return report

    report = asyncio.run(scenario())
    assert report["violations_total"] > 0
    assert any(v["kind"] == "double_booking" for v in report["violations"])


def test_http_transport_matches_tcp_checksum(tmp_path):
    """The same replay through the HTTP front door (an in-process real
    Gateway) and through raw TCP yields the same accepted checksum and
    zero violations — the transport cannot change decisions."""
    from repro.gateway.app import Gateway, GatewayConfig

    async def tcp_run():
        service = await start_service(n_servers=16, tau=900.0, q_slots=96)
        report = await run_loadgen(
            LoadgenConfig(port=service.port, workload="KTH", jobs=120, seed=5)
        )
        await service.stop()
        return report

    async def http_run():
        service = await start_service(n_servers=16, tau=900.0, q_slots=96)
        gateway = Gateway(
            GatewayConfig(backend_port=service.port, rate=1e6, burst=1e6)
        )
        await gateway.start()
        report = await run_loadgen(
            LoadgenConfig(
                port=gateway.port, workload="KTH", jobs=120, seed=5,
                transport="http",
            )
        )
        await gateway.stop()
        await service.stop()
        return report

    via_tcp = asyncio.run(tcp_run())
    via_http = asyncio.run(http_run())
    assert via_http["completed"] == via_tcp["completed"] == 120
    assert via_http["violations_total"] == via_tcp["violations_total"] == 0
    assert via_http["accepted_checksum"] == via_tcp["accepted_checksum"]
    assert via_http["server_status"]["accepted_checksum"] == via_tcp["accepted_checksum"]
    assert via_http["config"]["transport"] == "http"
