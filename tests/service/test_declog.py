"""Decision log: framing, rotation, recovery, compaction, and the
multi-segment == single-segment replay regression."""

import asyncio

from repro.service import server
from repro.service.declog import DecisionLog

from .harness import SMALL, reserve_msg, rpc, rpc_all, start_service


def _fill(log: DecisionLog, n: int) -> None:
    for i in range(1, n + 1):
        kind = "cancel" if i % 3 == 0 else "reserve"
        message = {"rid": i} if kind == "cancel" else {"rid": i, "sr": float(i), "lr": 1.0, "nr": 1}
        verdict = {"ok": i % 2 == 0}
        assert log.append(kind, message, verdict) == i


class TestDecisionLog:
    def test_append_tail_round_trip(self, tmp_path):
        log = DecisionLog(tmp_path)
        _fill(log, 10)
        records = log.tail(0, 100)
        assert [r["hwm"] for r in records] == list(range(1, 11))
        assert log.tail(7, 100) == records[7:]
        assert log.tail(10, 100) == []
        assert log.tail(3, 2) == records[3:5]

    def test_recovery_reads_every_segment(self, tmp_path):
        # tiny segments force rotation: recovery must stitch them back
        log = DecisionLog(tmp_path, segment_bytes=256)
        _fill(log, 30)
        assert len(list(tmp_path.glob("seg-*.log"))) > 1
        log.close()
        reopened = DecisionLog(tmp_path, segment_bytes=256)
        assert reopened.hwm == 30
        assert reopened.tail(0, 100) == log.tail(0, 100)

    def test_segment_size_never_changes_the_records(self, tmp_path):
        """Regression: a log rotated across many segments replays exactly
        like one big segment — rotation is invisible to followers."""
        many = DecisionLog(tmp_path / "many", segment_bytes=128)
        one = DecisionLog(tmp_path / "one", segment_bytes=1 << 30)
        _fill(many, 40)
        _fill(one, 40)
        many.close()
        one.close()
        many_r = DecisionLog(tmp_path / "many", segment_bytes=128)
        one_r = DecisionLog(tmp_path / "one")
        assert many_r.tail(0, 1000) == one_r.tail(0, 1000)
        assert many_r.hwm == one_r.hwm == 40

    def test_torn_tail_is_truncated_on_recovery(self, tmp_path):
        log = DecisionLog(tmp_path)
        _fill(log, 8)
        log.close()
        seg = sorted(tmp_path.glob("seg-*.log"))[-1]
        data = seg.read_bytes()
        seg.write_bytes(data[:-3])  # the last record dies mid-write
        reopened = DecisionLog(tmp_path)
        assert reopened.hwm == 7
        # appending after the truncation reuses hwm 8 cleanly
        assert reopened.append("cancel", {"rid": 99}, {"ok": False}) == 8
        assert reopened.tail(7, 10)[0]["message"] == {"rid": 99}

    def test_garbage_tail_is_truncated_on_recovery(self, tmp_path):
        log = DecisionLog(tmp_path)
        _fill(log, 5)
        log.close()
        seg = sorted(tmp_path.glob("seg-*.log"))[-1]
        with seg.open("ab") as fh:
            fh.write(b"\x00\x00\x01\x00" + b"not json" * 32)
        reopened = DecisionLog(tmp_path)
        assert reopened.hwm == 5
        assert len(reopened.tail(0, 100)) == 5

    def test_align_truncates_when_log_is_ahead_of_snapshot(self, tmp_path):
        log = DecisionLog(tmp_path)
        _fill(log, 10)
        log.align(6)  # restore from a snapshot taken at hwm 6
        assert log.hwm == 6
        assert [r["hwm"] for r in log.tail(0, 100)] == list(range(1, 7))

    def test_align_resets_when_log_is_behind_snapshot(self, tmp_path):
        log = DecisionLog(tmp_path)
        _fill(log, 3)
        log.align(50)  # the log lost history the snapshot already covers
        assert log.hwm == 50
        assert log.base == 50
        assert log.tail(0, 100) == []
        assert log.append("cancel", {"rid": 1}, {"ok": True}) == 51

    def test_compact_respects_slowest_follower(self, tmp_path):
        log = DecisionLog(tmp_path, segment_bytes=256)
        _fill(log, 30)
        before = len(list(tmp_path.glob("seg-*.log")))
        log.register_cursor("slow", 4)
        log.compact(25)  # snapshot covers 25, but a follower is at 4
        assert log.base <= 4
        assert log.tail(4, 100)[0]["hwm"] == 5
        log.forget_follower("slow")
        dropped = log.compact(25)
        assert dropped > 0
        assert len(list(tmp_path.glob("seg-*.log"))) < before
        # records past the compaction point survive, earlier ones are gone
        assert [r["hwm"] for r in log.tail(log.base, 100)] == list(
            range(log.base + 1, 31)
        )

    def test_dead_follower_cursor_expires_and_unpins_compaction(self, tmp_path):
        """A follower that stops polling must not hold segments forever:
        its cursor expires after cursor_ttl and compaction proceeds."""
        now = [0.0]
        log = DecisionLog(
            tmp_path, segment_bytes=256, cursor_ttl=60.0, clock=lambda: now[0]
        )
        _fill(log, 30)
        log.register_cursor("dead", 4)
        log.compact(25)  # a live cursor pins records 5.. in place...
        assert log.base <= 4
        assert log.tail(4, 1)[0]["hwm"] == 5
        assert log.summary()["followers"] == {"dead": 4}
        now[0] = 61.0  # ...but a TTL of silence forgets it
        assert log.compact(25) > 0
        assert log.base > 4
        assert log.summary()["followers"] == {}
        # a follower that keeps polling keeps its hold
        log2 = DecisionLog(
            tmp_path / "live", segment_bytes=256, cursor_ttl=60.0, clock=lambda: now[0]
        )
        _fill(log2, 30)
        log2.register_cursor("live", 4)
        now[0] += 59.0
        log2.register_cursor("live", 4)  # re-report inside the TTL
        now[0] += 59.0
        log2.compact(25)
        assert log2.base <= 4
        assert log2.tail(4, 1)[0]["hwm"] == 5

    def test_compact_never_drops_the_active_segment(self, tmp_path):
        log = DecisionLog(tmp_path)
        _fill(log, 10)
        log.compact(10)
        assert len(list(tmp_path.glob("seg-*.log"))) == 1
        assert log.append("cancel", {"rid": 11}, {"ok": True}) == 11


class TestServerLogIntegration:
    def test_log_tail_op_streams_decisions(self, tmp_path):
        async def scenario():
            service = await start_service(**SMALL, log_dir=str(tmp_path / "log"))
            port = service.port
            await rpc_all(
                port,
                reserve_msg(1, 0.0, 10.0, 1),
                reserve_msg(2, 0.0, 10.0, 1),
                {"op": "cancel", "rid": 1},
                {"op": "cancel", "rid": 77},  # NOT_FOUND cancels are logged too
                reserve_msg(1, 0.0, 10.0, 1),  # replay: NOT logged again
            )
            tail = await rpc(port, {"op": "log_tail", "cursor": 0})
            status = await rpc(port, {"op": "status"})
            await service.stop()
            return tail, status

        tail, status = asyncio.run(scenario())
        assert tail["ok"] and tail["hwm"] == 4
        kinds = [r["kind"] for r in tail["records"]]
        assert kinds == ["reserve", "reserve", "cancel", "cancel"]
        assert status["log"]["hwm"] == 4

    def test_log_tail_without_log_is_malformed(self):
        async def scenario():
            service = await start_service(**SMALL)
            response = await rpc(service.port, {"op": "log_tail", "cursor": 0})
            await service.stop()
            return response

        response = asyncio.run(scenario())
        assert not response["ok"]
        assert response["error"]["code"] == "MALFORMED"

    def test_snapshot_compacts_and_restart_aligns(self, tmp_path, monkeypatch):
        """snapshot -> compact; restart-from-snapshot -> aligned log that
        keeps appending with the same numbering."""
        log_dir = tmp_path / "log"
        snap = tmp_path / "snap.json"
        monkeypatch.setattr(server, "LOG_SEGMENT_BYTES", 256)

        async def phase1():
            service = await start_service(
                **SMALL, log_dir=str(log_dir), snapshot_path=str(snap)
            )
            port = service.port
            for rid in range(1, 9):
                await rpc(port, reserve_msg(rid, 0.0, 10.0, 1))
            response = await rpc(port, {"op": "snapshot"})
            shutdown = await rpc(port, {"op": "shutdown"})
            await service.wait_stopped()
            return response, shutdown

        snapshot_response, shutdown = asyncio.run(phase1())
        monkeypatch.undo()  # the restarted service rotates at the default size
        assert snapshot_response["ok"]
        assert "log_compacted" in snapshot_response

        async def phase2():
            service = await start_service(
                **SMALL, log_dir=str(log_dir), snapshot_path=str(snap)
            )
            port = service.port
            before = await rpc(port, {"op": "status"})
            await rpc(port, reserve_msg(100, 0.0, 10.0, 1))
            after = await rpc(port, {"op": "status"})
            await service.stop()
            return before, after

        before, after = asyncio.run(phase2())
        assert before["restored"]
        assert after["log"]["hwm"] == before["log"]["hwm"] + 1
        assert after["accepted_checksum"] != ""

    def test_multi_segment_replay_equals_single_segment(self, tmp_path, monkeypatch):
        """The same op sequence through tiny segments and one huge segment
        produces byte-identical log records and checksums."""

        async def run(log_dir, segment_bytes):
            monkeypatch.setattr(server, "LOG_SEGMENT_BYTES", segment_bytes)
            service = await start_service(**SMALL, log_dir=str(log_dir))
            port = service.port
            for rid in range(1, 25):
                await rpc(port, reserve_msg(rid, float(rid % 5), 10.0, 1))
                if rid % 4 == 0:
                    await rpc(port, {"op": "cancel", "rid": rid - 1})
            tail = await rpc(port, {"op": "log_tail", "cursor": 0, "limit": 512})
            status = await rpc(port, {"op": "status"})
            await service.stop()
            return tail, status

        tail_small, status_small = asyncio.run(run(tmp_path / "small", 200))
        tail_big, status_big = asyncio.run(run(tmp_path / "big", 1 << 30))
        assert len(list((tmp_path / "small").glob("seg-*.log"))) > 1
        assert len(list((tmp_path / "big").glob("seg-*.log"))) == 1
        assert tail_small["records"] == tail_big["records"]
        assert (
            status_small["accepted_checksum"] == status_big["accepted_checksum"]
        )
