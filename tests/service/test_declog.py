"""Decision log: framing, rotation, recovery, compaction, the
multi-segment == single-segment replay regression, group commit,
records assembled from wire bytes, ``log_tail`` serving them as on disk,
memory that does not grow with the log, and restart as replay of the log."""

import asyncio
import gc
import json
import shutil
import tracemalloc
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.follower import Follower, FollowerConfig
from repro.service import server
from repro.service.batching import drain_batch
from repro.service.declog import DecisionLog
from repro.service.protocol import MAX_LINE_BYTES, WIRE_ENCODER, encode
from repro.service.server import LOG_TAIL_LIMIT, ReservationService, ServiceConfig
from repro.service.snapshot import read_snapshot, snapshot_bytes
from repro.service.state import ReplicationDivergenceError, ReplicationGapError

from .harness import SMALL, reserve_msg, rpc, rpc_all, start_service


def _fill(log: DecisionLog, n: int) -> None:
    for i in range(1, n + 1):
        kind = "cancel" if i % 3 == 0 else "reserve"
        message = {"rid": i} if kind == "cancel" else {"rid": i, "sr": float(i), "lr": 1.0, "nr": 1}
        verdict = {"ok": i % 2 == 0}
        assert log.append(kind, message, verdict) == i
    log.flush()


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
        assert reopened.tail(7, 10) == []  # served once committed
        reopened.flush()
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

    def test_align_keeps_a_log_ahead_of_the_snapshot(self, tmp_path):
        log = DecisionLog(tmp_path)
        _fill(log, 10)
        log.align(6)  # restore from a snapshot taken at hwm 6: 7..10 replay
        assert log.hwm == 10
        assert [r["hwm"] for r in log.tail(0, 100)] == list(range(1, 11))

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


# ----------------------------------------------------------------------
# group commit: one write, one flush and one JSON encode per batch
# ----------------------------------------------------------------------


class SpyHandle:
    """A segment handle that records its calls and can fail on demand.

    ``fail[name]`` true makes that call raise before it does anything;
    ``fail["write"] == "half"`` makes a write put the first half of its
    bytes on disk, then raise.
    """

    def __init__(self, handle, events, fail):
        self.handle, self.events, self.fail = handle, events, fail

    def _call(self, name, *args):
        self.events.append(name)
        if self.fail.get(name) == "half":
            (data,) = args
            self.handle.write(data[: len(data) // 2])
            self.handle.flush()
        if self.fail.get(name):
            raise OSError(28, "No space left on device")
        return getattr(self.handle, name)(*args)

    def write(self, data):
        return self._call("write", data)

    def flush(self):
        return self._call("flush")

    def tell(self):
        return self.handle.tell()

    def close(self):
        self.handle.close()


def spy_on_segments(monkeypatch, events, fail=None):
    """Wrap every segment handle the log opens in a :class:`SpyHandle`."""
    fail = {} if fail is None else fail
    open_segment = DecisionLog._open_segment

    def spying(self, first_hwm):
        open_segment(self, first_hwm)
        self._active = SpyHandle(self._active, events, fail)

    monkeypatch.setattr(DecisionLog, "_open_segment", spying)
    return fail


def payloads_on_disk(log_dir):
    """Every frame's payload the segment files hold right now, as bytes."""
    payloads = []
    for path in sorted(log_dir.glob("seg-*.log")):
        raw = path.read_bytes()
        offset = 0
        while offset + 4 <= len(raw):
            length = int.from_bytes(raw[offset : offset + 4], "big")
            payloads.append(raw[offset + 4 : offset + 4 + length])
            offset += 4 + length
    return payloads


def records_on_disk(log_dir):
    """Every record the segment files hold right now, parsed as written."""
    return [json.loads(payload) for payload in payloads_on_disk(log_dir)]


def strict_json(line):
    """``line`` parsed as strict JSON: ``NaN`` and ``Infinity`` refused."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(line, parse_constant=refuse)


class CountingReader:
    """A segment opened for reading that counts the bytes read from it."""

    def __init__(self, handle, counts):
        self.handle, self.counts = handle, counts

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def read(self, size=-1):
        data = self.handle.read(size)
        self.counts.append(len(data))
        return data

    def seek(self, *args):
        return self.handle.seek(*args)


class RecordingWriter:
    """A connection's StreamWriter: checks the log before each reply write."""

    def __init__(self, log_dir, events):
        self.log_dir, self.events, self.replies = log_dir, events, []

    def write(self, data):
        self.events.append("reply")
        on_disk = {r["message"]["rid"] for r in records_on_disk(self.log_dir)}
        for line in data.splitlines():
            reply = json.loads(line)
            if reply["op"] in ("reserve", "cancel"):
                assert reply["rid"] in on_disk, f"rid {reply['rid']} replied first"
            self.replies.append(reply)

    async def drain(self):
        pass

    def close(self):
        pass


class ReplyWriter:
    """A connection's StreamWriter that keeps the replies it is given."""

    def __init__(self):
        self.replies = []

    def write(self, data):
        self.replies += [json.loads(line) for line in data.splitlines()]

    async def drain(self):
        pass

    def close(self):
        pass


def fresh_writes(n):
    """``n`` fresh write ops: reserves (granted, rejected, malformed) and cancels."""
    ops = []
    for rid in range(1, n + 1):
        if rid % 4 == 0:
            ops.append({"op": "cancel", "rid": rid - 1 if rid % 8 else 999})
        elif rid % 5 == 0:
            ops.append(reserve_msg(rid, 0.0, -1.0, 1))  # MALFORMED
        else:
            ops.append(reserve_msg(rid, float(rid % 3), 10.0, 1 + rid % 2, seq=rid))
    return ops


async def drive_actor(service, messages, writer):
    """Queue ``messages`` before the actor starts, let it answer them, stop it.

    The queue is full when the actor starts, so the messages are one
    batch whatever the machine's speed, and the connection writer runs
    as soon as the actor waits for more.
    """
    loop = asyncio.get_running_loop()
    responses = asyncio.Queue()
    writer_task = asyncio.create_task(service._connection_writer(writer, responses))
    for message in messages:
        future = loop.create_future()
        service._ingest(encode(message), future)
        responses.put_nowait(future)
    responses.put_nowait(None)
    actor = asyncio.create_task(service._actor_loop())
    await asyncio.wait_for(writer_task, 10.0)
    await service.stop()
    await actor


class TestGroupCommit:
    N = 24

    def test_a_batch_is_one_write_and_one_flush_before_any_reply(
        self, tmp_path, monkeypatch
    ):
        events = []
        spy_on_segments(monkeypatch, events)
        log_dir = tmp_path / "log"

        async def scenario():
            service = ReservationService(ServiceConfig(**SMALL, log_dir=str(log_dir)))
            writer = RecordingWriter(log_dir, events)
            await drive_actor(service, fresh_writes(self.N), writer)
            return service, writer

        service, writer = asyncio.run(scenario())
        assert events == ["write", "flush", "reply"]
        assert service._log.commits == 1 and service._log.hwm == self.N
        assert len(writer.replies) == self.N
        assert [r["ok"] for r in writer.replies].count(True) > 0

    def test_one_json_encode_per_fresh_write(self, tmp_path, monkeypatch):
        """A count, not a clock: the reply is the only JSON the actor encodes.

        The record reuses the request line and the reply's bytes, so a
        second encode per decision (of the record, or of the reply in the
        connection writer) fails this.  Every encode goes through the
        shared ``protocol.WIRE_ENCODER``, none through ``json.dumps``; the
        spy sits on its class's ``encode``, the one entry point.
        """
        messages = fresh_writes(self.N)

        async def scenario():
            service = ReservationService(
                ServiceConfig(**SMALL, log_dir=str(tmp_path / "log"))
            )
            loop = asyncio.get_running_loop()
            for message in messages:
                service._ingest(encode(message), loop.create_future())
            batch = await drain_batch(service._queue, len(messages))
            calls = {"dumps": 0, "encode": 0}
            dumps, encoder = json.dumps, type(WIRE_ENCODER).encode

            def counting_dumps(*args, **kwargs):
                calls["dumps"] += 1
                return dumps(*args, **kwargs)

            def counting_encode(self, obj):
                calls["encode"] += 1
                return encoder(self, obj)

            with monkeypatch.context() as patch:
                patch.setattr(json, "dumps", counting_dumps)
                patch.setattr(type(WIRE_ENCODER), "encode", counting_encode)
                service._actor_batch(batch)
            return service, batch, calls

        service, batch, calls = asyncio.run(scenario())
        assert service._log.hwm == len(messages)
        assert all(future.done() for *_, future in batch)
        assert calls == {"dumps": 0, "encode": len(messages)}

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_a_failed_commit_answers_internal_and_stops_the_server(
        self, tmp_path, monkeypatch, failing
    ):
        """A verdict never leaves without its record, and the server does
        not run on with decisions its disk may lack: it stops without a
        snapshot, and the restart recovers exactly the records on disk,
        every ``ok`` reply among them."""
        config = ServiceConfig(
            **SMALL, log_dir=str(tmp_path / "log"), snapshot_path=str(tmp_path / "snap")
        )
        fail = spy_on_segments(monkeypatch, [])
        committed = fresh_writes(8)
        failing_batch = [
            reserve_msg(101, 0.0, 10.0, 1, seq=1),
            reserve_msg(102, 0.0, -1.0, 1),
            {"op": "cancel", "rid": 1},
            {"op": "add_servers", "count": 1, "aid": "a"},
            {"op": "snapshot"},  # the batch commits (and fails) before it
            reserve_msg(103, 0.0, 10.0, 1),
        ]

        async def run(messages):
            service = ReservationService.create(config)
            writer = ReplyWriter()
            await drive_actor(service, messages, writer)
            return service, writer.replies

        first, before = asyncio.run(run(committed))
        snapshot = (tmp_path / "snap").read_bytes()  # the clean stop's, at hwm 8
        fail[failing] = True
        failed, during = asyncio.run(run(failing_batch))
        fail.clear()
        assert (tmp_path / "snap").read_bytes() == snapshot
        on_disk = records_on_disk(tmp_path / "log")
        resends = [op for op in committed if op["op"] == "reserve"]
        rebooted, after = asyncio.run(run(resends))

        for reply in during[:4]:
            assert reply["ok"] is False and reply["error"]["code"] == "INTERNAL"
            assert {"start", "servers", "n_servers"}.isdisjoint(reply)
        assert during[0]["seq"] == 1 and during[0]["rid"] == 101
        assert [r["error"]["code"] for r in during[4:]] == ["SHUTTING_DOWN"] * 2
        assert "after hwm 8 failed" in str(failed.failure)
        # write: nothing of the batch reached the disk; flush: all of it did
        assert len(on_disk) == (8 if failing == "write" else 12)
        assert rebooted.recovered == len(on_disk) - 8
        assert [r["hwm"] for r in rebooted._log.tail(0, 100)] == [
            r["hwm"] for r in on_disk
        ]
        decided = [r for r in before if r["op"] == "reserve"]
        assert after == [{**r, "replayed": True} for r in decided]
        assert first.failure is None and rebooted.failure is None

    def test_log_tail_serves_no_record_of_a_failed_commit(self, tmp_path, monkeypatch):
        """A ``log_tail`` in the same batch as a fresh write answers
        before the commit: it must not carry the uncommitted record, and
        once the commit has failed the log serves nothing of it either,
        though its bytes (all of them, or half) reached the disk."""
        fail = spy_on_segments(monkeypatch, [])

        async def scenario(log_dir):
            service = ReservationService(ServiceConfig(**SMALL, log_dir=str(log_dir)))
            writer = ReplyWriter()
            await drive_actor(
                service,
                [reserve_msg(1, 0.0, 10.0, 1), {"op": "log_tail", "cursor": 0}],
                writer,
            )
            return service, writer.replies

        for failing, how in (("flush", True), ("write", "half")):
            fail.clear()
            fail[failing] = how
            service, (reserve, tail) = asyncio.run(scenario(tmp_path / failing))
            assert reserve["error"]["code"] == "INTERNAL"
            assert tail["ok"] and tail["records"] == [] and tail["hwm"] == 0
            assert (tmp_path / failing / "seg-000000000001.log").stat().st_size > 0
            assert service._log.tail(0, 10) == [] and service._log.committed == 0

    def test_torn_bytes_past_committed_are_never_served(self, tmp_path, monkeypatch):
        """A flush that puts half of its batch on disk and then raises
        leaves bytes past ``committed``, whole frames among them: the
        frame reader walks them, but no read serves them.  The next open
        keeps the whole frames and cuts the torn one."""
        fail = spy_on_segments(monkeypatch, [])
        log = DecisionLog(tmp_path)
        _fill(log, 5)
        committed = log.tail(0, 100)
        segment = tmp_path / "seg-000000000001.log"
        size = segment.stat().st_size
        for rid in range(6, 14):
            log.append("cancel", {"rid": rid}, {"ok": False})
        fail["write"] = "half"
        with pytest.raises(OSError):
            log.flush()
        fail.clear()
        assert segment.stat().st_size > size
        assert log.committed == 5 and log.hwm == 13
        whole = [hwm for hwm, *_ in log._frames(0)]
        assert whole[:5] == [1, 2, 3, 4, 5] and whole[-1] > 5  # whole frames past committed
        assert log.tail(0, 100) == committed
        assert log.tail(5, 100) == [] and list(log.payloads(5, 100)) == []
        log.close()
        reopened = DecisionLog(tmp_path)
        assert reopened.hwm == whole[-1] < 13
        assert reopened.tail(0, 5) == committed
        assert segment.stat().st_size == sum(4 + len(p) for p in payloads_on_disk(tmp_path))

    def test_status_names_committed_beside_hwm(self, tmp_path):
        """A ``status`` in the batch of a fresh write answers before the
        commit: ``hwm`` counts the appended record, ``committed`` does not."""

        async def scenario():
            service = ReservationService(ServiceConfig(**SMALL, log_dir=str(tmp_path)))
            writer = ReplyWriter()
            await drive_actor(
                service, [reserve_msg(1, 0.0, 10.0, 1), {"op": "status"}], writer
            )
            after = service._actor_apply_status({"op": "status"})
            return writer.replies, after

        (reserve, status), after = asyncio.run(scenario())
        assert reserve["ok"]
        assert status["log"]["hwm"] == 1 and status["log"]["committed"] == 0
        assert after["log"]["hwm"] == after["log"]["committed"] == 1

    def test_status_reports_commits(self, tmp_path):
        async def scenario():
            service = await start_service(**SMALL, log_dir=str(tmp_path / "log"))
            await rpc_all(service.port, *fresh_writes(8))
            status = await rpc(service.port, {"op": "status"})
            await service.stop()
            return status

        log = asyncio.run(scenario())["log"]
        assert log["hwm"] == 8 and 1 <= log["commits"] <= 8


# ----------------------------------------------------------------------
# log_tail serves the committed payloads as they are on disk
# ----------------------------------------------------------------------


def actor_line(service, message):
    """The reply line the actor writes for ``message``, without a socket."""
    reply, _ = service._actor_reply(message, None)
    return reply


class TestLogTail:
    def test_records_are_the_committed_payloads_byte_for_byte(self, tmp_path, monkeypatch):
        """The reply is assembled from the frames' payload bytes: the
        primary decodes no record, and encodes only the echoed ``seq``."""
        queued = {"op": "add_servers", "count": 1, "aid": "a"}  # no request line

        async def scenario():
            service = ReservationService(ServiceConfig(**SMALL, log_dir=str(tmp_path)))
            loop = asyncio.get_running_loop()
            for message in fresh_writes(12):
                service._ingest(encode(message), loop.create_future())
            await service._queue.put((queued, None, perf_counter(), loop.create_future()))
            service._actor_batch(await drain_batch(service._queue, 64))
            return service

        service = asyncio.run(scenario())
        calls = {"decode": 0, "encode": 0}
        decode, encoder = json.JSONDecoder.decode, type(WIRE_ENCODER).encode

        def counting_decode(self, text, *args):
            calls["decode"] += 1
            return decode(self, text, *args)

        def counting_encode(self, value):
            calls["encode"] += 1
            return encoder(self, value)

        with monkeypatch.context() as patch:
            patch.setattr(json.JSONDecoder, "decode", counting_decode)
            patch.setattr(type(WIRE_ENCODER), "encode", counting_encode)
            line = actor_line(service, {"op": "log_tail", "cursor": 3, "seq": [1, "s"]})
        assert calls == {"decode": 0, "encode": 1}
        payloads = payloads_on_disk(tmp_path)
        assert len(payloads) == 13
        assert line == (
            b'{"base":0,"hwm":13,"ok":true,"op":"log_tail","records":['
            + b",".join(payloads[3:])
            + b'],"seq":[1,"s"]}\n'
        )
        assert json.loads(line)["records"] == records_on_disk(tmp_path)[3:]
        assert actor_line(service, {"op": "log_tail", "cursor": 13}) == (
            b'{"base":0,"hwm":13,"ok":true,"op":"log_tail","records":[]}\n'
        )

    def test_limit_and_cursor(self, tmp_path):
        """``limit`` omitted is 512, 0 lists nothing, above 512 is cut to
        512; a negative ``limit`` or ``cursor`` is ``MALFORMED``, and a
        refused cursor does not pin compaction."""
        service = ReservationService(ServiceConfig(**SMALL, log_dir=str(tmp_path)))
        _fill(service._log, LOG_TAIL_LIMIT + 88)

        def tail(**fields):
            return json.loads(actor_line(service, {"op": "log_tail", **fields}))

        def hwms(reply):
            return [record["hwm"] for record in reply["records"]]

        assert hwms(tail(cursor=0)) == list(range(1, LOG_TAIL_LIMIT + 1))
        assert tail(cursor=0, limit=0) == {
            "ok": True, "op": "log_tail", "hwm": 600, "base": 0, "records": []
        }
        assert hwms(tail(cursor=10, limit=LOG_TAIL_LIMIT + 80)) == list(range(11, 523))
        assert hwms(tail(cursor=590, limit=5)) == [591, 592, 593, 594, 595]
        assert hwms(tail(cursor=598)) == [599, 600]
        for fields in (
            {"cursor": 0, "limit": -1},
            {"cursor": -1},
            {"cursor": -1, "limit": 5, "follower_id": "f"},
        ):
            reply = tail(**fields)
            assert not reply["ok"] and reply["error"]["code"] == "MALFORMED", fields
        assert service._log.live_cursors() == {}

    def test_a_reply_stays_under_the_line_cap(self, tmp_path):
        """A reserve that takes all 2048 servers logs a reply of ≈9 KB, so
        a few hundred such records pass the 1 MiB line cap: a follower
        read that reply as a broken line, asked for the same cursor again
        forever, and reported ``primary_up: false``.  A reply stops before
        the cap, and the follower catches up."""
        ops = []
        for rid in range(1, 121):
            ops += [reserve_msg(rid, 0.0, 10.0, 2048), {"op": "cancel", "rid": rid}]

        async def scenario():
            primary = await start_service(
                n_servers=2048, tau=10.0, q_slots=4, log_dir=str(tmp_path)
            )
            status = await rpc(primary.port, {"op": "status"})
            replies = await rpc_all(primary.port, *ops)
            follower = Follower(FollowerConfig(primary_port=primary.port, poll_interval=0.01))
            follower.bootstrap_fresh(status)
            await follower.start()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            while follower.cursor < len(ops) and loop.time() < deadline:
                await asyncio.sleep(0.01)
            seen = (follower.cursor, follower.primary_up, follower.failed)
            checksums = (follower.state.accepted_checksum(), primary.state.accepted_checksum())
            await follower.stop()
            lines, cursor = [], 0
            while cursor < len(ops):
                lines.append(actor_line(primary, {"op": "log_tail", "cursor": cursor}))
                cursor += len(json.loads(lines[-1])["records"])
            await primary.stop()
            return replies, seen, checksums, lines

        replies, seen, checksums, lines = asyncio.run(scenario())
        assert all(reply["ok"] for reply in replies)
        assert seen == (len(ops), True, None)
        assert checksums[0] == checksums[1]
        assert len(lines) > 1 and all(len(line) <= MAX_LINE_BYTES for line in lines)
        assert len(lines[0]) > MAX_LINE_BYTES - 10_000  # filled to the cap, not short

    def test_a_follower_that_keeps_up_reads_only_its_own_records(
        self, tmp_path, monkeypatch
    ):
        """A poll past the last record served goes on from where that
        record ends: over 40 rounds of 25 new records, across segment
        rotations, the reader reads each frame once and nothing else
        (reading each segment from its start cost the whole segment per
        poll)."""
        log = DecisionLog(tmp_path, segment_bytes=4096)
        opened = Path.open
        counts, served = [], []

        def counting_open(path, mode="r", *args, **kwargs):
            handle = opened(path, mode, *args, **kwargs)
            return CountingReader(handle, counts) if mode == "rb" else handle

        for round_ in range(40):
            for rid in range(25 * round_ + 1, 25 * round_ + 26):
                log.append("cancel", {"rid": rid}, {"ok": False})
            log.flush()
            with monkeypatch.context() as patch:
                patch.setattr(Path, "open", counting_open)
                served += log.payloads(len(served), LOG_TAIL_LIMIT)
        log.close()
        assert len(list(tmp_path.glob("seg-*.log"))) > 10
        assert served == payloads_on_disk(tmp_path)
        assert sum(counts) == sum(4 + len(payload) for payload in served)

    def test_no_reply_carries_nan_or_infinity(self, tmp_path):
        """A request line with ``NaN`` or ``Infinity`` in it — a ``seq``
        the reply cannot echo, or a key no decision reads — is logged
        from its decision, so the ``log_tail`` line is strict JSON and
        replays to the server's state."""
        lines = [
            b'{"op":"reserve","rid":1,"sr":0,"lr":10,"nr":1,"seq":NaN}\n',
            b'{"op":"reserve","rid":2,"sr":0,"lr":10,"nr":1,"note":-Infinity}\n',
            b'{"op":"cancel","rid":2,"note":[Infinity],"seq":7}\n',
        ]

        async def scenario():
            service = ReservationService(ServiceConfig(**SMALL, log_dir=str(tmp_path)))
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in lines]
            for line, future in zip(lines, futures):
                service._ingest(line, future)
            service._actor_batch(await drain_batch(service._queue, 64))
            return service, [json.loads(future.result()) for future in futures]

        service, replies = asyncio.run(scenario())
        assert replies[0]["error"]["code"] == "INTERNAL"
        assert replies[1]["ok"] and replies[2]["ok"] and replies[2]["seq"] == 7
        reply = strict_json(actor_line(service, {"op": "log_tail", "cursor": 0}))
        service._log.close()
        assert [record["hwm"] for record in reply["records"]] == [1, 2, 3]
        follower = replayed_from(reply["records"])
        assert snapshot_bytes(follower.state.export(3)) == snapshot_bytes(
            service.state.export(3)
        )

    def test_one_record_over_the_cap_is_still_sent(self, tmp_path, monkeypatch):
        """A reply always lists one record past the cursor, so a cursor
        never stalls on a record the cap cannot hold."""
        monkeypatch.setattr(server, "MAX_LINE_BYTES", 100)
        service = ReservationService(ServiceConfig(**SMALL, log_dir=str(tmp_path)))
        _fill(service._log, 3)
        for cursor in range(3):
            reply = json.loads(actor_line(service, {"op": "log_tail", "cursor": cursor}))
            assert [record["hwm"] for record in reply["records"]] == [cursor + 1]


# ----------------------------------------------------------------------
# the log keeps no record in memory
# ----------------------------------------------------------------------


def retained_by_log(log_dir, n):
    """Bytes the service's ``DecisionLog`` holds after ``n`` fresh writes.

    The writes run through ``_actor_batch`` 64 at a time with tracemalloc
    on; what the log retains is what dropping it gives back.
    """

    async def scenario():
        service = ReservationService(ServiceConfig(**SMALL, log_dir=str(log_dir)))
        loop = asyncio.get_running_loop()
        messages = fresh_writes(n)
        for start in range(0, n, 64):
            for message in messages[start : start + 64]:
                service._ingest(encode(message), loop.create_future())
            service._actor_batch(await drain_batch(service._queue, 64))
        assert service._log.committed == n
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        service._log = None
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        return asyncio.run(scenario())
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_the_log_retains_nothing_per_record(self, tmp_path):
        """The segment files are the only copy of the history: the memory
        the log holds does not grow with the records it has logged (a
        record list held ≈0.5 KB per record, ≈1.5 MB more at 4 000)."""
        small = retained_by_log(tmp_path / "small", 1000)
        large = retained_by_log(tmp_path / "large", 4000)
        assert large - small < 16 * 1024, (small, large)


# ----------------------------------------------------------------------
# recovery replays to the server's own state
# ----------------------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"


def wire_ops():
    rid = st.integers(min_value=1, max_value=6)
    reserve = st.builds(
        lambda r, sr, lr, nr, seq: reserve_msg(r, sr, lr, nr, **seq),
        rid,
        st.sampled_from([0.0, 5.0, 20.0]),
        st.sampled_from([-1.0, 10.0, 40.0]),  # -1 -> MALFORMED
        st.sampled_from([1, 2, 3]),  # 3 > N -> rejected
        st.sampled_from([{}, {"seq": 4}, {"seq": "s"}]),
    )
    nan_seq = st.tuples(st.sampled_from(["nan", "nan-note"]), rid)
    cancel = st.builds(lambda r: {"op": "cancel", "rid": r}, st.integers(1, 9))
    aid = st.sampled_from([{}, {"aid": "a1"}, {"aid": "a2"}])
    server = st.integers(0, 4)  # 4 is out of range until two servers were added
    admin = st.one_of(
        st.builds(lambda a: {"op": "add_servers", "count": 1, **a}, aid),
        st.builds(lambda s, a: {"op": "drain", "server": s, **a}, server, aid),
        st.builds(lambda s, a: {"op": "remove", "server": s, **a}, server, aid),
    )
    queued = admin.map(lambda m: ("queued", m))  # no request line, as the autoscaler
    return st.lists(
        st.one_of(reserve, reserve, cancel, admin, queued, nan_seq), max_size=14
    )


async def send_stream(service, ops):
    """Each op on its own: over TCP, or straight onto the actor queue."""
    loop = asyncio.get_running_loop()
    replies = []
    for op in ops:
        if isinstance(op, tuple) and op[0] == "queued":
            future = loop.create_future()
            await service._queue.put((op[1], None, perf_counter(), future))
            replies.append(json.loads(await future))
        elif isinstance(op, tuple):  # a seq the reply cannot echo, or a key none reads
            extra = b'"seq":NaN' if op[0] == "nan" else b'"note":Infinity'
            line = b'{"op":"reserve","rid":%d,"sr":0,"lr":10,"nr":1,%b}\n' % (op[1], extra)
            replies.append(await rpc(service.port, line))
        else:
            replies.append(await rpc(service.port, op))
    return replies


def replayed_from(records):
    """A fresh follower on the boot pool that applied ``records``.

    (From the boot pool: ``status`` reports the grown one, ROADMAP item 1(a).)
    """
    follower = Follower(FollowerConfig())
    follower.bootstrap_fresh({**SMALL, "delta_t": SMALL["tau"], "r_max": SMALL["q_slots"] // 2})
    for record in records:
        follower.apply_record(record)
    return follower


class TestRecovery:
    @settings(max_examples=60, deadline=None)
    @given(ops=wire_ops())
    def test_recovery_replays_to_the_servers_own_state(self, tmp_path_factory, ops):
        """The records on disk, replayed by a follower and by a reboot,
        give the server's own state: tables and checksum, byte for byte."""
        log_dir = tmp_path_factory.mktemp("log")

        async def scenario():
            service = await start_service(**SMALL, log_dir=str(log_dir))
            replies = await send_stream(service, ops)
            status = await rpc(service.port, {"op": "status"})
            await service.stop()
            return service, replies, status

        service, replies, status = asyncio.run(scenario())
        exported = snapshot_bytes(service.state.export(service._log.hwm))
        as_written = records_on_disk(log_dir)
        recovered = DecisionLog(log_dir)
        assert recovered.hwm == service._log.hwm == len(as_written)
        assert recovered.tail(0, recovered.hwm) == as_written
        for reply, op in zip(replies, ops):
            if isinstance(op, tuple) and op[0] == "nan":
                assert reply["error"]["code"] == "INTERNAL"
        # the follower replays every record, the unanswerable ones included
        follower = replayed_from(recovered.tail(0, recovered.hwm))
        assert follower.state.accepted_checksum() == status["accepted_checksum"]
        assert snapshot_bytes(follower.state.export(follower.cursor)) == exported
        rebooted = ReservationService(ServiceConfig(**SMALL, log_dir=str(log_dir)))
        assert rebooted.recovered == len(as_written)
        assert snapshot_bytes(rebooted.state.export(rebooted._log.hwm)) == exported
        # what log_tail sends is strict JSON, whatever the request lines held
        served = strict_json(actor_line(rebooted, {"op": "log_tail", "cursor": 0}))
        assert served["records"] == as_written[:LOG_TAIL_LIMIT]

    def test_torn_tail_of_a_server_written_segment_is_truncated(self, tmp_path):
        """The torn record goes; the five before it read back as written,
        and a reboot replays them to the state a follower reaches on them."""

        async def scenario():
            service = await start_service(**SMALL, log_dir=str(tmp_path))
            await rpc_all(service.port, *fresh_writes(6))
            await service.stop()
            return snapshot_bytes(service.state.export(6))

        exported = asyncio.run(scenario())
        as_written = records_on_disk(tmp_path)
        assert snapshot_bytes(replayed_from(as_written).state.export(6)) == exported
        seg = sorted(tmp_path.glob("seg-*.log"))[-1]
        seg.write_bytes(seg.read_bytes()[:-5])
        reopened = DecisionLog(tmp_path)
        assert reopened.hwm == 5
        assert reopened.tail(0, 10) == as_written[:5]
        reopened.close()
        rebooted = ReservationService(ServiceConfig(**SMALL, log_dir=str(tmp_path)))
        assert rebooted.recovered == 5
        assert snapshot_bytes(rebooted.state.export(5)) == snapshot_bytes(
            replayed_from(as_written[:5]).state.export(5)
        )

    def test_a_segment_of_dict_records_reads_back_unchanged(self, tmp_path):
        """Records that hold the decision alone — the dict path's form,
        and a server's before records reused wire bytes — normalise to
        themselves."""
        source = FIXTURES / "declog-dict-records"
        shutil.copytree(source, tmp_path / "log")
        as_written = records_on_disk(tmp_path / "log")
        reopened = DecisionLog(tmp_path / "log")
        assert reopened.hwm == len(as_written) == 12
        assert reopened.tail(0, 100) == as_written
        assert (tmp_path / "log" / "seg-000000000001.log").read_bytes() == (
            source / "seg-000000000001.log"
        ).read_bytes()


# ----------------------------------------------------------------------
# restart is replay: snapshot + the log's suffix, through ServiceState.replay
# ----------------------------------------------------------------------


def restart_ops():
    """Writes of every kind, with a snapshot now and then (or never)."""
    rid = st.integers(min_value=1, max_value=8)
    reserve = st.builds(
        reserve_msg,
        rid,
        st.sampled_from([0.0, 5.0, 20.0]),
        st.sampled_from([-1.0, 10.0, 40.0]),  # -1 -> MALFORMED
        st.sampled_from([1, 2, 3]),  # 3 > N -> rejected
    )
    cancel = st.builds(lambda r: {"op": "cancel", "rid": r}, st.integers(1, 9))
    aid = st.sampled_from([{}, {"aid": "a1"}, {"aid": "a2"}])
    admin = st.one_of(
        st.builds(lambda a: {"op": "add_servers", "count": 1, **a}, aid),
        st.builds(lambda s, a: {"op": "drain", "server": s, **a}, st.integers(0, 3), aid),
        st.builds(lambda s, a: {"op": "remove", "server": s, **a}, st.integers(0, 3), aid),
    )
    snapshot = st.just({"op": "snapshot"})
    return st.lists(st.one_of(reserve, reserve, cancel, admin, snapshot), max_size=16)


async def abandon(service):
    """Drop a live service as SIGKILL would: no shutdown, no final snapshot."""
    service._server.close()
    await service._server.wait_closed()
    service._actor_task.cancel()
    await asyncio.gather(service._actor_task, return_exceptions=True)
    if service._log._active is not None:
        service._log._active.close()  # the OS closes a killed process's files


def identity(reply):
    """The rid or aid a write reply answers for, if any."""
    if reply.get("op") == "reserve":
        return ("rid", reply["rid"])
    if reply.get("aid") is not None:
        return ("aid", reply["aid"])
    return None


class TestRestartIsReplay:
    @settings(max_examples=40, deadline=None)
    @given(ops=restart_ops(), segment_bytes=st.sampled_from([160, 1 << 20]))
    def test_a_restart_recovers_every_answered_decision(
        self, tmp_path_factory, ops, segment_bytes
    ):
        """Abandon a live primary at hwm k — its last snapshot at some
        s <= k, or none — and reboot it on the same directories: the
        state is the uninterrupted primary's at k, byte for byte, and
        every rid/aid answered before the abandon answers its verdict
        again with ``replayed: true``."""
        work = tmp_path_factory.mktemp("restart")
        config = dict(
            **SMALL, log_dir=str(work / "log"), snapshot_path=str(work / "snap")
        )

        async def abandoned():
            service = await start_service(**config)
            replies = [await rpc(service.port, op) for op in ops]
            exported = service.state.export(service._log.hwm)
            await abandon(service)
            return replies, exported

        async def rebooted(resends):
            service = await start_service(**config)
            state = service.state.export(service._log.hwm)
            status = await rpc(service.port, {"op": "status"})
            answers = [await rpc(service.port, op) for op in resends]
            await service.stop()
            return state, status, answers

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(server, "LOG_SEGMENT_BYTES", segment_bytes)
            replies, exported = asyncio.run(abandoned())
        snap = work / "snap"
        s = read_snapshot(snap)["log_hwm"] if snap.exists() else 0
        answered = {}
        for op, reply in zip(ops, replies):
            key = identity(reply)
            if key is not None and key not in answered:
                answered[key] = (op, reply)
        state, status, answers = asyncio.run(
            rebooted([op for op, _ in answered.values()])
        )

        assert snapshot_bytes(state) == snapshot_bytes(exported)
        assert status["log"]["recovered"] == exported["log_hwm"] - s
        for (_, reply), answer in zip(answered.values(), answers):
            assert answer == {**reply, "replayed": True}

    def test_a_restart_mid_drain_keeps_the_pool(self, tmp_path):
        """Rid 1 holds server 1 over [20, 30).  At 15 server 1 is drained
        — its remove is refused, it still holds that commitment — server
        0 is drained and removed, and server 2 joins, idle from 15 (not
        from the horizon's start, 10).  A snapshot lands mid-drain; the
        primary abandoned after the last op reboots on the same pool,
        periods and verdicts, and every aid answers ``replayed: true``."""
        config = dict(
            **SMALL, log_dir=str(tmp_path / "log"), snapshot_path=str(tmp_path / "snap")
        )
        ops = [
            reserve_msg(1, 20.0, 10.0, 1, qr=0.0),
            {"op": "drain", "server": 1, "qr": 15.0, "aid": "d1"},
            {"op": "snapshot"},
            {"op": "remove", "server": 1, "aid": "r1"},
            {"op": "drain", "server": 0, "aid": "d0"},
            {"op": "remove", "server": 0, "aid": "r0"},
            {"op": "add_servers", "count": 1, "aid": "a2"},
        ]

        async def run(messages):
            service = await start_service(**config)
            replies = [await rpc(service.port, op) for op in messages]
            pool = await rpc(service.port, {"op": "pool_status"})
            calendar = service.state.export(service._log.hwm)["scheduler"]["calendar"]
            await abandon(service)
            return replies, pool, calendar["periods"]

        replies, pool, periods = asyncio.run(run(ops))
        assert replies[0]["servers"] == [1]
        assert [r["ok"] for r in replies] == [True] * 3 + [False] + [True] * 3
        assert replies[3]["error"]["code"] == "CONFLICT"
        assert replies[6]["servers"] == [2]
        assert pool["servers"] == ["removed", "draining", "active"]
        assert pool["drain_progress"] == [{"server": 1, "drained": False}]
        assert periods[0] == []
        assert [(st, et) for st, et, _ in periods[1]] == [(0.0, 20.0), (30.0, None)]
        assert [(st, et) for st, et, _ in periods[2]] == [(15.0, None)]

        resends = [op for op in ops if "aid" in op]
        answers, pool_after, periods_after = asyncio.run(run(resends))
        assert pool_after == pool and periods_after == periods
        expected = [reply for op, reply in zip(ops, replies) if "aid" in op]
        assert answers == [{**reply, "replayed": True} for reply in expected]

    def test_a_log_starting_past_the_snapshot_refuses_the_boot(self, tmp_path):
        log = DecisionLog(tmp_path, segment_bytes=256)
        _fill(log, 30)
        log.compact(30)  # records 1..base are gone, and there is no snapshot
        log.close()
        assert log.base > 0
        with pytest.raises(
            ReplicationGapError,
            match=rf"starts after hwm {log.base}, past the snapshot's hwm 0",
        ):
            ReservationService(ServiceConfig(**SMALL, log_dir=str(tmp_path)))

    def test_a_diverging_replay_refuses_the_boot(self, tmp_path):
        log = DecisionLog(tmp_path)
        log.append("reserve", {"rid": 1, "sr": 0.0, "lr": 5.0, "nr": 1}, {"ok": True})
        log.append("cancel", {"rid": 1}, {"ok": True})
        log.close()
        with pytest.raises(
            ReplicationDivergenceError,
            match=r"from the snapshot's hwm 0 to hwm 2: record 1 \(reserve rid=1 ",
        ):
            ReservationService(ServiceConfig(**SMALL, log_dir=str(tmp_path)))
