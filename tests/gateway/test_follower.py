"""Warm-standby replication: prefix-state equality, verdict verification,
gap/divergence crash-stops, garbled-reply recovery, in-process promote."""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facade import CoAllocationScheduler
from repro.gateway.follower import (
    Follower,
    FollowerConfig,
    ReplicationDivergenceError,
    ReplicationGapError,
)
from repro.service.protocol import MAX_LINE_BYTES, READ_CHUNK_BYTES
from repro.service.declog import decide_cancel, decide_reserve, decision_message
from repro.service.server import accepted_checksum
from repro.service.snapshot import snapshot_bytes, write_snapshot
from repro.service.state import ServiceState

from ..service.harness import SMALL, reserve_msg, rpc, start_service

GEOMETRY = dict(n_servers=2, tau=10.0, q_slots=4, delta_t=1.0, r_max=2)


def fresh_scheduler():
    return CoAllocationScheduler(**GEOMETRY)


def run_primary(ops):
    """Mirror the actor's logging discipline over an in-process state machine.

    Fresh reserves (anything entering the decision table, rejects and
    malformed included) and *all* cancels append one record; duplicate
    rids answer from the table without logging — exactly what
    ``ReservationService._record_decision`` does.  Returns the log plus
    the primary's snapshot state and accepted checksum after every record.
    """
    primary = ServiceState(fresh_scheduler())
    records = []
    states = [primary.export(0)]  # states[h] = snapshot state after record h
    checksums = [primary.accepted_checksum()]
    for op in ops:
        kind = op["op"]
        verdict, replayed = primary.apply(kind, op)
        if replayed:
            continue  # answered from the table, not logged
        records.append(
            {
                "hwm": len(records) + 1,
                "kind": kind,
                "message": decision_message(kind, op),
                "verdict": verdict,
            }
        )
        states.append(primary.export(len(records)))
        checksums.append(primary.accepted_checksum())
    return records, states, checksums


def ops_strategy():
    """Reserves, replays, cancels (found and not), occasional malformed."""
    reserve = st.builds(
        lambda rid, sr, lr, nr: {"op": "reserve", "rid": rid, "sr": sr, "lr": lr, "nr": nr},
        rid=st.integers(min_value=1, max_value=12),
        sr=st.sampled_from([0.0, 2.5, 5.0, 10.0, 20.0]),
        lr=st.sampled_from([1.0, 5.0, 10.0]),
        nr=st.integers(min_value=0, max_value=3),  # nr=0 and nr=3 > N: malformed/reject paths
    )
    cancel = st.builds(
        lambda rid: {"op": "cancel", "rid": rid},
        rid=st.integers(min_value=1, max_value=14),
    )
    return st.lists(st.one_of(reserve, cancel), min_size=0, max_size=40)


class TestReplicationProperty:
    @settings(max_examples=60, deadline=None)
    @given(ops=ops_strategy())
    def test_any_log_prefix_reproduces_the_primary_state(self, ops):
        """For ANY op sequence, at EVERY prefix k: a follower that has
        applied records 1..k exports the primary's snapshot state at hwm
        k byte for byte (calendar with its uids and uid counter, decision
        tables, hwm) — and the verdict verification inside apply_record
        never trips on honest logs."""
        records, states, checksums = run_primary(ops)
        follower = Follower(FollowerConfig())
        follower.state = ServiceState(fresh_scheduler())
        for k in range(len(records) + 1):
            if k:
                follower.apply_record(records[k - 1])  # raises on any divergence
            assert snapshot_bytes(follower.state.export(follower.cursor)) == snapshot_bytes(
                states[k]
            )
            assert accepted_checksum(follower.state.decided) == checksums[k]

    @settings(max_examples=40, deadline=None)
    @given(ops=ops_strategy(), data=st.data())
    def test_a_follower_bootstrapped_from_a_snapshot_exports_the_primary_bytes(
        self, ops, data, tmp_path_factory
    ):
        """A follower that adopts the primary's snapshot at hwm j and then
        replays j+1..k exports the primary's state at k byte for byte: the
        snapshot carries the calendar's uid counter, so the periods the
        follower creates are numbered as the primary's were."""
        records, states, _ = run_primary(ops)
        j = data.draw(st.integers(min_value=0, max_value=len(records)))
        path = tmp_path_factory.mktemp("bootstrap") / "primary.snap"
        write_snapshot(path, states[j])
        follower = Follower(FollowerConfig())
        follower.bootstrap_from_snapshot(path)
        assert follower.cursor == j
        for k in range(j + 1, len(records) + 1):
            follower.apply_record(records[k - 1])
            assert snapshot_bytes(follower.state.export(follower.cursor)) == snapshot_bytes(
                states[k]
            )

    @settings(max_examples=25, deadline=None)
    @given(ops=ops_strategy())
    def test_promoted_prefix_re_decides_the_suffix_identically(self, ops):
        """Failover semantics: a follower cut at hwm k, handed the lost
        suffix again (at-least-once clients resending), re-decides every
        lost op to the logged verdict and converges on the primary."""
        records, _, checksums = run_primary(ops)
        k = len(records) // 2
        follower = Follower(FollowerConfig())
        follower.state = ServiceState(fresh_scheduler())
        for record in records[:k]:
            follower.apply_record(record)
        # the promoted service would route these through the same
        # decision functions; replaying the logged messages stands in
        for record in records[k:]:
            if record["kind"] == "reserve":
                verdict = decide_reserve(follower.state.scheduler, record["message"])
                follower.state.decided[int(record["message"]["rid"])] = verdict
            else:
                verdict = decide_cancel(
                    follower.state.scheduler, int(record["message"]["rid"])
                )
            assert verdict == record["verdict"]
        assert accepted_checksum(follower.state.decided) == checksums[-1]


class TestOneDecisionPath:
    """The actor and the follower run the same ``ServiceState``."""

    def test_live_actor_and_follower_export_identically(self, tmp_path):
        """One record stream — reserves (fresh, rejected, malformed,
        replayed), cancels, aid-keyed and aid-less pool mutations —
        decided by a live actor and replayed by ``apply_record`` ends in
        the same snapshot bytes, verdict tables included."""
        ops = [
            reserve_msg(1, 0.0, 5.0, 1),
            reserve_msg(2, 0.0, 5.0, 3),  # nr > N: rejected
            reserve_msg(3, 0.0, -1.0, 1),  # malformed
            reserve_msg(1, 0.0, 5.0, 1),  # replay: not logged
            {"op": "add_servers", "count": 2, "aid": "grow-1", "qr": 1.0},
            {"op": "add_servers", "count": 2, "aid": "grow-1", "qr": 1.0},  # replay
            {"op": "drain", "server": 0, "aid": "drain-0", "qr": 2.0},
            {"op": "remove", "server": 9},  # no aid, refused: logged, not tabled
            {"op": "cancel", "rid": 1},
            {"op": "cancel", "rid": 1},  # NOT_FOUND: logged
            reserve_msg(4, 3.0, 5.0, 3, qr=3.0),
        ]

        async def scenario():
            primary = await start_service(**SMALL, log_dir=str(tmp_path / "log"))
            status = await rpc(primary.port, {"op": "status"})  # boot geometry
            for op in ops:
                await rpc(primary.port, op)
            tail = await rpc(primary.port, {"op": "log_tail", "cursor": 0})
            exported = primary.state.export(tail["hwm"])
            await primary.stop()
            return status, tail, exported

        status, tail, exported = asyncio.run(scenario())
        assert tail["hwm"] == len(ops) - 2  # the two replays were not logged

        follower = Follower(FollowerConfig())
        follower.bootstrap_fresh(status)
        for record in tail["records"]:
            follower.apply_record(record)
        replayed = follower.state.export(follower.cursor)
        assert snapshot_bytes(replayed) == snapshot_bytes(exported)
        assert sorted(replayed["admin_decided"]) == ["drain-0", "grow-1"]
        assert sorted(replayed["decided"]) == ["1", "2", "3", "4"]

    def test_a_record_for_an_already_decided_rid_crash_stops(self):
        """The primary logs fresh decisions only; a second record for a
        rid (or aid) this follower holds means the histories forked, and
        re-deciding it would silently rewrite the exactly-once table."""
        records, _, _ = run_primary(
            [
                reserve_msg(1, 0.0, 5.0, 1),
                reserve_msg(2, 0.0, 5.0, 1),
            ]
        )
        follower = Follower(FollowerConfig())
        follower.state = ServiceState(fresh_scheduler())
        for record in records:
            follower.apply_record(record)
        before = follower.state.export(follower.cursor)
        with pytest.raises(ReplicationDivergenceError, match="already decided"):
            follower.apply_record({**records[0], "hwm": 3})
        assert follower.cursor == 2
        assert follower.state.export(follower.cursor) == before


class TestCrashStops:
    def _bootstrapped(self):
        follower = Follower(FollowerConfig())
        follower.state = ServiceState(fresh_scheduler())
        return follower

    def test_hwm_gap_raises(self):
        follower = self._bootstrapped()
        record = {
            "hwm": 5,  # cursor is 0: records 1..4 are missing
            "kind": "cancel",
            "message": {"rid": 1},
            "verdict": {"ok": False, "error": {"code": "NOT_FOUND"}},
        }
        with pytest.raises(ReplicationGapError):
            follower.apply_record(record)

    def test_verdict_divergence_raises(self):
        follower = self._bootstrapped()
        record = {
            "hwm": 1,
            "kind": "reserve",
            "message": {"rid": 1, "sr": 0.0, "lr": 5.0, "nr": 1},
            "verdict": {"ok": True, "start": 99.0, "end": 104.0, "servers": [0],
                        "attempts": 1, "delay": 99.0},  # a lie
        }
        with pytest.raises(ReplicationDivergenceError, match="rid=1"):
            follower.apply_record(record)

    def test_unknown_kind_raises(self):
        follower = self._bootstrapped()
        with pytest.raises(ReplicationDivergenceError, match="unknown record kind"):
            follower.apply_record(
                {"hwm": 1, "kind": "mystery", "message": {}, "verdict": {}}
            )


class _FlakyPrimary:
    """A fake primary whose FIRST log_tail reply is torn mid-JSON.

    Subsequent connections serve honest log_tail batches from a fixed
    record list, so a correct follower recovers from its last good
    cursor without losing or double-applying anything.
    """

    def __init__(self, records, base=0):
        self.records = records
        self.base = base
        self.torn_replies = 0
        self._server = None

    @property
    def port(self):
        return self._server.sockets[0].getsockname()[1]

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, host="127.0.0.1", port=0, limit=1 << 16
        )

    async def stop(self):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                message = json.loads(raw)
                if self.torn_replies == 0:
                    # die mid-reply: an unterminated JSON fragment
                    self.torn_replies += 1
                    writer.write(b'{"ok": true, "records": [{"hw')
                    await writer.drain()
                    writer.close()
                    return
                cursor = int(message["cursor"])
                batch = [r for r in self.records if r["hwm"] > cursor][:16]
                reply = {
                    "ok": True,
                    "op": "log_tail",
                    "hwm": len(self.records),
                    "base": self.base,
                    "records": batch,
                }
                writer.write((json.dumps(reply) + "\n").encode())
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()


def _sample_records(n=20):
    ops = [reserve_msg(rid, float(rid % 4), 5.0, 1) for rid in range(1, n + 1)]
    ops[5] = {"op": "cancel", "rid": 3}
    ops[11] = {"op": "cancel", "rid": 99}
    records, _, checksums = run_primary(ops)
    return records, checksums[-1]


class TestTailLoop:
    def test_garbled_reply_reconnects_from_last_good_cursor(self):
        records, checksum = _sample_records()

        async def scenario():
            primary = _FlakyPrimary(records)
            await primary.start()
            follower = Follower(
                FollowerConfig(
                    primary_port=primary.port, poll_interval=0.01, batch_limit=16
                )
            )
            follower.state = ServiceState(fresh_scheduler())
            await follower.start()
            for _ in range(500):
                if follower.cursor == len(records):
                    break
                await asyncio.sleep(0.01)
            state = follower.state.export(follower.cursor)
            applied = dict(follower.applied)
            torn = primary.torn_replies
            await follower.stop()
            await primary.stop()
            return follower, state, applied, torn

        follower, state, applied, torn = asyncio.run(scenario())
        assert torn == 1  # the torn reply actually happened
        assert follower.failed is None
        assert state["log_hwm"] == len(records)
        # nothing double-applied across the reconnect
        assert applied["reserve"] + applied["cancel"] == len(records)
        assert accepted_checksum(follower.state.decided) == checksum

    def test_compaction_gap_crash_stops_the_follower(self):
        records, _ = _sample_records()

        async def scenario():
            # primary compacted to base 10; a fresh follower (cursor 0)
            # can never catch up from the log alone
            primary = _FlakyPrimary(records[10:], base=10)
            primary.torn_replies = 1  # skip the torn-reply act
            await primary.start()
            follower = Follower(
                FollowerConfig(primary_port=primary.port, poll_interval=0.01)
            )
            follower.state = ServiceState(fresh_scheduler())
            await follower.start()
            for _ in range(500):
                if follower.failed is not None:
                    break
                await asyncio.sleep(0.01)
            failed = follower.failed
            await follower.stop()
            await primary.stop()
            return failed

        failed = asyncio.run(scenario())
        assert failed is not None and "re-bootstrap" in failed


class TestPromote:
    def test_in_process_kill_promote_round_trip(self, tmp_path):
        """Mini kill-promote without subprocesses: a real primary with a
        decision log, a follower tailing it over real TCP, promotion to
        a real service, lost suffix resent — checksums all equal."""

        async def scenario():
            primary = await start_service(**SMALL, log_dir=str(tmp_path / "log"))
            ops = [reserve_msg(rid, float(rid % 3), 5.0, 1) for rid in range(1, 16)]
            ops.append({"op": "cancel", "rid": 2})
            for op in ops:
                await rpc(primary.port, op)
            primary_status = await rpc(primary.port, {"op": "status"})

            follower = Follower(
                FollowerConfig(
                    primary_port=primary.port,
                    poll_interval=0.01,
                    log_dir=str(tmp_path / "follower-log"),
                )
            )
            status = await rpc(primary.port, {"op": "status"})
            follower.bootstrap_fresh(status)
            await follower.start()
            for _ in range(500):
                if follower.cursor >= primary_status["log"]["hwm"]:
                    break
                await asyncio.sleep(0.01)
            await primary.stop()  # the primary dies

            promoted = await rpc(follower.port, {"op": "promote"})
            assert promoted["ok"], promoted
            # promote is not idempotent: a second call is a CONFLICT
            again = await rpc(follower.port, {"op": "promote"})
            # at-least-once clients resend everything in flight; the
            # promoted service answers replays from the decision table
            replays = [await rpc(promoted["port"], op) for op in ops]
            new_status = await rpc(promoted["port"], {"op": "status"})
            fstatus = await rpc(follower.port, {"op": "follower_status"})
            await follower.stop()
            return primary_status, promoted, again, replays, new_status, fstatus

        primary_status, promoted, again, replays, new_status, fstatus = asyncio.run(
            scenario()
        )
        assert promoted["hwm"] == primary_status["log"]["hwm"]
        assert (
            promoted["accepted_checksum"]
            == primary_status["accepted_checksum"]
            == new_status["accepted_checksum"]
        )
        assert not again["ok"] and again["error"]["code"] == "CONFLICT"
        assert all(
            r["ok"] or r["error"]["code"] in ("NOT_FOUND", "REJECTED")
            for r in replays
        )
        # every reserve replay was answered from the table, not re-decided
        assert all(
            r.get("replayed") for r in replays if r.get("op") == "reserve" and r["ok"]
        )
        assert fstatus["promoted"] is True


class TestControlListener:
    def test_over_long_line_is_answered_like_the_primary_answers_it(self, tmp_path):
        """A line over ``MAX_LINE_BYTES`` is unrecoverable framing: both
        listeners answer ``MALFORMED`` and close; the follower's handler
        task used to die on the ``ValueError`` and reset the peer."""

        async def over_long(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
            await writer.drain()
            answer = json.loads(await reader.readline())
            closed = await reader.read()
            writer.close()
            return answer, closed

        async def scenario():
            primary = await start_service(**SMALL, log_dir=str(tmp_path / "log"))
            follower = Follower(FollowerConfig(primary_port=primary.port, poll_interval=0.01))
            follower.bootstrap_fresh(await rpc(primary.port, {"op": "status"}))
            accepted = []
            handle = follower._handle_control

            async def spy(reader, writer):
                accepted.append(writer.transport)
                await handle(reader, writer)

            follower._handle_control = spy
            await follower.start()
            try:
                return (
                    await asyncio.wait_for(over_long(primary.port), 10.0),
                    await asyncio.wait_for(over_long(follower.port), 10.0),
                    await rpc(follower.port, {"op": "follower_status"}),
                    accepted,
                )
            finally:
                await follower.stop()
                await primary.stop()

        from_primary, from_follower, after, accepted = asyncio.run(scenario())
        assert from_follower == from_primary
        answer, closed = from_follower
        assert answer["error"]["code"] == "MALFORMED" and closed == b""
        assert after["ok"]  # the listener itself is unharmed
        assert [t.max_size for t in accepted] == [READ_CHUNK_BYTES] * 2
