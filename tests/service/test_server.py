"""End-to-end TCP tests of the reservation server (one event loop each)."""

import asyncio
import json
import os
import socket
import subprocess
import sys
from time import perf_counter

import repro
from repro.service.protocol import READ_CHUNK_BYTES
from repro.service.server import accepted_checksum

from .harness import SMALL, reserve_msg, rpc, rpc_all, start_service


def run(coro):
    return asyncio.run(coro)


def test_reserve_probe_cancel_roundtrip():
    async def scenario():
        service = await start_service(n_servers=4, tau=10.0, q_slots=8)
        port = service.port

        accepted = await rpc(port, reserve_msg(1, 0.0, 10.0, 2))
        assert accepted["ok"] and accepted["op"] == "reserve" and accepted["rid"] == 1
        assert accepted["start"] == 0.0 and accepted["end"] == 10.0
        assert len(accepted["servers"]) == 2 and accepted["attempts"] == 1

        probe = await rpc(port, {"op": "probe", "ta": 0.0, "tb": 10.0})
        assert probe["ok"] and probe["count"] == 2  # the two uncommitted servers
        for server, st, et in probe["periods"]:
            assert st <= 0.0 and (et is None or et >= 10.0)
            assert server not in accepted["servers"]

        cancelled = await rpc(port, {"op": "cancel", "rid": 1})
        assert cancelled["ok"]
        again = await rpc(port, {"op": "cancel", "rid": 1})
        assert not again["ok"]
        assert again["error"]["code"] == "NOT_FOUND" and again["error"]["exit_code"] == 5

        await service.stop()

    run(scenario())


def test_duplicate_rid_replays_original_verdict():
    async def scenario():
        service = await start_service(n_servers=4, tau=10.0, q_slots=8)
        first = await rpc(service.port, reserve_msg(9, 0.0, 10.0, 1))
        second = await rpc(service.port, reserve_msg(9, 0.0, 10.0, 1))
        assert first["ok"] and second["ok"]
        assert second["replayed"] is True and "replayed" not in first
        assert (second["start"], second["end"], second["servers"]) == (
            first["start"],
            first["end"],
            first["servers"],
        )
        assert service.metrics.replayed == 1
        await service.stop()

    run(scenario())


def test_rejected_and_malformed_are_distinct_codes():
    async def scenario():
        service = await start_service(**SMALL)
        port = service.port

        fill = await rpc(port, reserve_msg(1, 0.0, 40.0, 2))  # entire horizon
        assert fill["ok"]

        rejected = await rpc(port, reserve_msg(2, 0.0, 40.0, 2))
        assert not rejected["ok"]
        error = rejected["error"]
        assert error["code"] == "REJECTED" and error["exit_code"] == 3
        assert error["attempts"] >= 1 and error["reason"]

        malformed = await rpc(port, reserve_msg(3, 0.0, -1.0, 2))
        assert not malformed["ok"]
        assert malformed["error"]["code"] == "MALFORMED"
        assert malformed["error"]["exit_code"] == 2

        await service.stop()

    run(scenario())


def test_bad_lines_answered_without_poisoning_the_connection():
    async def scenario():
        service = await start_service(n_servers=2, tau=10.0, q_slots=8)
        garbage, unknown, retired, status = await rpc_all(
            service.port,
            b"this is not json\n",
            {"op": "frobnicate"},
            # an op of the deleted shard tier is as unknown as any other
            {"op": "shard_load", "lo": 0, "state": {}, "hwm": 0},
            {"op": "status"},
        )
        assert garbage["error"]["code"] == "MALFORMED"
        assert unknown["error"]["code"] == "MALFORMED"
        assert retired["error"]["code"] == "MALFORMED"
        assert "unknown op 'shard_load'" in retired["error"]["message"]
        assert status["ok"] and status["op"] == "status"
        assert "shards" not in status
        assert service.metrics.malformed == 3
        await service.stop()

    run(scenario())


NON_FINITE_LINES = [
    b'{"op":"reserve","rid":2,"sr":0,"lr":Infinity,"nr":1}\n',
    b'{"op":"reserve","rid":2,"sr":NaN,"lr":5,"nr":1}\n',
    b'{"op":"reserve","rid":2,"sr":0,"lr":5,"nr":1,"qr":NaN}\n',
    b'{"op":"reserve","rid":2,"sr":0,"lr":5,"nr":1,"deadline":Infinity}\n',
    b'{"op":"probe","ta":0,"tb":Infinity}\n',
    b'{"op":"add_servers","count":1,"qr":-Infinity}\n',
    b'{"op":"reserve","rid":2,"sr":1e999,"lr":5,"nr":1}\n',
    b'{"op":"reserve","rid":2,"sr":' + b"9" * 400 + b',"lr":5,"nr":1}\n',
]


def _fingerprint(status: dict) -> tuple:
    return (status["now"], status["decided"], status["log"]["hwm"], status["pool"])


def test_non_finite_numbers_are_malformed_at_the_door(tmp_path):
    """``json.loads`` reads NaN/Infinity; one granted ``[0, inf)`` used to
    fail every later snapshot and hang the connection that resent it."""

    async def scenario():
        service = await start_service(
            **SMALL, log_dir=str(tmp_path / "log"), snapshot_path=str(tmp_path / "s.snap")
        )
        before = _fingerprint(await rpc(service.port, {"op": "status"}))
        for line in NON_FINITE_LINES:
            # the bad line, a resend of it, then a good request: one connection
            bad, again, status = await rpc_all(service.port, line, line, {"op": "status"})
            for reply in (bad, again):
                assert reply["error"]["code"] == "MALFORMED", (line, reply)
                assert "finite" in reply["error"]["message"]
            assert _fingerprint(status) == before, line
        granted = await rpc(service.port, reserve_msg(2, 0.0, 5.0, 1))
        assert granted["ok"]
        assert (await rpc(service.port, {"op": "snapshot"}))["ok"]
        await service.stop()

    run(asyncio.wait_for(scenario(), timeout=30.0))  # the regression is a hang


def test_a_request_whose_ladder_overflows_the_clock_is_malformed(tmp_path):
    """Finite fields, non-finite sum: refused before the clock moves, and
    recorded like any other domain-malformed reserve (a resend replays)."""

    async def scenario():
        service = await start_service(
            **SMALL, log_dir=str(tmp_path / "log"), snapshot_path=str(tmp_path / "s.snap")
        )
        huge = reserve_msg(2, 1.7e308, 1.7e308, 1)
        first, again, status = await rpc_all(service.port, huge, huge, {"op": "status"})
        assert first["error"]["code"] == again["error"]["code"] == "MALFORMED"
        assert again["replayed"] and not first.get("replayed")
        assert status["now"] == 0.0 and status["active_allocations"] == 0
        assert status["decided"] == status["log"]["hwm"] == 1
        assert (await rpc(service.port, reserve_msg(3, 0.0, 5.0, 2)))["ok"]
        assert (await rpc(service.port, {"op": "snapshot"}))["ok"]
        await service.stop()

    run(asyncio.wait_for(scenario(), timeout=30.0))  # the regression is a hang


def test_an_unencodable_response_is_answered_not_dropped():
    """``seq`` is echoed as sent, and ``NaN`` is not JSON: the writer task
    used to die on it, leaving the client waiting for ever."""

    async def scenario():
        service = await start_service(**SMALL)
        bad, good = await asyncio.wait_for(
            rpc_all(service.port, b'{"op":"status","seq":NaN}\n', {"op": "status", "seq": 7}),
            timeout=5.0,
        )
        assert bad == {**bad, "ok": False, "op": "status"}
        assert bad["error"]["code"] == "INTERNAL"
        assert good["ok"] and good["seq"] == 7
        await service.stop()

    run(scenario())


def test_an_over_deep_line_is_malformed_and_the_connection_is_kept():
    """A line far under ``MAX_LINE_BYTES`` can nest deeper than the JSON
    parser recurses; its ``RecursionError`` used to kill the connection
    handler, so neither it nor the next request was answered."""
    deep = b'{"op":"status","seq":' + b"[" * 20_000 + b"]" * 20_000 + b"}\n"

    async def scenario():
        service = await start_service(**SMALL)
        bad, good = await asyncio.wait_for(
            rpc_all(service.port, deep, {"op": "status", "seq": 7}), timeout=10.0
        )
        assert bad["ok"] is False and bad["op"] is None
        assert bad["error"]["code"] == "MALFORMED"
        assert good["ok"] and good["seq"] == 7
        assert service.metrics.malformed == 1
        await service.stop()

    run(scenario())


def test_probe_limit_is_a_count_from_zero():
    """``limit`` lists the first ``limit`` periods: 0 lists none, and a
    negative limit is malformed (it once meant "all but the last few")."""

    async def scenario():
        service = await start_service(n_servers=4, tau=10.0, q_slots=4)
        window = {"op": "probe", "ta": 0.0, "tb": 5.0}
        full, none, two, over, negative, status = await rpc_all(
            service.port,
            window,
            {**window, "limit": 0},
            {**window, "limit": 2},
            {**window, "limit": 99},
            {**window, "limit": -1},
            {"op": "status"},
        )
        assert full["count"] == 4 and len(full["periods"]) == 4
        assert none["ok"] and none["count"] == 4 and none["periods"] == []
        assert two["count"] == 4 and two["periods"] == full["periods"][:2]
        assert over["periods"] == full["periods"]
        assert negative["error"]["code"] == "MALFORMED"
        assert "limit" in negative["error"]["message"]
        assert status["ok"]
        await service.stop()

    run(scenario())


def test_accepted_connections_read_in_bounded_chunks():
    """Every accepted connection caps asyncio's per-read recv buffer
    (see ``protocol.READ_CHUNK_BYTES`` for what the 256 KiB default costs)."""

    async def scenario():
        service = await start_service(**SMALL)
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        writer.write(b'{"op":"status"}\n')
        assert json.loads(await reader.readline())["ok"]
        (accepted,) = service._writers
        assert accepted.transport.max_size == READ_CHUNK_BYTES
        writer.close()
        await service.stop()

    run(scenario())


def test_pipelined_responses_come_back_fifo():
    async def scenario():
        service = await start_service(n_servers=16, tau=10.0, q_slots=8, max_batch=4)
        messages = [reserve_msg(rid, 0.0, 10.0, 1, seq=rid * 7) for rid in range(12)]
        responses = await rpc_all(service.port, *messages)
        assert [r["rid"] for r in responses] == list(range(12))
        assert [r["seq"] for r in responses] == [rid * 7 for rid in range(12)]
        assert all(r["ok"] for r in responses)
        # micro-batching happened but never exceeded its bound
        assert service.metrics.max_batch <= 4
        await service.stop()

    run(scenario())


def test_virtual_clock_advances_from_request_qr_only():
    async def scenario():
        service = await start_service(n_servers=4, tau=10.0, q_slots=8)
        await rpc(service.port, reserve_msg(1, 30.0, 10.0, 1, qr=30.0))
        status = await rpc(service.port, {"op": "status"})
        assert status["now"] == 30.0  # wall clock never moved it
        # an out-of-order (older qr) request does not rewind the clock
        late = await rpc(service.port, reserve_msg(2, 35.0, 5.0, 1, qr=20.0))
        assert late["ok"]
        status = await rpc(service.port, {"op": "status"})
        assert status["now"] == 30.0
        await service.stop()

    run(scenario())


def test_far_future_qr_does_not_hold_the_actor():
    """`qr` is unbounded on the wire; the clock jump it causes must cost
    at most one horizon of slot rollover, not one per slot passed."""

    async def scenario():
        service = await start_service(n_servers=128, tau=900.0, q_slots=96)
        started = perf_counter()
        far = await rpc(service.port, reserve_msg(1, 9e12, 1800.0, 4, qr=9e12))
        assert perf_counter() - started < 1.0
        assert far["ok"] and far["start"] == 9e12 and far["attempts"] == 1
        nxt = await rpc(service.port, reserve_msg(2, 9e12 + 900.0, 900.0, 128, qr=9e12 + 60.0))
        assert nxt["ok"] and nxt["start"] == 9e12 + 1800.0  # after rid 1 ends
        status = await rpc(service.port, {"op": "status"})
        assert status["now"] == 9e12 + 60.0
        await service.stop()

    run(scenario())


def test_status_reports_checksum_and_telemetry():
    async def scenario():
        service = await start_service(n_servers=4, tau=10.0, q_slots=8)
        await rpc(service.port, reserve_msg(1, 0.0, 10.0, 2))
        status = await rpc(service.port, {"op": "status"})
        assert status["protocol"] == 1
        assert status["decided"] == 1 and status["active_allocations"] == 1
        assert status["accepted_checksum"] == accepted_checksum(service.state.decided)
        assert len(status["accepted_checksum"]) == 16
        assert status["admission"]["depth"] == 0
        metrics = status["metrics"]
        assert metrics["ops"]["reserve"] == 1
        assert metrics["accepted"] == 1
        assert metrics["service_latency"]["count"] >= 1
        assert metrics["queue_wait"]["count"] >= 1
        await service.stop()

    run(scenario())


def test_shutdown_drains_then_refuses_and_snapshots(tmp_path):
    snapshot = tmp_path / "state.snap"

    async def scenario():
        service = await start_service(
            n_servers=2, tau=10.0, q_slots=8, snapshot_path=str(snapshot)
        )
        port = service.port
        accepted = await rpc(port, reserve_msg(1, 0.0, 10.0, 1))
        assert accepted["ok"]
        down = await rpc(port, {"op": "shutdown"})
        assert down["ok"] and down["snapshot"]["path"] == str(snapshot)
        assert down["accepted_checksum"] == accepted_checksum(service.state.decided)
        await service.wait_stopped()
        assert snapshot.exists()
        # the listener is gone: new connections fail or close immediately
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
        except OSError:
            return
        writer.write(json.dumps({"op": "status"}).encode() + b"\n")
        try:
            await writer.drain()
            raw = await reader.readline()
        except OSError:
            return
        assert raw == b""

    run(scenario())


def test_restart_from_snapshot_resumes_reservations(tmp_path):
    snapshot = tmp_path / "state.snap"
    config = dict(SMALL, snapshot_path=str(snapshot))

    async def first_life():
        service = await start_service(**config)
        accepted = await rpc(service.port, reserve_msg(1, 0.0, 40.0, 2))
        assert accepted["ok"]
        down = await rpc(service.port, {"op": "shutdown"})
        await service.wait_stopped()
        return down["accepted_checksum"]

    async def second_life(checksum):
        service = await start_service(**config)
        assert service.restored
        status = await rpc(service.port, {"op": "status"})
        assert status["restored"] and status["accepted_checksum"] == checksum

        # conflicts with the pre-snapshot reservation -> rejected
        conflicting = await rpc(service.port, reserve_msg(2, 0.0, 40.0, 2))
        assert not conflicting["ok"]
        assert conflicting["error"]["code"] == "REJECTED"

        # resending a pre-snapshot rid replays the original verdict
        replayed = await rpc(service.port, reserve_msg(1, 0.0, 40.0, 2))
        assert replayed["ok"] and replayed["replayed"] is True

        # cancelling the restored reservation frees the calendar again
        assert (await rpc(service.port, {"op": "cancel", "rid": 1}))["ok"]
        retry = await rpc(service.port, reserve_msg(3, 0.0, 40.0, 2))
        assert retry["ok"]
        await service.stop()

    checksum = run(first_life())
    run(second_life(checksum))


def test_shutdown_over_an_open_connection_exits_cleanly():
    """``repro serve`` shut down over a connection the client keeps open
    exits 0 with a quiet stderr: the handler of that connection finishes
    before the loop closes instead of being cancelled (whose stream
    callback used to print a ``CancelledError`` traceback)."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--servers", "2", "--tau", "10", "--q-slots", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src_dir),
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, line
        port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            conn.sendall(b'{"op":"shutdown"}\n')
            reply = conn.makefile("rb").readline()
            assert json.loads(reply)["ok"] is True
            # the connection is still open while the server exits
            _, stderr = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
    assert "Traceback" not in stderr, stderr
