"""A real ``repro serve`` for a short stream: the gate passes, then catches a lie."""

import json

import pytest

import inproc
import wire
from checks import check_phase
from streams import WORKLOADS, build_stream


@pytest.mark.parametrize("name", ["mixed-tcp", "mixed-http"])
def test_gate_passes_honest_replies_and_fails_a_corrupted_one(tmp_path, name):
    w = WORKLOADS[name]
    http = w.transport == "http"
    stream = build_stream(w, 5, 120)
    payloads = [wire.payload(m, http) for m in stream]
    sut = wire.Sut(http, tmp_path)
    try:
        phase = wire.closed(sut.connection, payloads, cap_s=30.0, window=32)
        status = sut.connection.status()
    finally:
        rss_mb = sut.stop()
    assert rss_mb > 0 and sut.setup_s > 0 and phase.sent == 120
    replies = [json.loads(body) for body in phase.replies]
    reference = inproc.replay(stream, http).verdicts
    assert check_phase("closed32", stream, replies, reference, status) == (0, [])

    # one accepted reserve now claims another start time
    victim = next(r for r in replies if r["op"] == "reserve" and r["ok"])
    victim["start"] += 900.0
    failed, problems = check_phase("closed32", stream, replies, reference, status)
    assert failed == 120
    assert any("verdict digest" in p for p in problems)

    # a shed request is a failed operation, not a verdict
    victim["start"] -= 900.0
    replies[-1] = {"ok": False, "op": stream[-1]["op"], "error": {"code": "BUSY"}}
    failed, _ = check_phase("closed32", stream, replies, reference, status)
    assert failed == 120  # and the digest no longer matches the reference either


def test_a_connection_that_dies_fails_the_phase_and_the_run_still_reports(tmp_path):
    import run as harness

    run = harness.Run(WORKLOADS["mixed-tcp"], 5, 1.0)
    run.work = tmp_path
    run.build(100)

    chunks = []

    def drive(connection, chunk, cap_s):
        chunks.append(chunk)
        if len(chunks) == 2:
            connection.sock.shutdown(2)  # the next receive sees the connection closed
        return wire.solo(connection, chunk, cap_s)

    measured = run.wire_phase("solo", drive, 100, share=1.0)
    assert "Error" in measured.error
    assert 0 < len(measured.phase.replies) < 100
    run.check(inproc.replay(run.stream, False).verdicts)
    assert (run.attempted, run.failed) == (100, 100)
    assert run.problems == [f"solo: {measured.error}"]
