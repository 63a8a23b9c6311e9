"""Chaos plans: real subprocesses per plan, faults injected,
ledger/oracle/snapshot all required to agree.

Marked slow+service: each test boots an actual ``repro serve`` process
and a ``repro gateway`` or a ``repro follow`` beside it.  CI runs these
in the slow tier; tier-1 skips them.  The faults that are only a
restart, a resend or an op order are tier-1 tests (DESIGN.md §28).
"""

from __future__ import annotations

import pytest

from repro.verify.chaos import ChaosPlan, run_chaos
from repro.verify.genstream import generate_stream

pytestmark = [pytest.mark.slow, pytest.mark.service]


def _assert_passed(report: dict) -> None:
    assert report["ledger_violations"] == []
    assert report["verdict_divergences_total"] == 0
    assert report["replay_mismatches"] == []
    assert report["state_equal"] and report["pool_equal"]
    assert len(set(report["checksums"].values())) == 1
    assert report["passed"]


def test_front_door_replays_every_op_over_http(tmp_path) -> None:
    """Every op, pool mutations included, goes through a real gateway;
    the verdicts and the final state are the raw-TCP oracle's."""
    stream = generate_stream("dense", 21, 150, scale_events=True)
    assert any(op["kind"] == "drain" for op in stream.ops)
    report = run_chaos(stream, ChaosPlan(kind="front-door"), work_dir=str(tmp_path))
    assert report["restarts"] == 0
    _assert_passed(report)


def test_kill_promote_finishes_on_the_follower(tmp_path) -> None:
    """SIGKILL the primary with no snapshot, promote the follower, resend
    what its cursor had not reached: one accepted checksum throughout."""
    stream = generate_stream("dense", 11, 120)
    report = run_chaos(stream, ChaosPlan(kind="kill-promote"), work_dir=str(tmp_path))
    assert report["restarts"] == 1
    assert report["promote"]["ok"] and report["promote"]["hwm"] > 0
    _assert_passed(report)
