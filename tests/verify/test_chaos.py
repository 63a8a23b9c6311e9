"""Chaos smoke: one real service subprocess per plan, faults injected,
ledger/oracle/snapshot all required to agree.

Marked slow+service: each test boots (and for kill-restart, SIGKILLs and
reboots) an actual ``repro serve`` process.  CI runs these in the fuzz
job; tier-1 skips them.
"""

from __future__ import annotations

import pytest

from repro.service.declog import ADMIN_KINDS
from repro.verify.chaos import ChaosPlan, run_chaos
from repro.verify.genstream import generate_stream

pytestmark = [pytest.mark.slow, pytest.mark.service]


def _assert_passed(report: dict) -> None:
    assert report["ledger_violations"] == []
    assert report["verdict_divergences_total"] == 0
    assert report["replay_mismatches"] == []
    assert report["duplicate_mismatches"] == []
    assert report["state_equal"]
    assert len(set(report["checksums"].values())) == 1
    assert report["passed"]


def test_kill_restart_preserves_decisions(tmp_path) -> None:
    """The restart replays its own log: every reserve and admin op
    decided between the snapshot and the kill answers ``replayed: true``
    with its pre-kill verdict when resent."""
    stream = generate_stream("dense", 11, 120)
    plan = ChaosPlan(kind="kill-restart")
    report = run_chaos(stream, plan, work_dir=str(tmp_path))
    assert report["restarts"] == 1
    ops = [op for op in stream.ops if op["kind"] != "restore"]
    lost = ops[len(ops) // 3 + 1 : 2 * len(ops) // 3 + 1]
    resent = sum(op["kind"] in ("reserve", *ADMIN_KINDS) for op in lost)
    assert report["replayed_resends"] == resent > 0
    _assert_passed(report)


def test_duplicate_sends_replay_recorded_verdicts(tmp_path) -> None:
    stream = generate_stream("dense", 12, 120)
    plan = ChaosPlan(kind="duplicate", duplicate_every=3)
    report = run_chaos(stream, plan, work_dir=str(tmp_path))
    assert report["duplicate_checks"] > 0
    _assert_passed(report)


def test_reordered_stream_still_matches_oracle(tmp_path) -> None:
    stream = generate_stream("sparse", 13, 120)
    plan = ChaosPlan(kind="reorder", reorder_window=5, seed=13)
    report = run_chaos(stream, plan, work_dir=str(tmp_path))
    _assert_passed(report)


def test_scale_events_sigkill_mid_drain_restores_pool_and_verdicts(tmp_path) -> None:
    """SIGKILL lands right after the first drain past the snapshot; the
    restart must re-decide the lost window identically AND land on the
    exact pool membership the kill interrupted.  Every pool mutation is
    also sent twice — the duplicate must answer ``replayed: true`` from
    the aid-keyed exactly-once table."""
    stream = generate_stream("dense", 21, 150, scale_events=True)
    assert any(op["kind"] == "drain" for op in stream.ops)
    report = run_chaos(stream, ChaosPlan(kind="scale-events"), work_dir=str(tmp_path))
    assert report["restarts"] == 1
    assert report["scale_ops"] > 0
    assert report["duplicate_checks"] > 0
    assert report["pool_restore_mismatch"] is None
    assert report["pool_equal"]
    _assert_passed(report)
