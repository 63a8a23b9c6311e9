"""Replay the minimized trace corpus against the differential oracle.

Every trace in ``tests/verify/corpus/`` is a shrunk or hand-minimized
stream that once exposed (or was designed to expose) a real divergence
class: fractional-τ slot boundaries, equal-end-key ties, snapshot/restore
identity, unbounded tail top-up, cancel-release merging, horizon
rollover.  Replaying them lock-step against the reference scheduler must
stay divergence-free forever.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.verify.differ import load_trace, run_stream

CORPUS = Path(__file__).parent / "corpus"
TRACES = sorted(CORPUS.glob("*.json"))


def test_corpus_is_seeded() -> None:
    assert len(TRACES) >= 5, "the minimized corpus must hold at least five traces"


@pytest.mark.parametrize("path", TRACES, ids=lambda p: p.stem)
def test_corpus_trace_replays_clean(path: Path) -> None:
    stream = load_trace(str(path))
    result = run_stream(stream, state_stride=1)
    assert result.divergence is None, result.divergence.describe()
    assert result.ops_run == len(stream.ops)


def test_equal_end_ties_trace_catches_reverse_tiebreak() -> None:
    """The ties trace is a live tripwire, not a fixture: breaking the
    canonical (end, uid) selection order must flip it to a divergence."""
    stream = load_trace(str(CORPUS / "equal_end_ties.json"))
    result = run_stream(stream, inject="reverse-tiebreak")
    assert result.divergence is not None
    assert len(stream.ops) <= 10


def test_restore_slot_boundary_trace_crosses_a_float_boundary() -> None:
    """The regression trace must actually sit on a point where naive
    floor division and the robust ``slot_of`` disagree — otherwise it
    guards nothing."""
    import math

    stream = load_trace(str(CORPUS / "restore_slot_boundary.json"))
    tau = stream.config["tau"]
    reserve = next(op for op in stream.ops if op["kind"] == "reserve")
    t = reserve["sr"]
    q = int(t // tau)
    while (q + 1) * tau <= t:
        q += 1
    while q * tau > t:
        q -= 1
    assert int(math.floor(t / tau)) != q
