"""Fault-injection self-test: the differ must catch seeded bugs and
shrink them to tiny repros.

A fuzzer that never fails proves nothing.  These tests patch the slot
tree's Phase-2 selection with two known-wrong orders, and the retry
ladder's infeasibility certificate with an off-by-one, and require the
lock-step comparison to (a) notice, (b) delta-debug the stream down to a
handful of operations, and (c) emit a self-contained failing pytest.
"""

from __future__ import annotations

import pytest

from repro.verify.differ import (
    INJECTIONS,
    emit_pytest,
    inject_bug,
    run_stream,
    shrink_stream,
)
from repro.verify.genstream import generate_stream

#: the profile each injection is hunted on: selection bugs need equal-end
#: ties, the ladder bug is sought where several grid points share a slot
PROFILE = {"skip-past-feasible": "fine-grid"}


@pytest.mark.parametrize("kind", sorted(INJECTIONS))
def test_injected_selection_bug_is_caught(kind: str) -> None:
    stream = generate_stream(PROFILE.get(kind, "ties"), 0, 400)
    result = run_stream(stream, inject=kind)
    assert result.divergence is not None, f"injection {kind!r} went unnoticed"


def test_clean_run_stays_clean_after_injection_context() -> None:
    """The patches must not leak out of the context manager."""
    stream = generate_stream("ties", 0, 200)
    assert run_stream(stream, inject="reverse-tiebreak").divergence is not None
    assert run_stream(stream, inject="skip-past-feasible").divergence is not None
    assert run_stream(stream).divergence is None


@pytest.mark.parametrize("kind", sorted(INJECTIONS))
def test_shrink_reaches_a_tiny_repro(kind: str) -> None:
    stream = generate_stream(PROFILE.get(kind, "ties"), 0, 400)
    shrunk = shrink_stream(stream, inject=kind)
    assert shrunk is not None
    assert len(shrunk.stream.ops) <= 10
    # the minimized stream still reproduces
    assert run_stream(shrunk.stream, inject=kind).divergence is not None
    # and is 1-minimal: dropping any single op loses the divergence
    for index in range(len(shrunk.stream.ops)):
        pruned = type(shrunk.stream)(
            config=dict(shrunk.stream.config),
            ops=[op for i, op in enumerate(shrunk.stream.ops) if i != index],
            profile=shrunk.stream.profile,
            seed=shrunk.stream.seed,
        )
        assert run_stream(pruned, inject=kind).divergence is None


def test_emitted_pytest_is_self_contained(tmp_path) -> None:
    stream = generate_stream("ties", 0, 300)
    shrunk = shrink_stream(stream, inject="reverse-tiebreak")
    assert shrunk is not None
    source = emit_pytest(shrunk, name="reverse_tiebreak_repro")
    assert "def test_reverse_tiebreak_repro" in source
    assert "TRACE" in source
    # run the emitted file for real: on correct code the trace replays
    # clean, and with the seeded bug active the same test must fail —
    # exactly the red/green cycle the generated repro promises
    namespace: dict[str, object] = {}
    exec(compile(source, "emitted_repro.py", "exec"), namespace)
    test = namespace["test_reverse_tiebreak_repro"]
    test()
    with inject_bug("reverse-tiebreak"), pytest.raises(AssertionError):
        test()
