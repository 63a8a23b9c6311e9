"""Fault-injection self-test: the differ must catch seeded bugs and
shrink them to tiny repros.

A fuzzer that never fails proves nothing.  These tests patch the slot
tree's Phase-2 selection with two known-wrong orders, and the retry
ladder's infeasibility certificate with an off-by-one, and require the
lock-step comparison to (a) notice, (b) delta-debug the stream down to a
handful of operations, and (c) emit a self-contained failing pytest.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core.calendar import AvailabilityCalendar
from repro.core.coalloc import OnlineCoAllocator
from repro.core.types import make_period
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


def test_remnant_uid_order_is_a_state_divergence() -> None:
    """Production and oracle number their periods alike, so the differ
    compares uids: a carve that draws the right remnant's uid before the
    left one's is caught by the state comparison right after the first
    reserve that leaves two remnants — not at some later tie-break."""
    allocate = AvailabilityCalendar.allocate
    schedule_detailed = OnlineCoAllocator.schedule_detailed
    deciding: list[int] = []  # rids of the reserves scheduled, in order
    paired: list[int] = []  # rids whose carve swapped a pair, in order

    def tracked(self, request):  # type: ignore[no-untyped-def]
        deciding.append(request.rid)
        return schedule_detailed(self, request)

    def right_remnant_first(self, periods, start, end):  # type: ignore[no-untyped-def]
        # one uid shift per remnant built: a period leaving two remnants
        # gives its left remnant the right one's uid and vice versa
        shifts: list[int] = []
        for period in periods:
            if period.st < start and end < period.et:
                shifts += [1, -1]
            elif period.st < start or end < period.et:
                shifts.append(0)
        if 1 in shifts:
            paired.append(deciding[-1])
        shift = iter(shifts)

        def swapped(server, st, et, uid):  # type: ignore[no-untyped-def]
            return make_period(server, st, et, uid + next(shift))

        with mock.patch("repro.core.calendar.make_period", swapped):
            return allocate(self, periods, start, end)

    stream = generate_stream("dense", 0, 400)
    with (
        mock.patch.object(AvailabilityCalendar, "allocate", right_remnant_first),
        mock.patch.object(OnlineCoAllocator, "schedule_detailed", tracked),
    ):
        result = run_stream(stream)
    assert paired, "no reserve carved a period into two remnants"
    first = next(
        index
        for index, op in enumerate(stream.ops)
        if op["kind"] == "reserve" and int(op["rid"]) == paired[0]
    )
    assert result.divergence is not None
    assert (result.divergence.kind, result.divergence.index) == ("state", first)


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
