"""Differential equivalence: the slot tree vs the flat-list reference.

``repro.core.slot_tree`` stores a tree as a sorted array and the balanced
tree it implies; ``repro.verify.oracle.ReferenceTree`` is a Python list
read by linear scans and ``sorted`` — the executable specification.
Every query answer and the stored content must agree between the two
under arbitrary operation streams — including the fused ``apply_batch``
path, which the reference models as sequential remove-then-insert.

Phase-2 selection is a pure function of stored periods (the canonical
``(et, uid)`` order), so equal contents must yield *identical* selection
sequences, not just equal sets.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slot_tree import TwoDimTree, backend_info
from repro.core.types import INF, IdlePeriod
from repro.verify.oracle import ReferenceTree

_times = st.floats(min_value=0.0, max_value=500.0, allow_nan=False, width=32)


@st.composite
def period_pools(draw, max_size=300):
    # the N = 512 hot-path trace holds up to 288 periods in one tree
    n = draw(st.integers(min_value=0, max_value=max_size))
    periods = []
    for uid in range(n):
        a, b = draw(_times), draw(_times)
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            hi = lo + 1.0
        if draw(st.integers(0, 9)) == 0:
            hi = INF
        periods.append(IdlePeriod(server=draw(st.integers(0, 15)), st=lo, et=hi, uid=uid))
    return periods


@st.composite
def op_scripts(draw):
    return draw(
        st.lists(
            st.tuples(st.sampled_from(["insert", "remove"]), st.integers(0, 10**6)),
            max_size=100,
        )
    )


def _uids(periods) -> list[int]:
    return [p.uid for p in periods]


def _assert_query_equivalent(arr: TwoDimTree, spec: ReferenceTree, probes: list[float]) -> None:
    """Every query answer must match between the two implementations."""
    assert len(arr) == len(spec)
    assert _uids(arr.periods()) == _uids(spec.periods())
    assert arr.max_end() == spec.max_end()
    for p in spec.periods():
        assert p in arr
    for sr in probes:
        ca, _ = arr.phase1(sr)
        cs, _ = spec.phase1(sr)
        assert ca == cs
        for dur in (0.5, 40.0):
            er = sr + dur
            # full listing: canonical (et, uid) order must be identical
            assert _uids(arr.range_search(sr, er)) == _uids(spec.range_search(sr, er))
            for nr in (1, 3, ca):
                if nr < 1:
                    continue
                fa = arr.find_feasible(sr, er, nr)
                fs = spec.find_feasible(sr, er, nr)
                if fa is None or fs is None:
                    assert fa is None and fs is None
                else:
                    assert _uids(fa) == _uids(fs)
        # partial phase-2: return what exists instead of None
        _, marks_a = arr.phase1(sr)
        _, marks_s = spec.phase1(sr)
        pa = arr.phase2(marks_a, sr + 40.0, 10**9, partial=True)
        ps = spec.phase2(marks_s, sr + 40.0, 10**9, partial=True)
        assert _uids(pa) == _uids(ps)


WRITES = ("insert", "remove", "apply_batch", "bulk_load")

# every read of the shared surface, by name; ``sr`` is the history's probe time
READS = {
    "phase1": lambda t, sr: t.phase1(sr)[0],
    "count_candidates": lambda t, sr: t.count_candidates(sr),
    "find_feasible": lambda t, sr: _uids(t.find_feasible(sr, sr + 40.0, 2) or []),
    "range_search": lambda t, sr: _uids(t.range_search(sr, sr + 0.5)),
    "max_end": lambda t, sr: t.max_end(),
    "len": lambda t, sr: len(t),
    "periods": lambda t, sr: _uids(t.periods()),
}


def run_history(seeded, incoming, script, sr, span):
    """Drive a buffered tree and the eager reference through ``script``.

    Both start holding ``seeded``; writes draw on ``incoming``.
    ``span`` caps how many periods one ``apply_batch``/``bulk_load`` moves.
    Every read in the script must answer alike on both — the read under
    test comes first, so it alone must flush — and so must every other
    read after it.
    """
    arr, spec = TwoDimTree(), ReferenceTree()
    live, todo = list(seeded), list(incoming)
    if live:  # else the buffered tree starts with nothing stored
        arr.bulk_load(live)
        spec.bulk_load(live)
    for op, pick in script:
        if op == "insert" and todo:
            p = todo.pop(pick % len(todo))
            arr.insert(p)
            spec.insert(p)
            live.append(p)
        elif op == "remove" and live:
            p = live.pop(pick % len(live))
            arr.remove(p)
            spec.remove(p)
        elif op == "apply_batch":
            removals = [live.pop() for _ in range(min(len(live), pick % span))]
            inserts = [todo.pop() for _ in range(min(len(todo), pick // span % span))]
            arr.apply_batch(removals, inserts)
            for p in removals:
                spec.remove(p)
            for p in inserts:
                spec.insert(p)
            live.extend(inserts)
        elif op == "bulk_load":
            todo.extend(live)
            live = [todo.pop() for _ in range(min(len(todo), pick % (span + 2)))]
            arr.bulk_load(live)
            spec.bulk_load(live)
        elif op in READS:
            assert READS[op](arr, sr) == READS[op](spec, sr), op
            _assert_query_equivalent(arr, spec, [sr])
            arr.validate()
    _assert_query_equivalent(arr, spec, [sr])
    arr.validate()


class TestOpStreamEquivalence:
    @given(pool=period_pools(), script=op_scripts(), probes=st.lists(_times, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_insert_remove_stream(self, pool, script, probes):
        arr, spec = TwoDimTree(), ReferenceTree()
        live: list[IdlePeriod] = []
        todo = list(pool)
        for op, pick in script:
            if op == "insert" and todo:
                p = todo.pop(pick % len(todo))
                arr.insert(p)
                spec.insert(p)
                live.append(p)
            elif op == "remove" and live:
                p = live.pop(pick % len(live))
                arr.remove(p)
                spec.remove(p)
        arr.validate()
        _assert_query_equivalent(arr, spec, probes)

    @given(pool=period_pools(), probes=st.lists(_times, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_bulk_load(self, pool, probes):
        arr, spec = TwoDimTree(), ReferenceTree()
        arr.bulk_load(pool)
        spec.bulk_load(pool)
        arr.validate()
        _assert_query_equivalent(arr, spec, probes)

    @given(
        pool=period_pools(),
        split=st.integers(0, 10**6),
        drop=st.integers(0, 10**6),
        probes=st.lists(_times, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_apply_batch_matches_sequential_spec(self, pool, split, drop, probes):
        """The fused batch path must land on the same contents and answers
        as the reference doing each removal then each insert one at a time
        (batch size vs tree size varies freely here)."""
        if not pool:
            return
        cut = split % (len(pool) + 1)
        seeded, incoming = pool[:cut], pool[cut:]
        arr, spec = TwoDimTree(), ReferenceTree()
        arr.bulk_load(seeded)
        spec.bulk_load(seeded)
        n_drop = drop % (len(seeded) + 1)
        removals = seeded[:n_drop]
        arr.apply_batch(removals, incoming)
        for p in removals:
            spec.remove(p)
        for p in incoming:
            spec.insert(p)
        arr.validate()
        _assert_query_equivalent(arr, spec, probes)

    @given(
        pool=period_pools(),
        script=st.lists(
            st.tuples(st.sampled_from(WRITES + tuple(READS)), st.integers(0, 10**6)),
            max_size=40,
        ),
        sr=_times,
    )
    @settings(max_examples=60, deadline=None)
    def test_history_at_the_tree_sizes_that_occur(self, pool, script, sr):
        """Buffered writes, direct batches, reloads and every read,
        interleaved on a tree of up to a few hundred periods."""
        half = len(pool) // 2
        run_history(pool[:half], pool[half:], script, sr, span=64)

    @given(pool=period_pools(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_apply_batch_missing_removal_raises(self, pool):
        arr = TwoDimTree()
        arr.bulk_load(pool)
        ghost = IdlePeriod(server=0, st=1.0, et=2.0, uid=-1)
        with pytest.raises(KeyError):
            arr.apply_batch([ghost], [])


class TestSnapshotByteIdentity:
    def test_export_restore_export_is_byte_identical(self):
        """Snapshot round-trip on the array-backed layout: the calendar's
        exported state — and therefore the persisted snapshot bytes — must
        survive export → restore → export unchanged after a workload that
        exercises the batch-reserve path."""
        from repro.core.calendar import AvailabilityCalendar
        from repro.service.snapshot import snapshot_bytes

        cal = AvailabilityCalendar(n_servers=16, tau=900.0, q_slots=96)
        t = 0.0
        for i in range(40):
            sr, er = t + 100.0 * (i % 7), t + 100.0 * (i % 7) + 450.0
            found = cal.find_feasible(sr, er, 1 + i % 4)
            if found is not None:
                cal.allocate(found, sr, er, rid=i)
            if i % 9 == 4:
                cal.advance(t + 50.0)
                t += 50.0
        first = cal.export_state()
        restored = AvailabilityCalendar.from_state(first)
        second = restored.export_state()
        assert snapshot_bytes(first) == snapshot_bytes(second)
        # and the restored calendar answers queries identically
        probe = cal.find_feasible(t + 200.0, t + 600.0, 3)
        probe_restored = restored.find_feasible(t + 200.0, t + 600.0, 3)
        if probe is None:
            assert probe_restored is None
        else:
            assert _uids(probe) == _uids(probe_restored)


def test_backend_info_is_the_constant_the_benchmarks_embed() -> None:
    """``benchmarks/stack/run.py`` records this beside every result and
    ``benchmarks/bench_hotpath.py`` reads its ``backend``."""
    assert backend_info() == {"backend": "pure-python", "compiled": False}


def test_phase2_inf_need_equals_int_overshoot() -> None:
    """``need=math.inf`` (the range-search calling convention) must list
    exactly what a huge integer ``need`` with ``partial=True`` lists."""
    tree = TwoDimTree()
    tree.bulk_load(
        [IdlePeriod(server=s, st=float(s % 5), et=float(50 + s), uid=s) for s in range(30)]
    )
    _, marks = tree.phase1(10.0)
    full = tree.phase2(list(marks), 60.0, math.inf)
    _, marks2 = tree.phase1(10.0)
    overshoot = tree.phase2(list(marks2), 60.0, 10**9, partial=True)
    assert _uids(full) == _uids(overshoot)
