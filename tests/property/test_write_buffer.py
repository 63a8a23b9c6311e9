"""Write-buffered slot tree ≡ the eager flat-list reference.

``repro.core.slot_tree.TwoDimTree`` only *notes* ``insert``/``remove``
and applies the notes, as one fused ``apply_batch``, when the tree is
next read.  ``repro.verify.oracle.ReferenceTree`` updates eagerly.  Under any
history of writes interleaved with any read, every read must answer what
the eager tree answers — and the buffer's own rules (a remove cancels a
pending insert, ``KeyError`` at the call and not at the flush, nothing
stored or counted until something is read) each get a case a mutation of
that rule fails.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calendar import AvailabilityCalendar
from repro.core.opcount import OpCounter
from repro.core.slot_tree import TwoDimTree
from repro.core.types import IdlePeriod
from repro.verify.oracle import ReferenceTree

from .test_array_equivalence import (
    READS,
    WRITES,
    _assert_query_equivalent,
    _uids,
    period_pools,
    run_history,
)

_times = st.floats(min_value=0.0, max_value=500.0, allow_nan=False, width=32)


class TestBufferedEqualsEager:
    @given(
        pool=period_pools(max_size=40),
        script=st.lists(
            st.tuples(st.sampled_from(WRITES + tuple(READS)), st.integers(0, 10**6)),
            max_size=80,
        ),
        sr=_times,
    )
    @settings(max_examples=150, deadline=None)
    def test_history(self, pool, script, sr):
        run_history([], pool, script, sr, span=4)


class TestBufferRules:
    @pytest.mark.parametrize("read", sorted(READS) + ["contains"])
    def test_every_read_flushes(self, read):
        """Each read on its own sees a write made just before it."""
        tree = TwoDimTree()
        p = IdlePeriod(server=0, st=1.0, et=90.0, uid=0)
        tree.insert(p)
        if read == "contains":
            assert p in tree
        else:
            expected = {
                "phase1": 1,
                "count_candidates": 1,
                "find_feasible": [],  # needs two periods
                "range_search": [p.uid],
                "max_end": 90.0,
                "len": 1,
                "periods": [p.uid],
            }[read]
            assert READS[read](tree, 5.0) == expected
        assert not tree._ins and tree._by_uid == {p.uid: p}
        q = IdlePeriod(server=1, st=2.0, et=95.0, uid=1)
        tree.insert(q)
        tree.remove(p)
        if read == "contains":
            assert p not in tree
        elif read == "find_feasible":
            assert tree.find_feasible(5.0, 45.0, 1) == [q]
        else:
            expected = {
                "phase1": 1,
                "count_candidates": 1,
                "range_search": [q.uid],
                "max_end": 95.0,
                "len": 1,
                "periods": [q.uid],
            }[read]
            assert READS[read](tree, 5.0) == expected
        assert not tree._ins and not tree._rem

    def test_remove_of_pending_insert_cancels(self):
        counter = OpCounter()
        tree = TwoDimTree(counter)
        p = IdlePeriod(server=0, st=1.0, et=2.0, uid=0)
        tree.insert(p)
        tree.remove(p)
        assert not tree._ins and not tree._rem
        assert not tree._by_uid and tree._leaves == []
        assert len(tree) == 0 and p not in tree
        assert counter.total() == 0  # the leaves never saw the pair
        with pytest.raises(KeyError):
            tree.remove(p)

    def test_reinsert_after_flush(self):
        tree, spec = TwoDimTree(), ReferenceTree()
        p = IdlePeriod(server=0, st=1.0, et=20.0, uid=0)
        for t in (tree, spec):
            t.insert(p)
        assert len(tree) == 1
        for t in (tree, spec):
            t.remove(p)
        assert len(tree) == 0
        for t in (tree, spec):
            t.insert(p)
        _assert_query_equivalent(tree, spec, [5.0])
        assert _uids(tree.periods()) == [p.uid]

    def test_key_error_is_raised_at_the_call(self):
        tree = TwoDimTree()
        stored = IdlePeriod(server=0, st=1.0, et=20.0, uid=0)
        tree.insert(stored)
        assert len(tree) == 1
        absent = IdlePeriod(server=1, st=3.0, et=9.0, uid=1)
        with pytest.raises(KeyError):
            tree.remove(absent)  # neither stored nor buffered
        tree.remove(stored)
        with pytest.raises(KeyError):
            tree.remove(stored)  # its removal is already buffered
        # neither failure left anything behind for the flush to trip on
        assert list(tree._rem) == [stored.uid] and not tree._ins
        assert len(tree) == 0


def _verdict(action) -> str | None:
    try:
        action()
    except KeyError:
        return "KeyError"
    return None


def _state(tree: TwoDimTree):
    return sorted(tree._ins), sorted(tree._rem), list(tree._leaves), tree._max_et


class TestInsertMany:
    """``insert_many`` is ``insert`` of each period in turn (DESIGN.md
    §21): the same buffer, stored leaves, cached maximum and
    operation counts, and the same ``KeyError`` verdict for every later
    ``remove`` — a remove that cancels a batched insert in the same
    buffer included."""

    @given(
        pool=period_pools(max_size=30),
        stored=st.lists(st.integers(0, 10**6), max_size=15),
        pending=st.lists(st.integers(0, 10**6), max_size=5),
        batch=st.lists(st.integers(0, 10**6), max_size=15),
        later=st.lists(
            st.tuples(st.sampled_from(["remove", "remove", "read"]), st.integers(0, 10**6)),
            max_size=30,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_per_item_insert(self, pool, stored, pending, batch, later):
        if not pool:
            return
        held = {pool[i % len(pool)].uid: pool[i % len(pool)] for i in stored}
        fresh = [p for p in pool if p.uid not in held]
        counters = OpCounter(), OpCounter()
        one_by_one, grouped = (TwoDimTree(counter) for counter in counters)
        for tree in (one_by_one, grouped):
            for p in held.values():
                tree.insert(p)
            assert len(tree) == len(held)
            # removals already buffered when the batch arrives
            for i in pending:
                if held:
                    _verdict(lambda: tree.remove(list(held.values())[i % len(held)]))
        notes = {fresh[i % len(fresh)].uid: fresh[i % len(fresh)] for i in batch} if fresh else {}
        for p in notes.values():
            one_by_one.insert(p)
        grouped.insert_many(notes)
        assert _state(grouped) == _state(one_by_one)
        for kind, i in later:
            if kind == "read":
                assert grouped.max_end() == one_by_one.max_end()
            else:
                p = pool[i % len(pool)]
                assert _verdict(lambda: grouped.remove(p)) == _verdict(
                    lambda: one_by_one.remove(p)
                )
            assert _state(grouped) == _state(one_by_one)
        assert len(grouped) == len(one_by_one)
        assert _state(grouped) == _state(one_by_one)
        assert counters[1].snapshot() == counters[0].snapshot()

    def test_a_remove_cancels_a_batched_insert(self):
        tree = TwoDimTree()
        a = IdlePeriod(server=0, st=1.0, et=20.0, uid=0)
        b = IdlePeriod(server=1, st=2.0, et=30.0, uid=1)
        tree.insert_many({a.uid: a, b.uid: b})
        tree.remove(a)
        with pytest.raises(KeyError):
            tree.remove(a)  # cancelled, so neither stored nor buffered
        assert list(tree._ins) == [b.uid] and not tree._rem
        assert [p.uid for p in tree.periods()] == [b.uid]

    def test_the_dict_is_copied_not_shared(self):
        """The calendar hands one dict to many slots: a note cancelled in
        one tree stays noted in the others."""
        first, second = TwoDimTree(), TwoDimTree()
        a = IdlePeriod(server=0, st=1.0, et=20.0, uid=0)
        notes = {a.uid: a}
        first.insert_many(notes)
        second.insert_many(notes)
        first.remove(a)
        assert notes == {a.uid: a} and len(first) == 0 and len(second) == 1


class TestCalendarLevel:
    def test_slot_written_and_rolled_over_unread_never_builds_a_kernel(self):
        counter = OpCounter()
        cal = AvailabilityCalendar(64, 10.0, 8, counter=counter)
        assert not cal._trees  # a slot gets its tree on the first write
        # 50 carves of trailing periods, each leaving a bounded remnant in
        # slot 5; nothing searches that slot
        for server in range(50):
            (trailing,) = cal.idle_periods(server)
            cal.allocate([trailing], 55.0, 58.0)
        assert sorted(cal._trees) == [0, 1, 2, 3, 4, 5]
        tree = cal._trees[5]
        assert len(tree._ins) == 50 and not tree._by_uid and tree._leaves == []
        cal.validate()  # audits the buffered content without flushing it
        assert len(tree._ins) == 50 and not tree._by_uid and tree._leaves == []
        before = counter.snapshot()
        cal.advance(60.0)  # slot 5 expires
        assert 5 not in cal._trees
        assert not tree._by_uid and tree._leaves == []
        after = counter.snapshot()
        for name in ("node_visit", "rebuild"):
            assert after.get(name, 0) == before.get(name, 0) == 0
        cal.validate()

    def test_restore_never_hands_a_uid_over(self):
        """``from_state`` builds the recorded periods into an empty
        calendar, so no slot tree holds a note to remove one holder of a
        uid and insert another — even where the recorded uids are the
        ones a fresh calendar gives its own first periods."""
        state = {
            "n_servers": 3,
            "tau": 10.0,
            "q_slots": 4,
            "now": 0.0,
            "next_uid": 102,
            "pool": ["active"] * 3,
            "periods": [
                [[0.0, 5.0, 1], [15.0, None, 0]],
                [[0.0, None, 2]],
                [[0.0, 12.0, 100], [30.0, None, 101]],
            ],
        }
        cal = AvailabilityCalendar.from_state(state)
        assert sorted(cal._trees) == [0, 1]  # the two bounded periods' slots
        for tree in cal._trees.values():
            assert not tree._rem and not tree._by_uid and tree._leaves == []
        assert [p.uid for p in cal.idle_periods(0)] == [1, 0]
        cal.validate()
        assert sorted((p.server, p.uid) for p in cal._trees[0].periods()) == [(0, 1), (2, 100)]
        assert cal.export_state() == state
        assert [p.server for p in cal.find_feasible(16.0, 25.0, 2)] == [0, 1]
        assert cal._trees[1].max_end() == 12.0
