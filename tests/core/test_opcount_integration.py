"""Operation accounting across the data-structure stack.

Figure 7(b) depends on these counts being meaningful: searches must cost
O(log) visits, updates must record their work, and the counter totals
must be reproducible run to run.
"""

import math

from repro.core.calendar import AvailabilityCalendar
from repro.core.coalloc import OnlineCoAllocator
from repro.core.opcount import OpCounter
from repro.core.slot_tree import TwoDimTree
from repro.core.types import IdlePeriod, Request


class TestTreeCounting:
    def test_search_visits_are_logarithmic(self):
        counter = OpCounter()
        tree = TwoDimTree(counter)
        tree.bulk_load(
            [IdlePeriod(server=i, st=float(i), et=1000.0 + i) for i in range(256)]
        )
        counter.reset()
        tree.phase1(128.0)
        # a single root-to-leaf walk: well under 2·log2(256) visits
        assert counter.get("node_visit") <= 2 * math.log2(256)

    def test_phase1_marks_counted(self):
        counter = OpCounter()
        tree = TwoDimTree(counter)
        tree.bulk_load([IdlePeriod(server=i, st=float(i), et=1e6) for i in range(64)])
        counter.reset()
        _, marks = tree.phase1(63.0)
        assert counter.get("mark") == len(marks)

    def test_search_and_flush_counts_on_a_hand_built_tree(self):
        """Seven leaves imply the tree [0:7) -> [0:4) | [4:7) -> [0:2) |
        [2:4), [4:6) | [6:7): the counts below are read off that shape."""
        counter = OpCounter()
        tree = TwoDimTree(counter)
        periods = [IdlePeriod(server=s, st=float(s), et=60.0 - s) for s in range(7)]
        tree.bulk_load(periods)
        assert counter.snapshot() == {"rebuild": 7}
        counter.reset()
        # descent: root (marks [0:4)), [4:7), [4:6) (marks [4:5)), leaf [5:6)
        # Phase 2 bisects a 4-key and a 1-key secondary: 3 + 1 steps
        assert len(tree.find_feasible(4.5, 57.0, 2)) == 2
        assert counter.snapshot() == {
            "node_visit": 4,
            "mark": 2,
            "secondary_probe": 4,
            "retrieve": 2,
        }
        counter.reset()
        assert tree.find_feasible(4.5, 59.5, 2) is None  # probed, nothing retrieved
        assert counter.snapshot() == {"node_visit": 4, "mark": 2, "secondary_probe": 4}
        counter.reset()
        # the whole tree: root, [4:7), leaf [6:7) — one mark per step
        assert tree.count_candidates(9.0) == 7
        assert counter.snapshot() == {"node_visit": 3, "mark": 3}
        counter.reset()
        # a flush counts what it applied and the tree it settled
        tree.remove(periods[0])
        tree.remove(periods[1])
        tree.insert(IdlePeriod(server=9, st=2.5, et=70.0))
        assert counter.total() == 0
        assert tree.max_end() == 70.0
        assert counter.snapshot() == {"insert": 1, "remove": 2, "rebuild": 6}

    def test_updates_counted(self):
        """Tree work is counted when it happens — at the read that flushes
        the write buffer — and a pair that cancels in the buffer is free."""
        counter = OpCounter()
        tree = TwoDimTree(counter)
        p = IdlePeriod(server=0, st=1.0, et=2.0)
        tree.insert(p)
        assert counter.get("insert") == 0  # noted, not yet applied
        assert len(tree) == 1
        tree.remove(p)
        assert counter.get("remove") == 0
        assert len(tree) == 0
        assert counter.get("insert") == 1
        assert counter.get("remove") == 1

        counter.reset()
        tree.insert(p)
        tree.remove(p)
        assert len(tree) == 0
        assert counter.get("insert") == 0
        assert counter.get("remove") == 0


class TestSchedulerCounting:
    def _run(self, seed_requests):
        counter = OpCounter()
        cal = AvailabilityCalendar(16, 10.0, 24, counter=counter)
        alloc = OnlineCoAllocator(cal, delta_t=10.0, r_max=8, counter=counter)
        for req in seed_requests:
            cal.advance(req.qr)
            alloc.schedule(req)
        return counter

    def test_counts_are_deterministic(self):
        requests = [
            Request(qr=float(i), sr=float(i), lr=25.0, nr=(i % 4) + 1, rid=i)
            for i in range(30)
        ]
        a = self._run(requests)
        b = self._run(requests)
        assert a.snapshot() == b.snapshot()

    def test_attempts_counted_per_retry(self):
        counter = OpCounter()
        cal = AvailabilityCalendar(1, 10.0, 24, counter=counter)
        alloc = OnlineCoAllocator(cal, delta_t=10.0, r_max=8, counter=counter)
        alloc.schedule(Request(qr=0.0, sr=0.0, lr=25.0, nr=1, rid=1))
        base = counter.get("attempt")
        alloc.schedule(Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=2))
        assert counter.get("attempt") - base == 4  # retried to t=30

    def test_failed_attempts_cheaper_than_successes(self):
        """Failures never pay the O(n_r·Q·log²N) update, so a rejected
        request costs fewer retrieve/insert operations than an accepted
        one of the same shape."""
        counter = OpCounter()
        cal = AvailabilityCalendar(4, 10.0, 12, counter=counter)
        alloc = OnlineCoAllocator(cal, delta_t=10.0, r_max=2, counter=counter)
        before = counter.snapshot()
        alloc.schedule(Request(qr=0.0, sr=0.0, lr=30.0, nr=4, rid=1))
        success_inserts = counter.get("insert") - before.get("insert", 0)
        mid = counter.snapshot()
        # machine is fully busy until t=30; r_max=2 cannot reach it
        assert alloc.schedule(Request(qr=0.0, sr=0.0, lr=30.0, nr=4, rid=2)) is None
        failure_inserts = counter.get("insert") - mid.get("insert", 0)
        assert failure_inserts == 0
        assert success_inserts > 0
