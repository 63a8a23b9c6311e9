"""Microbenchmarks of the core data structures.

These are conventional pytest-benchmark timings (multiple rounds) of the
operations whose complexity Section 4.3 analyzes: Phase-1/Phase-2
searches, tree updates, and end-to-end scheduling throughput.
"""

import random

from repro.core.calendar import AvailabilityCalendar
from repro.core.coalloc import OnlineCoAllocator
from repro.core.slot_tree import TwoDimTree
from repro.core.types import IdlePeriod, Request


def _periods(n, seed=0):
    rng = random.Random(seed)
    return [
        IdlePeriod(server=i, st=rng.uniform(0, 1000), et=rng.uniform(1000, 2000), uid=i)
        for i in range(n)
    ]


def _loaded_tree(n):
    tree = TwoDimTree()
    tree.bulk_load(_periods(n))
    return tree


class TestTreeOps:
    def test_bulk_load_512(self, benchmark):
        periods = _periods(512)

        def load():
            t = TwoDimTree()
            t.bulk_load(periods)
            return t

        benchmark(load)

    def test_search_512(self, benchmark):
        tree = _loaded_tree(512)
        benchmark(tree.find_feasible, 500.0, 1500.0, 16)

    def test_insert_remove_512(self, benchmark):
        tree = _loaded_tree(512)
        period = IdlePeriod(server=999, st=500.0, et=1500.0, uid=999)

        def cycle():
            tree.insert(period)
            tree.remove(period)

        benchmark(cycle)

    def test_range_search_512(self, benchmark):
        tree = _loaded_tree(512)
        benchmark(tree.range_search, 500.0, 1500.0)


class TestSchedulerThroughput:
    def _request_stream(self, n_requests, n_servers, seed=1):
        rng = random.Random(seed)
        t = 0.0
        requests = []
        for i in range(n_requests):
            t += rng.expovariate(1 / 200.0)
            requests.append(
                Request(
                    qr=t,
                    sr=t,
                    lr=rng.uniform(900.0, 7200.0),
                    nr=rng.randint(1, n_servers // 8),
                    rid=i,
                )
            )
        return requests

    def test_online_scheduling_128_servers(self, benchmark):
        requests = self._request_stream(200, 128)

        def run():
            cal = AvailabilityCalendar(128, 900.0, 96)
            alloc = OnlineCoAllocator(cal, delta_t=900.0, r_max=48)
            done = 0
            for req in requests:
                cal.advance(req.qr)
                if alloc.schedule(req) is not None:
                    done += 1
            return done

        assert benchmark(run) > 0

    def test_calendar_rollover(self, benchmark):
        def roll():
            cal = AvailabilityCalendar(128, 900.0, 96)
            cal.advance(96 * 900.0)  # roll the entire horizon once
            return cal

        benchmark(roll)
