"""Ablations of the design choices DESIGN.md calls out (beyond the paper).

* tree vs linear scan — the headline complexity claim: the slotted 2-D
  tree search must beat the reference scheduler of
  :mod:`repro.verify.oracle`, which scans every server's periods, as the
  system grows, at identical decisions;
* Δt — smaller retry increments find starts sooner at the cost of more
  attempts (the tuning trade-off Section 4.2 describes);
* R_max — more attempts convert rejections into delayed placements.
"""

import random

import numpy as np

from repro.core.calendar import AvailabilityCalendar
from repro.core.coalloc import OnlineCoAllocator
from repro.core.types import Request
from repro.metrics.report import format_table
from repro.verify.oracle import ReferenceScheduler

from .conftest import run_once


def _stream(n_requests, n_servers, seed=3):
    rng = random.Random(seed)
    t = 0.0
    out = []
    for i in range(n_requests):
        t += rng.expovariate(1 / 120.0)
        out.append(
            Request(
                qr=t,
                sr=t,
                lr=rng.uniform(900.0, 10800.0),
                nr=rng.randint(1, max(2, n_servers // 6)),
                rid=i,
            )
        )
    return out


def _drive_tree(requests, n_servers, tau=900.0, q=96, delta_t=900.0, r_max=48):
    cal = AvailabilityCalendar(n_servers, tau, q)
    alloc = OnlineCoAllocator(cal, delta_t=delta_t, r_max=r_max)
    outcomes = []
    for req in requests:
        cal.advance(req.qr)
        outcomes.append(alloc.schedule(req))
    return outcomes


def _drive_reference(requests, n_servers, tau=900.0, q=96, delta_t=900.0, r_max=48):
    ref = ReferenceScheduler(n_servers, tau, q, delta_t=delta_t, r_max=r_max)
    outcomes = []
    for req in requests:
        ref.advance(req.qr)
        outcomes.append(ref.schedule(req.rid, req.sr, req.lr, req.nr, req.deadline))
    return outcomes


class TestTreeVsLinear:
    """The data structure earns its keep as N grows."""

    def test_tree_allocator_512(self, benchmark):
        requests = _stream(300, 512)
        outcomes = benchmark.pedantic(_drive_tree, args=(requests, 512), rounds=1, iterations=1)
        # the same decisions as the scan below, so the two times compare
        assert [(a.start, list(a.servers)) for a in outcomes if a is not None] == [
            (d["start"], d["servers"]) for d in _drive_reference(requests, 512) if d["ok"]
        ]

    def test_reference_scheduler_512(self, benchmark):
        requests = _stream(300, 512)
        benchmark.pedantic(_drive_reference, args=(requests, 512), rounds=1, iterations=1)


class TestDeltaTSweep:
    def test_delta_t_tradeoff(self, benchmark, config):
        """Smaller Δt -> earlier starts but more scheduling attempts."""

        def sweep():
            requests = _stream(250, 32, seed=5)
            rows = []
            for delta_t in (450.0, 900.0, 1800.0, 3600.0):
                # equalize the delay *budget* R_max·Δt so only the rung
                # granularity varies
                outcomes = _drive_tree(
                    requests, 32, delta_t=delta_t, r_max=int(48 * 900 / delta_t)
                )
                granted = [a for a in outcomes if a is not None]
                delayed = [a for a in granted if a.attempts > 1]
                rows.append(
                    (
                        delta_t,
                        float(np.mean([a.delay for a in granted])),
                        float(np.mean([a.attempts for a in granted])),
                        len(granted) / len(outcomes),
                        [a.delay for a in delayed],
                    )
                )
            return rows

        rows = run_once(benchmark, sweep)
        print(
            "\n"
            + format_table(
                ["delta_t (s)", "mean delay (s)", "mean attempts", "accepted"],
                [r[:4] for r in rows],
                title="Ablation: retry increment Δt",
            )
        )
        # semantic gate: every scheduler-added delay is a multiple of Δt
        # (modulo float addition noise: base + k·Δt − base ≈ k·Δt)
        for delta_t, _, _, _, delays in rows:
            for d in delays:
                off = d % delta_t
                assert min(off, delta_t - off) < 1e-6, (
                    f"delay {d} off the Δt={delta_t} grid"
                )
        # finer rungs need more attempts per (delayed) placement
        attempts = [r[2] for r in rows]
        assert attempts[0] >= attempts[-1], "finer Δt should cost more attempts"


class TestTauSweep:
    def test_slot_size_tradeoff(self, benchmark, config):
        """Slot size τ trades tree count against tree size.

        With the horizon H fixed, smaller τ means more, smaller slot
        trees (cheaper searches, more registrations per idle period);
        larger τ means fewer, fatter trees.  Acceptance should be
        essentially τ-independent — τ is an indexing choice, not a
        policy — while the op count shifts.
        """

        def sweep():
            horizon = 96 * 900.0
            requests = _stream(250, 32, seed=7)
            rows = []
            for tau in (450.0, 900.0, 1800.0, 3600.0):
                q = int(horizon / tau)
                outcomes = _drive_tree(requests, 32, tau=tau, q=q, delta_t=900.0, r_max=48)
                granted = [a for a in outcomes if a is not None]
                rows.append((tau, q, len(granted) / len(outcomes)))
            return rows

        rows = run_once(benchmark, sweep)
        print(
            "\n"
            + format_table(
                ["tau (s)", "Q", "accepted"], rows, title="Ablation: slot size τ", precision=3
            )
        )
        acceptance = [r[2] for r in rows]
        assert max(acceptance) - min(acceptance) < 0.1, "τ changed admission policy"


class TestReclamation:
    def test_reclamation_benefit(self, benchmark, config, shape_gates):
        """Extension ablation: early-completion reclamation under
        overestimated runtimes recovers waiting time and acceptance."""
        from repro.schedulers import OnlineScheduler
        from repro.sim.driver import run_simulation
        from repro.workloads.archive import generate_workload
        from repro.workloads.models import EstimateAccuracy

        n_jobs = min(config.n_jobs or 1500, 1500)
        requests = generate_workload(
            "KTH", n_jobs=n_jobs, seed=13, accuracy=EstimateAccuracy(p_exact=0.1)
        )

        def run_pair():
            plain = run_simulation(
                OnlineScheduler(n_servers=128, tau=900.0, q_slots=288), list(requests)
            )
            reclaiming = run_simulation(
                OnlineScheduler(n_servers=128, tau=900.0, q_slots=288, reclaim_early=True),
                list(requests),
            )
            return plain, reclaiming

        plain, reclaiming = run_once(benchmark, run_pair)
        mean = lambda res: float(  # noqa: E731
            np.mean([r.waiting_time for r in res.accepted]) if res.accepted else 0.0
        )
        print(
            "\nAblation: early-completion reclamation (KTH, overestimated runtimes)\n"
            f"  plain:      mean wait {mean(plain) / 3600.0:.2f} h, "
            f"accepted {plain.acceptance_rate:.1%}\n"
            f"  reclaiming: mean wait {mean(reclaiming) / 3600.0:.2f} h, "
            f"accepted {reclaiming.acceptance_rate:.1%}"
        )
        if shape_gates:
            assert mean(reclaiming) <= mean(plain)
            assert reclaiming.acceptance_rate >= plain.acceptance_rate


class TestRMaxSweep:
    def test_r_max_acceptance(self, benchmark, config):
        """More attempts convert rejections into (delayed) placements."""

        def sweep():
            requests = _stream(300, 16, seed=6)
            rows = []
            for r_max in (2, 8, 24, 48):
                outcomes = _drive_tree(requests, 16, r_max=r_max)
                granted = [a for a in outcomes if a is not None]
                rows.append((r_max, len(granted) / len(outcomes)))
            return rows

        rows = run_once(benchmark, sweep)
        print(
            "\n"
            + format_table(
                ["R_max", "accepted"], rows, title="Ablation: attempt budget R_max", precision=3
            )
        )
        acceptance = [r[1] for r in rows]
        assert acceptance == sorted(acceptance), "acceptance must grow with R_max"
