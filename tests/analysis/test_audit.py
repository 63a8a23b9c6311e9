"""Tests for the structural audit engine.

The corruption tests break a live, replay-populated calendar in place
and assert that the audit reports exactly the check ID documented for
that breakage (RA101 cached summary, RA105 uid map, RA106 secondary
keys, …).
"""

import pytest

from repro.analysis.audit import AuditError, audit_calendar, audit_tree
from repro.core.calendar import AvailabilityCalendar
from repro.core.slot_tree import TwoDimTree
from repro.core.types import INF, IdlePeriod, make_period
from repro.schedulers import OnlineScheduler
from repro.sim.replay import replay
from repro.workloads.stress import stress_workload


def populated(n_requests=200, n_servers=8):
    """An OnlineScheduler whose calendar went through a stress replay."""
    scheduler = OnlineScheduler(n_servers=n_servers, tau=900.0, q_slots=96)
    requests = stress_workload(n_requests, n_servers, rho=0.3, seed=7)
    result = replay(scheduler, requests, record_latencies=False)
    assert result.accepted > 0
    return scheduler


def check_ids(findings):
    return {f.check_id for f in findings}


def stored_tree(cal, size=1):
    """A slot tree of ``cal`` holding at least ``size`` stored periods,
    its write buffer applied."""
    return next(t for t in cal._trees.values() if len(t) >= size)


class TestTreeCorruptions:
    def test_replayed_calendar_audits_clean(self):
        assert audit_calendar(populated().calendar) == []

    def test_corrupt_max_end_reports_ra101(self):
        cal = populated().calendar
        stored_tree(cal)._max_et += 1.0
        assert "RA101" in check_ids(audit_calendar(cal))

    def test_corrupt_secondary_key_reports_ra106(self):
        cal = populated().calendar
        tree = stored_tree(cal, 2)
        tree.range_search(INF, -INF)  # a search over every leaf builds each mark's secondary
        sec = next(sec for sec in tree._secs.values() if sec[0][0] != INF)
        et, uid = sec[0]
        sec[0] = (et + 1.0, uid)
        assert "RA106" in check_ids(audit_calendar(cal))

    def test_corrupt_uid_map_reports_ra105(self):
        cal = populated().calendar
        tree = stored_tree(cal)
        del tree._by_uid[next(iter(tree._by_uid))]
        assert "RA105" in check_ids(audit_calendar(cal))

    def test_corrupt_buffer_reports_ra116(self):
        cal = populated().calendar
        tree = stored_tree(cal)
        uid, period = next(iter(tree._by_uid.items()))
        tree._ins[uid] = period  # a second insert of a stored period
        assert "RA116" in check_ids(audit_calendar(cal))

    def test_buffered_removal_of_an_unstored_period_reports_ra116(self):
        cal = populated().calendar
        tree = next(t for t in cal._trees.values() if t._ins)
        uid, period = next(iter(tree._ins.items()))
        tree._rem[uid] = period  # noted both ways, stored neither
        assert "RA116" in check_ids(audit_tree(tree))

    def test_a_uid_noted_for_removal_and_insertion_reports_ra116(self):
        """No calendar hands a stored uid to a new period — a restore
        builds into an empty calendar — so a buffered insert of a stored
        uid is a finding even when its holder is noted for removal."""
        cal = populated().calendar
        tree = next(t for t in cal._trees.values() if len(t))
        old = next(tree.periods())
        tree.remove(old)
        tree.insert(IdlePeriod(server=old.server, st=old.st, et=old.et + 1.0, uid=old.uid))
        assert "RA116" in check_ids(audit_tree(tree))

    def test_validate_raises_audit_error_which_is_assertion_error(self):
        cal = populated().calendar
        stored_tree(cal)._max_et += 1.0
        with pytest.raises(AssertionError) as excinfo:
            cal.validate()
        assert isinstance(excinfo.value, AuditError)
        assert "RA101" in check_ids(excinfo.value.findings)

    def test_single_tree_audit_localizes_the_corruption(self):
        cal = populated().calendar
        clean_before = all(not audit_tree(t) for t in cal._trees.values())
        assert clean_before
        stored_tree(cal)._max_et += 1.0
        dirty = [q for q, t in cal._trees.items() if audit_tree(t)]
        assert len(dirty) == 1


class TestCalendarCorruptions:
    def test_dropped_trailing_period_reports_ra111(self):
        """A server left without its unbounded period (what a refused
        release once did) is a broken list, whatever the ledger says."""
        cal = populated().calendar
        trailing = cal._server_periods[0].pop()
        assert trailing.et == INF
        assert any(
            f.check_id == "RA111" and f.location == "server 0" for f in audit_calendar(cal)
        )

    def test_empty_period_reports_ra111(self):
        """The carve's trusted constructor does not check ``st < et``;
        the audit does, for every listed period."""
        cal = populated().calendar
        trailing = cal._server_periods[0][-1]
        cal._server_periods[0].insert(-1, make_period(0, trailing.st, trailing.st, -1))
        assert any(
            f.check_id == "RA111" and f.location == "server 0" and "empty" in f.message
            for f in audit_calendar(cal)
        )

    def test_missing_tree_entry_reports_ra112(self):
        cal = populated().calendar
        period = next(
            p
            for tree in cal._trees.values()
            for p in tree.periods()
            if p.et != INF
        )
        tree = next(t for t in cal._trees.values() if period in t)
        tree.remove(period)
        assert "RA112" in check_ids(audit_calendar(cal))

    def test_tree_outside_the_horizon_reports_ra113(self):
        cal = populated().calendar
        cal._trees[cal._base_slot + cal.q_slots] = TwoDimTree()
        assert "RA113" in check_ids(audit_calendar(cal))

    def test_period_beyond_the_horizon_reports_ra113(self):
        cal = populated().calendar
        trailing = cal._server_periods[0].pop()
        beyond = max(trailing.st, cal.horizon_end) + 100.0
        cal._server_periods[0].append(
            IdlePeriod(server=0, st=trailing.st, et=beyond, uid=trailing.uid)
        )
        assert "RA113" in check_ids(audit_calendar(cal))

    def test_write_to_the_shared_empty_tree_reports_ra113(self):
        cal = populated().calendar
        cal._unwritten.insert(IdlePeriod(server=0, st=0.0, et=5.0, uid=cal._next_uid))
        assert "RA113" in check_ids(audit_calendar(cal))

    def test_tail_index_desync_reports_ra115(self):
        cal = populated().calendar
        assert cal._inf_periods, "replayed calendar should keep trailing periods"
        cal._inf_periods.pop(0)
        assert "RA115" in check_ids(audit_calendar(cal))


class TestAuditReadsInPlace:
    def test_auditing_does_not_flush_the_write_buffers(self, monkeypatch):
        """An audit reads each tree's stored and buffered content where it
        lies: a replay audited after every carve and every clock advance
        does the same tree work, op for op, and ends with as many periods
        still buffered, slot by slot, as the unaudited one."""
        requests = stress_workload(150, 8, rho=0.3, seed=11)
        findings = []

        def audited(method):
            def wrapper(cal, *args):
                result = method(cal, *args)
                findings.append(audit_calendar(cal))
                return result

            return wrapper

        runs = []
        for audit in (False, True):
            if audit:
                for name in ("allocate", "advance"):
                    method = getattr(AvailabilityCalendar, name)
                    monkeypatch.setattr(AvailabilityCalendar, name, audited(method))
            scheduler = OnlineScheduler(n_servers=8, tau=900.0, q_slots=96)
            result = replay(scheduler, requests, record_latencies=False)
            buffered = {
                q: (len(t._ins), len(t._rem), list(t._leaves))
                for q, t in scheduler.calendar._trees.items()
            }
            runs.append((result.outcome_checksum, scheduler.counter.snapshot(), buffered))
        assert runs[0] == runs[1]
        assert len(findings) > len(requests) and not any(findings)
        assert any(ins for ins, _rem, _leaves in runs[0][2].values())
