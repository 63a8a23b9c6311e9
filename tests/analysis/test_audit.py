"""Tests for the structural audit engine and the mutation auditor.

The mutation tests corrupt a live, replay-populated calendar and assert
that the audit reports exactly the check ID documented for that breakage
(RA101 size fields, RA105 uid map, RA106 secondary keys, …).
"""

import pytest

from repro.analysis.audit import (
    AuditError,
    MutationAuditor,
    audit_calendar,
    audit_tree,
    corrupt_buffer,
    corrupt_secondary_key,
    corrupt_size_field,
    corrupt_uid_map,
)
from repro.core.calendar import AvailabilityCalendar
from repro.core.slot_tree import TwoDimTree
from repro.core.types import INF, IdlePeriod, make_period
from repro.schedulers import OnlineScheduler
from repro.sim.replay import _audit_stride_from_env, replay
from repro.workloads.stress import stress_workload


@pytest.fixture(autouse=True)
def _no_ambient_audit(monkeypatch):
    monkeypatch.delenv("REPRO_AUDIT", raising=False)


def populated(n_requests=200, n_servers=8):
    """An OnlineScheduler whose calendar went through a stress replay."""
    scheduler = OnlineScheduler(n_servers=n_servers, tau=900.0, q_slots=96)
    requests = stress_workload(n_requests, n_servers, rho=0.3, seed=7)
    result = replay(scheduler, requests, record_latencies=False)
    assert result.accepted > 0
    return scheduler


def check_ids(findings):
    return {f.check_id for f in findings}


class TestTreeCorruptions:
    def test_replayed_calendar_audits_clean(self):
        assert audit_calendar(populated().calendar) == []

    def test_corrupt_size_field_reports_ra101(self):
        cal = populated().calendar
        corrupt_size_field(cal)
        assert "RA101" in check_ids(audit_calendar(cal))

    def test_corrupt_secondary_key_reports_ra106(self):
        cal = populated().calendar
        corrupt_secondary_key(cal)
        assert "RA106" in check_ids(audit_calendar(cal))

    def test_corrupt_uid_map_reports_ra105(self):
        cal = populated().calendar
        corrupt_uid_map(cal)
        assert "RA105" in check_ids(audit_calendar(cal))

    def test_corrupt_buffer_reports_ra116(self):
        cal = populated().calendar
        corrupt_buffer(cal)
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
        corrupt_size_field(cal)
        with pytest.raises(AssertionError) as excinfo:
            cal.validate()
        assert isinstance(excinfo.value, AuditError)
        assert "RA101" in check_ids(excinfo.value.findings)

    def test_single_tree_audit_localizes_the_corruption(self):
        cal = populated().calendar
        clean_before = all(not audit_tree(t) for t in cal._trees.values())
        assert clean_before
        corrupt_size_field(cal)
        dirty = [q for q, t in cal._trees.items() if audit_tree(t)]
        assert len(dirty) == 1


class TestCalendarCorruptions:
    def test_desynced_key_array_reports_ra111(self):
        cal = populated().calendar
        cal._server_keys[0].append(1e12)
        assert "RA111" in check_ids(audit_calendar(cal))

    def test_dropped_trailing_period_reports_ra111(self):
        """A server left without its unbounded period (what a refused
        release once did) is a broken list, whatever the ledger says."""
        cal = populated().calendar
        trailing = cal._server_periods[0].pop()
        cal._server_keys[0].pop()
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
        cal._server_keys[0].insert(-1, trailing.st)
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


class TestMutationAuditor:
    def test_full_stride_replay_stays_clean(self):
        scheduler = OnlineScheduler(n_servers=8, tau=900.0, q_slots=96)
        requests = stress_workload(150, 8, rho=0.3, seed=11)
        result = replay(scheduler, requests, record_latencies=False, audit_stride=1)
        assert result.accepted > 0

    def test_auditing_does_not_change_outcomes(self):
        requests = stress_workload(150, 8, rho=0.3, seed=11)
        plain = replay(
            OnlineScheduler(n_servers=8, tau=900.0, q_slots=96),
            requests,
            record_latencies=False,
        )
        audited = replay(
            OnlineScheduler(n_servers=8, tau=900.0, q_slots=96),
            requests,
            record_latencies=False,
            audit_stride=1,
        )
        assert audited.outcome_checksum == plain.outcome_checksum

    def test_auditing_does_not_flush_the_write_buffers(self):
        """An audit reads each tree's stored and buffered content where it
        lies: the audited run does the same tree work, op for op, and ends
        with as many periods still buffered, slot by slot, as the unaudited one."""
        requests = stress_workload(150, 8, rho=0.3, seed=11)
        runs = []
        for stride in (None, 1):
            scheduler = OnlineScheduler(n_servers=8, tau=900.0, q_slots=96)
            replay(scheduler, requests, record_latencies=False, audit_stride=stride)
            buffered = {
                q: (len(t._ins), len(t._rem), t._kernel is None)
                for q, t in scheduler.calendar._trees.items()
            }
            runs.append((scheduler.counter.snapshot(), buffered))
        assert runs[0] == runs[1]
        assert any(ins for ins, _rem, _unbuilt in runs[0][1].values())

    def test_ledger_tampering_reports_ra114(self):
        cal = AvailabilityCalendar(n_servers=4, tau=900.0, q_slots=96)
        auditor = MutationAuditor(cal)
        auditor.audit_now()  # fresh calendar passes
        hs = cal.horizon_start
        auditor._busy[0].append((hs + 10.0, hs + 20.0))  # busy nothing allocated
        with pytest.raises(AuditError) as excinfo:
            auditor.audit_now()
        assert check_ids(excinfo.value.findings) == {"RA114"}

    def test_detach_restores_the_calendar_methods(self):
        cal = AvailabilityCalendar(n_servers=4, tau=900.0, q_slots=96)
        auditor = MutationAuditor(cal)
        assert "allocate" in cal.__dict__
        auditor.detach()
        assert "allocate" not in cal.__dict__

    def test_stride_must_be_positive(self):
        cal = AvailabilityCalendar(n_servers=2, tau=900.0, q_slots=24)
        with pytest.raises(ValueError):
            MutationAuditor(cal, stride=0)


class TestEnvDecoding:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("", None),
            ("0", None),
            ("off", None),
            ("no", None),
            ("all", 1),
            ("every", 1),
            ("1", 1000),
            ("on", 1000),
            ("true", 1000),
            ("250", 250),
            ("junk", 1000),
        ],
    )
    def test_repro_audit_values(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_AUDIT", raw)
        assert _audit_stride_from_env() == expected

    def test_env_attaches_auditor_and_keeps_checksum(self, monkeypatch):
        requests = stress_workload(100, 8, rho=0.3, seed=3)
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        plain = replay(
            OnlineScheduler(n_servers=8, tau=900.0, q_slots=96),
            requests,
            record_latencies=False,
        )
        monkeypatch.setenv("REPRO_AUDIT", "all")
        audited = replay(
            OnlineScheduler(n_servers=8, tau=900.0, q_slots=96),
            requests,
            record_latencies=False,
        )
        assert audited.outcome_checksum == plain.outcome_checksum
