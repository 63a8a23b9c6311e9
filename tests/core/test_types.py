"""Unit tests for the core value types."""

import copy
import dataclasses
import math
import pickle

import pytest

from repro.core.types import (
    INF,
    Allocation,
    IdlePeriod,
    RangeQuery,
    Request,
    make_period,
)


class TestRequest:
    def test_basic_fields(self):
        r = Request(qr=10.0, sr=20.0, lr=5.0, nr=3, rid=7)
        assert r.qr == 10.0
        assert r.sr == 20.0
        assert r.lr == 5.0
        assert r.nr == 3
        assert r.rid == 7

    def test_ending_time(self):
        r = Request(qr=0.0, sr=20.0, lr=5.0, nr=1)
        assert r.er == 25.0

    def test_on_demand_request_is_not_advance(self):
        r = Request(qr=5.0, sr=5.0, lr=1.0, nr=1)
        assert not r.is_advance()

    def test_future_start_is_advance(self):
        r = Request(qr=5.0, sr=6.0, lr=1.0, nr=1)
        assert r.is_advance()

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            Request(qr=0.0, sr=0.0, lr=0.0, nr=1)
        with pytest.raises(ValueError, match="duration"):
            Request(qr=0.0, sr=0.0, lr=-5.0, nr=1)

    def test_rejects_non_finite_duration(self):
        """``[0, inf)`` used to be granted through the library, leaving
        the server no trailing period and the grant uncancellable."""
        for lr in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                Request(qr=0.0, sr=0.0, lr=lr, nr=1)

    def test_rejects_nonpositive_spatial_size(self):
        with pytest.raises(ValueError, match="spatial"):
            Request(qr=0.0, sr=0.0, lr=1.0, nr=0)

    def test_rejects_start_before_submission(self):
        with pytest.raises(ValueError, match="precedes submission"):
            Request(qr=10.0, sr=9.0, lr=1.0, nr=1)

    def test_latest_start_without_deadline_is_inf(self):
        r = Request(qr=0.0, sr=0.0, lr=1.0, nr=1)
        assert r.latest_start == INF

    def test_latest_start_with_deadline(self):
        r = Request(qr=0.0, sr=0.0, lr=10.0, nr=1, deadline=30.0)
        assert r.latest_start == 20.0

    def test_rejects_infeasible_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            Request(qr=0.0, sr=10.0, lr=10.0, nr=1, deadline=15.0)

    def test_deadline_equal_to_earliest_completion_is_allowed(self):
        r = Request(qr=0.0, sr=10.0, lr=10.0, nr=1, deadline=20.0)
        assert r.latest_start == 10.0

    def test_frozen(self):
        r = Request(qr=0.0, sr=0.0, lr=1.0, nr=1)
        with pytest.raises(AttributeError):
            r.lr = 2.0  # type: ignore[misc]


class TestIdlePeriod:
    def test_uid_is_required(self):
        # the owning calendar numbers its periods; there is no fallback
        with pytest.raises(TypeError, match="uid"):
            IdlePeriod(server=0, st=0.0, et=1.0)  # type: ignore[call-arg]

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="empty"):
            IdlePeriod(server=0, st=5.0, et=5.0, uid=0)
        with pytest.raises(ValueError, match="empty"):
            IdlePeriod(server=0, st=5.0, et=4.0, uid=0)

    def test_candidate_rule_matches_paper(self):
        # candidate iff st <= s_r
        p = IdlePeriod(server=0, st=10.0, et=50.0, uid=0)
        assert p.is_candidate(10.0)
        assert p.is_candidate(15.0)
        assert not p.is_candidate(9.0)

    def test_feasible_rule_matches_paper(self):
        # feasible iff st <= s_r and et >= e_r
        p = IdlePeriod(server=0, st=10.0, et=50.0, uid=0)
        assert p.is_feasible(10.0, 50.0)
        assert p.is_feasible(20.0, 40.0)
        assert not p.is_feasible(5.0, 40.0)
        assert not p.is_feasible(20.0, 51.0)

    def test_infinite_period_feasible_for_any_end(self):
        p = IdlePeriod(server=0, st=10.0, et=INF, uid=0)
        assert p.is_feasible(10.0, 1e12)

    def test_overlaps_half_open(self):
        p = IdlePeriod(server=0, st=10.0, et=20.0, uid=0)
        assert p.overlaps(0.0, 11.0)
        assert p.overlaps(19.0, 30.0)
        assert not p.overlaps(20.0, 30.0)  # et is open
        assert not p.overlaps(0.0, 10.0)  # st is closed but window end is open

    def test_identity_equality(self):
        # equal fields, uid included, and still two periods
        p = IdlePeriod(server=0, st=0.0, et=1.0, uid=0)
        q = IdlePeriod(server=0, st=0.0, et=1.0, uid=0)
        assert p == p
        assert p != q


class TestTrustedConstructors:
    """``make_period`` skips the emptiness check and nothing else: what it
    builds cannot be told from a public twin."""

    def twins(self):
        return [
            (make_period(3, 1.5, INF, 41), IdlePeriod(server=3, st=1.5, et=INF, uid=41)),
            (make_period(0, 0.0, 9.0, 7), IdlePeriod(server=0, st=0.0, et=9.0, uid=7)),
        ]

    def test_same_type_fields_and_repr(self):
        for trusted, public in self.twins():
            assert type(trusted) is type(public)
            assert dataclasses.astuple(trusted) == dataclasses.astuple(public)
            assert repr(trusted) == repr(public)

    def test_pickle_and_deepcopy_round_trip(self):
        for trusted, public in self.twins():
            for copied in (pickle.loads(pickle.dumps(trusted)), copy.deepcopy(trusted)):
                assert type(copied) is type(public)
                assert dataclasses.astuple(copied) == dataclasses.astuple(public)

    def test_equality_and_hash_follow_the_class(self):
        for period, public_period in self.twins():
            # periods compare by identity, as the slot trees key them
            assert period == period and period != public_period
            assert hash(period) == object.__hash__(period)

    def test_frozen(self):
        for trusted, _public in self.twins():
            field = dataclasses.fields(trusted)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trusted, field, 0)

    def test_the_public_constructors_still_validate(self):
        with pytest.raises(ValueError, match="empty"):
            IdlePeriod(server=0, st=2.0, et=2.0, uid=1)
        with pytest.raises(ValueError, match="empty"):
            IdlePeriod(server=0, st=2.0, et=1.0, uid=1)


class TestAllocation:
    def _alloc(self) -> Allocation:
        return Allocation(rid=9, start=5.0, end=15.0, servers=(3, 1, 4), attempts=2, delay=5.0)

    def test_servers(self):
        assert self._alloc().servers == (3, 1, 4)

    def test_nr(self):
        assert self._alloc().nr == 3


class TestRangeQuery:
    def test_valid_window(self):
        q = RangeQuery(ta=1.0, tb=2.0)
        assert q.ta == 1.0 and q.tb == 2.0

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="empty"):
            RangeQuery(ta=2.0, tb=2.0)
