"""Snapshot/restore: byte-identity, checksums, corruption handling.

The load-bearing property (hypothesis-driven): for any request history,
``snapshot -> restore -> snapshot`` is *byte-identical* — the restored
server is indistinguishable from the original, down to the slot-tree
tie-break order (persisted period uids make that possible).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.server import ReservationService, ServiceConfig, accepted_checksum
from repro.service.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotError,
    read_snapshot,
    snapshot_bytes,
    state_checksum,
    write_snapshot,
)

CONFIG = ServiceConfig(n_servers=4, tau=10.0, q_slots=8)


def _apply(service: ReservationService, message: dict) -> dict:
    """Call the actor's apply step directly (what a TCP request drives)."""
    return service._actor_apply(message)


def _state(service: ReservationService) -> dict:
    return service.state.export(0)


def apply_history(service: ReservationService, history: list[tuple]) -> None:
    """Replay a generated history of reserve/cancel ops onto a service."""
    for rid, (kind, payload) in enumerate(history):
        if kind == "reserve":
            sr, lr, nr = payload
            _apply(service, {"op": "reserve", "rid": rid, "sr": sr, "lr": lr, "nr": nr})
        else:
            _apply(service, {"op": "cancel", "rid": payload})


def histories():
    reserve = st.tuples(
        st.just("reserve"),
        st.tuples(
            st.sampled_from([0.0, 5.0, 10.0, 25.0, 60.0]),  # sr
            st.sampled_from([-1.0, 4.0, 10.0, 35.0, 80.0]),  # lr (-1 -> malformed)
            st.sampled_from([0, 1, 2, 4, 5]),  # nr (0/5 -> malformed/rejected)
        ),
    )
    cancel = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=12))
    return st.lists(st.one_of(reserve, reserve, cancel), max_size=12)


@given(histories())
@settings(max_examples=60, deadline=None)
def test_snapshot_restore_snapshot_is_byte_identical(history):
    original = ReservationService(CONFIG)
    apply_history(original, history)
    first = snapshot_bytes(_state(original))

    # restore exactly what the disk read path hands back
    state = json.loads(first.decode())["state"]
    restored = ReservationService(CONFIG, state=state)
    second = snapshot_bytes(_state(restored))

    assert second == first
    assert accepted_checksum(restored.state.decided) == accepted_checksum(original.state.decided)


@given(histories())
@settings(max_examples=40, deadline=None)
def test_restored_server_answers_like_the_original(history):
    """Original and restored copy give identical verdicts on a fresh probe."""
    original = ReservationService(CONFIG)
    apply_history(original, history)
    state = json.loads(snapshot_bytes(_state(original)).decode())["state"]
    restored = ReservationService(CONFIG, state=state)

    probe_rid = 10_000  # outside every generated history
    message = {"op": "reserve", "rid": probe_rid, "sr": 0.0, "lr": 15.0, "nr": 2}
    assert _apply(restored, dict(message)) == _apply(original, dict(message))


def test_restored_server_rejects_conflicting_request(tmp_path):
    """A request conflicting with a pre-snapshot reservation is refused."""
    config = ServiceConfig(n_servers=2, tau=10.0, q_slots=4)  # horizon = 40
    original = ReservationService(config)
    fill = _apply(original, {"op": "reserve", "rid": 1, "sr": 0.0, "lr": 40.0, "nr": 2})
    assert fill["ok"]

    path = tmp_path / "state.snap"
    write_snapshot(path, _state(original))
    restored = ReservationService(config, state=read_snapshot(path))

    conflicting = _apply(restored, {"op": "reserve", "rid": 2, "sr": 0.0, "lr": 40.0, "nr": 2})
    assert not conflicting["ok"]
    assert conflicting["error"]["code"] == "REJECTED"

    # the decision log survives too: the old rid replays, never re-books
    replay = _apply(restored, {"op": "reserve", "rid": 1, "sr": 0.0, "lr": 40.0, "nr": 2})
    assert replay["ok"] and replay["replayed"] is True


def test_cancel_after_restore_frees_the_window(tmp_path):
    """A reservation granted before the snapshot must still be
    cancellable after a restart, and the freed window reusable — the
    restored allocation book, not just the calendar, has to be live.

    The clock sits at a fractional-τ slot boundary (31·0.3, where naive
    floor division and the robust slot arithmetic disagree), so this
    also pins the restored calendar's horizon to the original's.
    """
    tau = 0.3
    config = ServiceConfig(n_servers=2, tau=tau, q_slots=8)
    original = ReservationService(config)
    granted = _apply(original, 
        {"op": "reserve", "rid": 1, "qr": 31 * tau, "sr": 31 * tau, "lr": tau, "nr": 2}
    )
    assert granted["ok"]

    path = tmp_path / "state.snap"
    write_snapshot(path, _state(original))
    restored = ReservationService(config, state=read_snapshot(path))

    cancelled = _apply(restored, {"op": "cancel", "rid": 1})
    assert cancelled["ok"]

    # the window is free again on the restored server...
    refill = _apply(restored, 
        {"op": "reserve", "rid": 2, "qr": 31 * tau, "sr": 31 * tau, "lr": tau, "nr": 2}
    )
    assert refill["ok"]
    assert refill["start"] == granted["start"]

    # ...and the original, cancelling the same rid, ends in the same
    # calendar, uids and uid counter included: the snapshot carried it
    assert _apply(original, {"op": "cancel", "rid": 1})["ok"]
    assert _apply(original, 
        {"op": "reserve", "rid": 2, "qr": 31 * tau, "sr": 31 * tau, "lr": tau, "nr": 2}
    ) == refill
    assert _state(restored)["scheduler"] == _state(original)["scheduler"]
    assert accepted_checksum(restored.state.decided) == accepted_checksum(original.state.decided)

    # a second cancel of the same rid is a clean not-found, not a crash
    second = _apply(restored, {"op": "cancel", "rid": 1})
    assert not second["ok"]


class TestSnapshotFile:
    def test_write_read_round_trip(self, tmp_path):
        state = {"scheduler": {"x": [1.0, None]}, "decided": {}}
        meta = write_snapshot(tmp_path / "s.snap", state)
        assert meta["version"] == SNAPSHOT_VERSION and meta["bytes"] > 0
        assert read_snapshot(tmp_path / "s.snap") == state

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        write_snapshot(tmp_path / "s.snap", {"a": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["s.snap"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            read_snapshot(tmp_path / "absent.snap")

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(path, {"periods": [1, 2, 3]})
        raw = path.read_bytes().replace(b"[1,2,3]", b"[1,2,4]")
        path.write_bytes(raw)
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(path)

    def test_wrong_version_refused(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(path, {"a": 1})
        document = json.loads(path.read_bytes())
        document["version"] = SNAPSHOT_VERSION + 1
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(path)

    def test_foreign_json_refused(self, tmp_path):
        path = tmp_path / "s.snap"
        path.write_text('{"hello": "world"}')
        with pytest.raises(SnapshotError, match="not a"):
            read_snapshot(path)


def _write_document(path, document):
    document = dict(document)
    document["sha256"] = state_checksum(document["state"])
    path.write_text(json.dumps(document))


class TestSnapshotMigration:
    """There is none any more: version 1 (pre elastic pool) is refused;
    corrupt pool sections in a v2 snapshot are hard errors, never a
    silently empty or all-active pool."""

    def test_v1_is_refused_naming_the_version(self, tmp_path):
        state = _state(ReservationService(CONFIG))
        # a faithful v1 snapshot: no pool section, no admin table
        state.pop("admin_decided", None)
        state["scheduler"]["calendar"].pop("pool", None)
        path = tmp_path / "old.snap"
        _write_document(path, {"format": SNAPSHOT_FORMAT, "version": 1, "state": state})
        with pytest.raises(SnapshotError, match=r"version 1; this build reads versions \[2\]"):
            read_snapshot(path)

    def test_corrupt_pool_states_are_a_hard_error(self, tmp_path):
        service = ReservationService(CONFIG)
        state = _state(service)
        state["scheduler"]["calendar"]["pool"] = ["bogus"] * CONFIG.n_servers
        path = tmp_path / "bad.snap"
        _write_document(
            path,
            {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION, "state": state},
        )
        with pytest.raises(SnapshotError, match="corrupt pool"):
            read_snapshot(path)

    def test_pool_length_mismatch_is_a_hard_error(self, tmp_path):
        service = ReservationService(CONFIG)
        state = _state(service)
        state["scheduler"]["calendar"]["pool"] = ["active"]  # truncated
        path = tmp_path / "bad.snap"
        _write_document(
            path,
            {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION, "state": state},
        )
        with pytest.raises(SnapshotError, match="corrupt pool"):
            read_snapshot(path)

    def test_corrupt_admin_table_is_a_hard_error(self, tmp_path):
        service = ReservationService(CONFIG)
        state = _state(service)
        state["admin_decided"] = {"autoscale-add-1": "not-a-verdict"}
        path = tmp_path / "bad.snap"
        _write_document(
            path,
            {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION, "state": state},
        )
        with pytest.raises(SnapshotError, match="corrupt admin_decided"):
            read_snapshot(path)

    def test_pool_survives_snapshot_round_trip(self, tmp_path):
        service = ReservationService(CONFIG)
        _apply(service, {"op": "reserve", "rid": 0, "sr": 0.0, "lr": 10.0, "nr": 1})
        _apply(service, {"op": "add_servers", "count": 2, "aid": "grow-1"})
        _apply(service, {"op": "drain", "server": 0})
        path = tmp_path / "live.snap"
        write_snapshot(path, _state(service))
        restored = ReservationService(CONFIG, state=read_snapshot(path))
        pool = _apply(restored, {"op": "pool_status"})
        assert pool["total"] == CONFIG.n_servers + 2
        assert pool["servers"][0] == "draining"
        # the aid table rode along: the duplicate answers the recorded verdict
        replay = _apply(restored, {"op": "add_servers", "count": 2, "aid": "grow-1"})
        assert replay["replayed"] and replay["servers"] == [4, 5]


def test_sharded_section_from_an_old_deployment_is_ignored(tmp_path):
    """Snapshots written by a ``--shards K`` service carry a
    ``state.sharded`` section (per-shard checksums) next to the
    single-calendar scheduler state.  They must keep loading: the
    section is ignored, decisions match a restore without it, and the
    re-export drops it."""
    service = ReservationService(CONFIG)
    for rid, (sr, lr, nr) in enumerate([(0.0, 10.0, 2), (15.0, 20.0, 1)]):
        _apply(service, {"op": "reserve", "rid": rid, "sr": sr, "lr": lr, "nr": nr})
    plain_state = _state(service)
    sharded_state = {
        **plain_state,
        "sharded": {
            "shards": 2,
            "hwm": 2,
            "shard_checksums": ["0" * 64, "1" * 64],
            "combined_checksum": "2" * 64,
        },
    }
    plain_path, sharded_path = tmp_path / "plain.snap", tmp_path / "sharded.snap"
    write_snapshot(plain_path, plain_state)
    write_snapshot(sharded_path, sharded_state)

    from_plain = ReservationService(CONFIG, state=read_snapshot(plain_path))
    from_sharded = ReservationService(CONFIG, state=read_snapshot(sharded_path))
    reexported = _state(from_sharded)
    assert "sharded" not in reexported
    assert snapshot_bytes(reexported) == snapshot_bytes(plain_state)
    message = {"op": "reserve", "rid": 7, "sr": 0.0, "lr": 15.0, "nr": 3}
    assert _apply(from_sharded, dict(message)) == _apply(from_plain, dict(message))
