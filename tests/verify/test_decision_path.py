"""The differ's production side *is* the service's decision path.

``run_stream`` drives :class:`repro.service.state.ServiceState` — the
state machine ``repro serve`` and ``repro follow`` run — so a bug in
``decide_reserve``/``decide_cancel``, or a verdict table that does not
survive a snapshot, shows up in the in-process fuzzer without a socket.
"""

from __future__ import annotations

from repro.facade import CoAllocationScheduler
from repro.service import declog
from repro.service.snapshot import snapshot_bytes
from repro.service.state import ServiceState
from repro.verify.differ import _apply_service, run_stream
from repro.verify.genstream import Stream, generate_stream

CONFIG = {"n_servers": 4, "tau": 10.0, "q_slots": 8, "delta_t": None, "r_max": None}


def test_a_wrong_decide_reserve_is_a_divergence(monkeypatch) -> None:
    real = declog.decide_reserve

    def off_by_one(scheduler, message):
        entry = real(scheduler, message)
        if entry["ok"]:
            entry = {**entry, "attempts": entry["attempts"] + 1}
        return entry

    monkeypatch.setattr(declog, "decide_reserve", off_by_one)
    result = run_stream(generate_stream("dense", 0, 60))
    assert result.divergence is not None
    assert result.divergence.op["kind"] == "reserve"
    assert result.divergence.kind == "result"


def test_a_wrong_decide_cancel_is_a_divergence(monkeypatch) -> None:
    # acknowledges every cancel and releases nothing
    monkeypatch.setattr(declog, "decide_cancel", lambda scheduler, rid: {"ok": True})
    result = run_stream(generate_stream("dense", 0, 200))
    assert result.divergence is not None
    assert result.divergence.op["kind"] == "cancel"


BEFORE = [
    {"kind": "reserve", "rid": 0, "qr": 0.0, "sr": 0.0, "lr": 10.0, "nr": 2},
    {"kind": "reserve", "rid": 1, "qr": 1.0, "sr": 1.0, "lr": 500.0, "nr": 9},  # rejected
    {"kind": "add_servers", "count": 1, "qr": 2.0},
    {"kind": "drain", "server": 0, "qr": 3.0},
]


def test_restore_round_trips_the_whole_service_state() -> None:
    state = ServiceState(CoAllocationScheduler(**CONFIG))
    for index, op in enumerate(BEFORE):
        _, replayed, state = _apply_service(state, op, index)
        assert not replayed
    before = snapshot_bytes(state.export(0))

    verdict, _, restored = _apply_service(state, {"kind": "restore"}, len(BEFORE))
    assert verdict == {"ok": True, "restored": True}
    assert restored is not state
    # through export -> snapshot bytes -> from_snapshot, like a restart
    assert snapshot_bytes(restored.export(0)) == before
    assert sorted(restored.decided) == [0, 1]
    assert sorted(restored.admin_decided) == ["chaos-add_servers-2", "chaos-drain-3"]

    # resends after the restore answer from the restored tables
    for index in (0, 1, 2):
        first, _, _ = _apply_service(state, BEFORE[index], index)
        again, replayed, _ = _apply_service(restored, BEFORE[index], index)
        assert replayed and again == first


def test_a_rid_resent_after_restore_replays_and_matches_the_oracle() -> None:
    ops = [
        *BEFORE,
        {"kind": "restore"},
        BEFORE[0],  # same rid again: recorded verdict, calendar untouched
        {"kind": "reserve", "rid": 2, "qr": 4.0, "sr": 4.0, "lr": 10.0, "nr": 2},
        {"kind": "cancel", "rid": 0},
        BEFORE[0],  # still the recorded accept, even though it was cancelled
    ]
    result = run_stream(Stream(config=dict(CONFIG), ops=ops))
    assert result.divergence is None, result.divergence.describe()
    assert result.restores == 1
    assert result.replayed == 2
    assert result.accepted == 2 and result.rejected == 1
