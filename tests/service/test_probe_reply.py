"""The probe reply is assembled from encoded parts: it must stay ``encode`` of its dict."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import INF
from repro.service import server
from repro.service.protocol import WIRE_ENCODER, echo_seq
from repro.service.server import PROBE_LIMIT, ReservationService, ServiceConfig

CONFIG = dict(n_servers=6, tau=10.0, q_slots=6)

seqs = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=8),
    st.dictionaries(
        st.text(max_size=4),
        st.one_of(st.integers(), st.floats(allow_nan=False), st.lists(st.booleans())),
        max_size=3,
    ),
    st.just(math.nan),
)

# most reserves are submitted at time 0, so the clock stays put and probes
# find periods; the rest move the clock to their start and roll slots out
reserves = st.builds(
    lambda sr, lr, nr, now: ("reserve", sr if now else 0.0, sr, lr, nr),
    st.floats(min_value=0.0, max_value=50.0),
    st.sampled_from([0.5, 3.0, 10.0, 25.0]),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([False, False, False, True]),
)
cancels = st.builds(lambda k: ("cancel", k), st.integers(min_value=0, max_value=30))
probes = st.builds(
    lambda ta, width, limit, seq: ("probe", ta, ta + width, limit, seq),
    st.floats(min_value=0.0, max_value=60.0),
    st.floats(min_value=0.25, max_value=40.0),
    st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    st.one_of(st.none(), seqs),
)


def expected_line(service: ReservationService, message: dict) -> bytes:
    """The probe reply as a dict, encoded the way every other reply is."""
    periods = service.scheduler.range_search(message["ta"], message["tb"])
    limit = PROBE_LIMIT if message.get("limit") is None else message["limit"]
    response = {
        "ok": True,
        "op": "probe",
        "count": len(periods),
        "periods": [
            [p.server, p.st, None if p.et == INF else p.et] for p in periods[:limit]
        ],
    }
    return server._encode_reply(echo_seq(message, response))


def probe_msg(ta: float, tb: float, limit=None, seq=None) -> dict:
    message = {"op": "probe", "ta": ta, "tb": tb}
    if limit is not None:
        message["limit"] = limit
    if seq is not None:
        message["seq"] = seq
    return message


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.one_of(reserves, cancels, probes, probes), max_size=40))
def test_the_assembled_probe_line_is_the_encoded_dict(ops):
    service = ReservationService(ServiceConfig(**CONFIG))
    rid = 0
    for op in ops:
        if op[0] == "reserve":
            _, qr, sr, lr, nr = op
            rid += 1
            message = {"op": "reserve", "rid": rid, "qr": qr, "sr": sr, "lr": lr, "nr": nr}
            assert service._actor_reply(message, None)[0]
        elif op[0] == "cancel":
            service._actor_reply({"op": "cancel", "rid": op[1]}, None)
        else:
            message = probe_msg(*op[1:])
            expected = expected_line(service, message)
            reply, fresh = service._actor_reply(message, None)
            assert not fresh
            assert reply == expected


def test_a_second_identical_probe_formats_no_part(monkeypatch):
    service = ReservationService(ServiceConfig(**CONFIG))
    for rid, sr in enumerate((0.0, 12.0, 31.0), start=1):
        message = {"op": "reserve", "rid": rid, "sr": sr, "lr": 7.0, "nr": 2}
        service._actor_reply(message, None)
    probe = probe_msg(40.0, 45.0)
    calls = []
    encode = type(WIRE_ENCODER).encode

    def counting(self, value):
        calls.append(value)
        return encode(self, value)

    # on the class: patching the shared instance would leave a bound
    # method on it after the undo, hiding it from later class-level spies
    monkeypatch.setattr(type(WIRE_ENCODER), "encode", counting)
    first, _ = service._actor_reply(probe, None)
    formatted = len(calls)
    second, _ = service._actor_reply(probe, None)
    assert formatted == 6 and len(calls) == formatted  # the second formatted nothing
    assert first == second == expected_line(service, probe)
