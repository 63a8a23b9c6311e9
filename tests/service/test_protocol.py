"""Wire-protocol validation: framing, field checks, request mapping."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Request
from repro.errors import ErrorCode, MalformedRequestError, ReproError
from repro.gateway.follower import Follower
from repro.service.protocol import (
    FOLLOWER_OPS,
    MAX_LINE_BYTES,
    OPS,
    REGISTRY,
    WIRE_ENCODER,
    ProtocolError,
    decode_line,
    encode,
    request_from_payload,
    validate_payload,
)
from repro.service.server import ReservationService


def line(message: dict) -> bytes:
    return (json.dumps(message) + "\n").encode()


class TestDecodeLine:
    def test_valid_reserve_round_trips(self):
        message = {"op": "reserve", "rid": 7, "sr": 0.0, "lr": 3600, "nr": 4}
        assert decode_line(line(message)) == message

    def test_every_op_is_decodable(self):
        minimal = {
            "reserve": {"rid": 1, "sr": 0, "lr": 1, "nr": 1},
            "probe": {"ta": 0, "tb": 1},
            "cancel": {"rid": 1},
            "status": {},
            "snapshot": {},
            "shutdown": {},
            "log_tail": {"cursor": 0},
            "add_servers": {"count": 1},
            "drain": {"server": 0},
            "remove": {"server": 0},
            "pool_status": {},
        }
        for op in OPS:
            assert decode_line(line({"op": op, **minimal[op]}))["op"] == op

    @pytest.mark.parametrize(
        "raw",
        [
            b"not json\n",
            b"[1, 2, 3]\n",
            b'"reserve"\n',
            b"\xff\xfe\n",
        ],
    )
    def test_non_object_lines_rejected(self, raw):
        with pytest.raises(ProtocolError):
            decode_line(raw)

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            decode_line(line({"op": "frobnicate"}))

    def test_registry_has_only_public_and_follower_roles(self):
        assert {s.role for s in REGISTRY.values()} == {"public", "follower"}

    def test_missing_required_field_rejected(self):
        with pytest.raises(ProtocolError, match="missing required field 'nr'"):
            decode_line(line({"op": "reserve", "rid": 1, "sr": 0, "lr": 1}))

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError, match="'rid' must be int"):
            decode_line(line({"op": "reserve", "rid": "x", "sr": 0, "lr": 1, "nr": 1}))

    def test_bool_is_not_a_number(self):
        # bool is a subclass of int; the protocol must not accept it
        with pytest.raises(ProtocolError):
            decode_line(line({"op": "reserve", "rid": True, "sr": 0, "lr": 1, "nr": 1}))

    def test_optional_field_type_checked(self):
        with pytest.raises(ProtocolError, match="'deadline'"):
            decode_line(
                line({"op": "reserve", "rid": 1, "sr": 0, "lr": 1, "nr": 1, "deadline": "soon"})
            )

    def test_optional_field_null_is_absent(self):
        message = {"op": "reserve", "rid": 1, "sr": 0, "lr": 1, "nr": 1, "deadline": None}
        assert decode_line(line(message))["deadline"] is None

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "9" * 400])
    def test_number_fields_must_be_finite(self, literal):
        """``json.loads`` reads all five; none of them is a time."""
        raw = b'{"op":"reserve","rid":1,"sr":0,"lr":5,"nr":1,"qr":%s}\n' % literal.encode()
        with pytest.raises(ProtocolError, match="'qr' must be a finite number"):
            decode_line(raw)
        with pytest.raises(ProtocolError, match="'tb' must be a finite number"):
            validate_payload("probe", {"ta": 0, "tb": json.loads(literal)})

    def test_oversized_line_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_line(b" " * (MAX_LINE_BYTES + 1))


class TestHandlerTables:
    """The server and the follower build their handler tables from the
    registry, so a registered op without a handler fails construction;
    these see what construction cannot."""

    def test_handlers_are_exactly_the_registered_ops(self):
        def handled(cls, prefix):
            return {name[len(prefix) :] for name in dir(cls) if name.startswith(prefix)}

        assert handled(ReservationService, "_actor_apply_") == set(OPS)
        assert handled(Follower, "_ctl_") == set(FOLLOWER_OPS)

    def test_every_error_code_is_carried_by_an_exception(self):
        def family(cls):
            return {cls}.union(*(family(sub) for sub in cls.__subclasses__()))

        carried = {cls.code for cls in family(ReproError)}
        assert set(ErrorCode) - {ErrorCode.OK} <= carried


class TestEncode:
    def test_one_line_utf8_sorted(self):
        raw = encode({"op": "status", "a": 1})
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        assert raw.index(b'"a"') < raw.index(b'"op"')
        assert decode_line(raw) == {"op": "status", "a": 1}

    def test_nan_refused(self):
        with pytest.raises(ValueError):
            encode({"op": "status", "x": math.nan})


#: what ``WIRE_ENCODER`` must equal: the stdlib encoder with the wire
#: settings, which builds its C encoder afresh on every call
REFERENCE = json.JSONEncoder(separators=(",", ":"), sort_keys=True, allow_nan=False)

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e16, -1e16, 5e-324, 1.7976931348623157e308])
    | st.text()
    | st.sampled_from(["\u00e9", "\u2028", "\U0001f600", "\x00", '"\\'])
)


def _dicts(children):
    # a dict's keys are all str or all int: sorting a mix is a TypeError
    return st.dictionaries(st.text(), children) | st.dictionaries(st.integers(), children)


_values = st.recursive(_scalars, lambda children: st.lists(children) | _dicts(children))


class TestWireEncoder:
    """The built-once encoder writes what the stdlib encoder writes."""

    @settings(max_examples=300, deadline=None)
    @given(value=_values)
    def test_bytes_equal_the_stdlib_encoder(self, value):
        assert WIRE_ENCODER.encode(value) == REFERENCE.encode(value)

    def test_edge_values(self):
        value = {"b": [-0.0, 1e16, 5e-324], "a": {"\u00e9": "\u2028\U0001f600", 2: 1}}
        with pytest.raises(TypeError):  # a mix of str and int keys cannot be sorted
            REFERENCE.encode(value)
        with pytest.raises(TypeError):
            WIRE_ENCODER.encode(value)
        value["a"] = {"\u00e9": "\u2028\U0001f600", "2": 1}
        assert WIRE_ENCODER.encode(value) == REFERENCE.encode(value) == (
            '{"a":{"2":1,"\\u00e9":"\\u2028\\ud83d\\ude00"},"b":[-0.0,1e+16,5e-324]}'
        )
        assert WIRE_ENCODER.encode({3: 1, 1: 2}) == '{"1":2,"3":1}'

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_are_a_value_error(self, bad):
        for value in (bad, [bad], {"x": {"y": bad}}):
            with pytest.raises(ValueError):
                WIRE_ENCODER.encode(value)

    def test_without_the_c_encoder_it_is_the_stdlib_encode(self, monkeypatch):
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        encoder = type(WIRE_ENCODER)()
        value = {"z": [1, 2.5, None, True], "a": {"\u00e9": -0.0}}
        assert encoder.encode(value) == REFERENCE.encode(value) == WIRE_ENCODER.encode(value)
        with pytest.raises(ValueError):
            encoder.encode([math.nan])

    def test_nesting_too_deep_is_a_recursion_error(self):
        deep: list = []
        for _ in range(20_000):
            deep = [deep]
        with pytest.raises(RecursionError):
            WIRE_ENCODER.encode(deep)
        with pytest.raises(RecursionError):
            WIRE_ENCODER.encode({"seq": deep})


class TestRequestFromPayload:
    def test_qr_defaults_to_sr(self):
        request = request_from_payload({"rid": 1, "sr": 50.0, "lr": 10, "nr": 2})
        assert isinstance(request, Request)
        assert request.qr == request.sr == 50.0

    def test_explicit_qr_makes_advance_reservation(self):
        request = request_from_payload({"rid": 1, "qr": 0, "sr": 100, "lr": 10, "nr": 2})
        assert request.is_advance()

    @pytest.mark.parametrize(
        "payload",
        [
            {"rid": 1, "sr": 0, "lr": -5, "nr": 2},  # non-positive duration
            {"rid": 1, "sr": 0, "lr": 10, "nr": 0},  # non-positive width
            {"rid": 1, "qr": 10, "sr": 0, "lr": 10, "nr": 1},  # starts before submit
            {"rid": 1, "sr": 0, "lr": 10, "nr": 1, "deadline": 5},  # infeasible deadline
        ],
    )
    def test_domain_invalid_maps_to_malformed(self, payload):
        with pytest.raises(MalformedRequestError):
            request_from_payload(payload)
