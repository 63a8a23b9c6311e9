"""Wire protocol: newline-delimited JSON over TCP.

Each message is one JSON object on one line (UTF-8, ``\\n`` terminated).
Requests carry an ``op`` plus op-specific fields; responses echo the
``op`` (and ``rid``/``seq`` when present) with either the op's result or
a typed error object reusing :class:`~repro.errors.ErrorCode`::

    -> {"op": "reserve", "rid": 7, "qr": 0.0, "sr": 0.0, "lr": 3600, "nr": 4}
    <- {"ok": true, "op": "reserve", "rid": 7, "start": 0.0, "end": 3600.0,
        "servers": [0, 1, 2, 3], "attempts": 1, "delay": 0.0}
    -> {"op": "reserve", "rid": 8, "sr": 0.0, "lr": -1, "nr": 4}
    <- {"ok": false, "op": "reserve", "rid": 8,
        "error": {"code": "MALFORMED", "exit_code": 2, "message": "..."}}

Responses on one connection come back in request order, so pipelining
clients may correlate FIFO; ``rid`` (reserve/cancel) and the optional
pass-through ``seq`` field support out-of-band bookkeeping.

The whole vocabulary — public client ops and the follower's control ops
alike — lives in one declarative :data:`REGISTRY` of :class:`OpSpec`
entries.  Everything else derives from it: runtime validation
(:func:`decode_line`, :func:`validate_payload`), the ``OPS`` and
``FOLLOWER_OPS`` tuples, and the handler tables: the server and the
follower build theirs from those tuples when they are constructed, so
an op registered without its ``_actor_apply_<op>`` / ``_ctl_<op>``
handler stops the listener from starting.  Adding an op means adding
one :class:`OpSpec` and its handler.  Both listeners answer errors
through :func:`error_response`, the one error/``seq`` rule.

Validation here is *structural* (field presence and types).  Domain
validation — ``l_r > 0``, ``s_r >= q_r``, feasible deadlines — happens in
:class:`~repro.core.types.Request`, whose ``ValueError`` the server maps
to the same ``MALFORMED`` error code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable

from ..core.types import Request
from ..errors import MalformedRequestError, error_payload

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "READ_CHUNK_BYTES",
    "OPS",
    "FOLLOWER_OPS",
    "FIELD_TYPES",
    "OpSpec",
    "REGISTRY",
    "ProtocolError",
    "WIRE_ENCODER",
    "decode_line",
    "echo_seq",
    "encode",
    "error_response",
    "request_from_payload",
    "validate_payload",
]

#: bumped on any incompatible wire change; ``status`` reports it
PROTOCOL_VERSION = 1

#: hard cap on one NDJSON line; longer lines are a framing attack/bug
MAX_LINE_BYTES = 1 << 20

#: bytes asked of ``recv()`` per read event, set as ``transport.max_size``
#: on every request-serving connection.  asyncio's selector transport
#: allocates a fresh buffer of that size for each read, and its default
#: (256 KiB) is above glibc's mmap threshold: whenever the heap happens
#: to hold no free chunk that large, every read costs an
#: mmap/mremap/munmap round and two page faults.  Whether it does
#: depends on nothing more than which modules the process imported —
#: measured at +25 % server CPU per op on ``mixed-http`` (DESIGN.md §7).
#: Requests are ~100 B; line length is bounded by the StreamReader
#: ``limit``, not by this.
READ_CHUNK_BYTES = 64 * 1024

#: wire-type vocabulary: spec tag -> accepted Python types.  ``bool`` is
#: excluded from ``int``/``number`` (JSON ``true`` is not a count), and a
#: ``number`` must be finite (``NaN``/``Infinity`` are not times).
FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "number": (int, float),
    "str": (str,),
    "list": (list,),
    "dict": (dict,),
}


#: listener vocabularies an op may belong to
ROLES = ("public", "follower")


@dataclass(frozen=True, slots=True)
class OpSpec:
    """One operation's wire contract: fields as ``(name, type tag)`` pairs.

    ``role`` names the listener that accepts the op: ``"public"`` (the
    actor's front door, also proxied by the HTTP gateway) or
    ``"follower"`` (the warm-standby follower's control listener).
    """

    name: str
    required: tuple[tuple[str, str], ...] = ()
    optional: tuple[tuple[str, str], ...] = ()
    role: str = "public"

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"{self.name}: unknown role {self.role!r}")
        for fname, tag in self.required + self.optional:
            if tag not in FIELD_TYPES:
                raise ValueError(f"{self.name}.{fname}: unknown type tag {tag!r}")

    @property
    def field_names(self) -> frozenset[str]:
        """Every field this op may carry (beyond ``op`` and ``seq``)."""
        return frozenset(name for name, _ in self.required + self.optional)


_SPECS: tuple[OpSpec, ...] = (
    # -- public client ops (order is the wire-documented OPS order) ------
    OpSpec(
        "reserve",
        required=(("rid", "int"), ("sr", "number"), ("lr", "number"), ("nr", "int")),
        optional=(("qr", "number"), ("deadline", "number")),
    ),
    OpSpec(
        "probe",
        required=(("ta", "number"), ("tb", "number")),
        optional=(("limit", "int"),),
    ),
    OpSpec("cancel", required=(("rid", "int"),)),
    OpSpec("status"),
    OpSpec("snapshot", optional=(("path", "str"),)),
    OpSpec("shutdown"),
    OpSpec(
        "log_tail",
        required=(("cursor", "int"),),
        optional=(("limit", "int"), ("follower_id", "str")),
    ),
    # -- elastic-pool admin ops (public: the gateway proxies them via
    #    POST /v1/admin/scale).  ``aid`` is an idempotency key: a retried
    #    admin op with the same aid replays its logged verdict instead of
    #    mutating twice (exactly-once via the decision log, like rids).
    #    ``qr`` is the submission time driving the virtual clock, exactly
    #    as on reserve — drain/remove legality depends on ``now``.
    OpSpec(
        "add_servers",
        required=(("count", "int"),),
        optional=(("aid", "str"), ("qr", "number")),
    ),
    OpSpec(
        "drain",
        required=(("server", "int"),),
        optional=(("aid", "str"), ("qr", "number")),
    ),
    OpSpec(
        "remove",
        required=(("server", "int"),),
        optional=(("aid", "str"), ("qr", "number")),
    ),
    OpSpec("pool_status"),
    # -- warm-standby follower control ops -------------------------------
    OpSpec("follower_status", role="follower"),
    OpSpec("promote", optional=(("port", "int"),), role="follower"),
)

#: the single source of truth for the wire vocabulary, by op name
REGISTRY: dict[str, OpSpec] = {spec.name: spec for spec in _SPECS}

#: every operation the public server understands, in documented order
OPS: tuple[str, ...] = tuple(s.name for s in _SPECS if s.role == "public")

#: operations the warm-standby follower's control listener understands
FOLLOWER_OPS: tuple[str, ...] = tuple(s.name for s in _SPECS if s.role == "follower")

#: the fields an HTTP body may hold, by public op: its own and ``seq``
_BODY_FIELDS: dict[str, frozenset[str]] = {
    s.name: s.field_names | {"seq"} for s in _SPECS if s.role == "public"
}


class ProtocolError(MalformedRequestError):
    """The line is not a valid protocol message (framing or fields)."""


class _WireEncoder(json.JSONEncoder):
    """A ``JSONEncoder`` whose C encoder is made once, not once per call.

    ``JSONEncoder.encode`` goes through ``iterencode(_one_shot=True)``,
    which builds a fresh ``_json`` encoder (and a ``floatstr`` closure)
    on every call.  This one builds it in ``__init__`` with the same
    arguments ``iterencode`` would pass, so the bytes and the errors are
    the stdlib's; without the C accelerator it is ``JSONEncoder.encode``.
    """

    def __init__(self) -> None:
        super().__init__(
            separators=(",", ":"), sort_keys=True, allow_nan=False, check_circular=False
        )
        make = getattr(json.encoder, "c_make_encoder", None)  # None without ``_json``
        self._chunks: Callable[[Any, int], Any] | None = None
        if make is not None:
            self._chunks = make(
                None,  # the markers of the cycle check, which is off
                self.default,
                json.encoder.encode_basestring_ascii,
                self.indent,
                self.key_separator,
                self.item_separator,
                self.sort_keys,
                self.skipkeys,
                self.allow_nan,
            )

    def encode(self, o: Any) -> str:
        if self._chunks is None:
            return super().encode(o)
        return "".join(self._chunks(o, 0))


#: the one JSON encoder of every wire line, HTTP body and snapshot:
#: compact separators, sorted keys, no ``NaN``/``Infinity``.  It is built
#: once, C encoder included (``json.dumps`` with any non-default setting
#: builds a ``JSONEncoder`` per call, and ``JSONEncoder.encode`` builds a
#: C encoder per call), and without the cycle check: every value it
#: meets is decoded JSON or a dict the server built, neither of which
#: can contain itself.  Nesting too deep for the interpreter raises
#: ``RecursionError`` either way; callers treat it as they treat
#: ``ValueError``.
WIRE_ENCODER = _WireEncoder()


def encode(message: dict[str, Any]) -> bytes:
    """One message as an NDJSON line (compact separators, sorted keys).

    Raises ``ValueError`` on a non-finite float and ``RecursionError`` on
    nesting too deep to encode.
    """
    return (WIRE_ENCODER.encode(message) + "\n").encode("utf-8")


def echo_seq(message: dict[str, Any], response: dict[str, Any]) -> dict[str, Any]:
    """``response``, given the request's pass-through ``seq`` when it has one."""
    if "seq" in message:
        response["seq"] = message["seq"]
    return response


def error_response(message: dict[str, Any], exc: BaseException) -> dict[str, Any]:
    """The typed error reply to ``message``.

    It echoes ``op`` (``null`` for a line that never decoded), and
    ``rid`` and ``seq`` when the request carried them.
    """
    response: dict[str, Any] = {
        "ok": False,
        "op": message.get("op"),
        "error": error_payload(exc),
    }
    if "rid" in message:
        response["rid"] = message["rid"]
    return echo_seq(message, response)


def _check_type(op: str, name: str, value: Any, tag: str) -> None:
    types = FIELD_TYPES[tag]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ProtocolError(
            f"{op}: field {name!r} must be {' or '.join(t.__name__ for t in types)}"
        )
    if tag == "number":
        # json.loads accepts NaN/Infinity, and an int too large for a
        # float is as unusable as either: a time must be a finite float
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ProtocolError(f"{op}: field {name!r} must be a finite number")


def decode_line(raw: bytes, ops: tuple[str, ...] = OPS) -> dict[str, Any]:
    """Parse and structurally validate one request line against ``ops``.

    Returns the message dict (with ``op`` guaranteed present and known,
    required fields present with the right JSON types).  Raises
    :class:`ProtocolError` otherwise — the server answers ``MALFORMED``
    and keeps the connection alive (framing is line-based, so one bad
    line does not poison the stream).  ``ops`` defaults to the public
    vocabulary; the follower's control listener passes
    :data:`FOLLOWER_OPS`.
    """
    if len(raw) > MAX_LINE_BYTES:
        raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        # a short line can nest deeper than the parser recurses
        raise ProtocolError("not valid JSON: nested too deeply") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"expected a JSON object, got {type(message).__name__}")
    op = message.get("op")
    if not isinstance(op, str) or op not in ops:
        raise ProtocolError(f"unknown op {op!r} (expected one of {', '.join(ops)})")
    spec = REGISTRY[op]
    for name, tag in spec.required:
        if name not in message:
            raise ProtocolError(f"{op}: missing required field {name!r}")
        _check_type(op, name, message[name], tag)
    for name, tag in spec.optional:
        if name in message and message[name] is not None:
            _check_type(op, name, message[name], tag)
    return message


def validate_payload(op: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Strictly validate an ``op`` body built from an untrusted source.

    The HTTP gateway derives its request validation from the registry
    through this function — there is deliberately no second schema.  It
    is stricter than :func:`decode_line`: *unknown fields are rejected*
    (an HTTP client sending ``{"ridd": 7}`` gets a 400, not a silently
    ignored typo).  Returns the message dict with ``op`` filled in.
    Raises :class:`ProtocolError` on any structural problem.
    """
    allowed = _BODY_FIELDS.get(op)
    if allowed is None:
        raise ProtocolError(f"unknown op {op!r} (expected one of {', '.join(OPS)})")
    spec = REGISTRY[op]
    for name in payload:
        if name == "op":
            if payload[name] != op:
                raise ProtocolError(f"{op}: body 'op' field disagrees with endpoint")
            continue
        if name not in allowed:
            raise ProtocolError(
                f"{op}: unknown field {name!r} "
                f"(known fields: {', '.join(sorted(allowed - {'seq'})) or 'none'})"
            )
    for name, tag in spec.required:
        if name not in payload:
            raise ProtocolError(f"{op}: missing required field {name!r}")
        _check_type(op, name, payload[name], tag)
    for name, tag in spec.optional:
        if name in payload and payload[name] is not None:
            _check_type(op, name, payload[name], tag)
    return {**payload, "op": op}


def request_from_payload(message: dict[str, Any]) -> Request:
    """Build the domain :class:`Request` from a validated ``reserve`` message.

    ``qr`` defaults to ``sr`` (an immediate request); domain-invalid
    combinations (``qr > sr``, non-positive duration, infeasible
    deadline, …) surface as :class:`~repro.errors.MalformedRequestError`.
    """
    sr = float(message["sr"])
    qr = float(message.get("qr", sr) if message.get("qr") is not None else sr)
    deadline = message.get("deadline")
    try:
        return Request(
            qr=qr,
            sr=sr,
            lr=float(message["lr"]),
            nr=int(message["nr"]),
            rid=int(message["rid"]),
            deadline=None if deadline is None else float(deadline),
        )
    except ValueError as exc:
        raise MalformedRequestError(str(exc)) from exc
