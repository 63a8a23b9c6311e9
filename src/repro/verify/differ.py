"""Lock-step differential executor, shrinker, and repro emitter.

:func:`run_stream` feeds one operation stream to two peers under one
harness: the production :class:`~repro.service.state.ServiceState` — the
very state machine ``repro serve`` and ``repro follow`` run, driven
through the same wire messages a client would send, minus the socket —
and :class:`OracleDriver` over the
:class:`~repro.verify.oracle.ReferenceScheduler`.  Compared per
operation:

* the full normalized decision (accept/reject, start, end, chosen
  servers, attempt count, delay, failure reason), plus — read off both
  allocation books, since the wire sorts ``servers`` — the order the
  servers were selected in;
* probe results (ordered ``(server, st, et)`` triples);
* cancel verdicts (found / not found);
* scale-event verdicts (``add_servers``/``drain``/``remove``/
  ``pool_status`` — successes field-by-field, refusals by error code);
* the complete per-server idle-period state — ``(st, et, uid)``, the
  uid included, since both sides number their periods the same way —
  the clock, plus the pool's lifecycle statuses (every ``state_stride``
  ops and always after the last one).

The op ↔ wire mapping (:func:`_wire`), the verdict normal form
(:func:`_normalize`) and the oracle driver are shared with
:mod:`repro.verify.chaos`, which sends the same messages over TCP/HTTP
to real subprocesses: the two harnesses differ in transport and fault
plan only.

On the first mismatch it returns a :class:`Divergence` carrying both
sides' views.  :func:`shrink_stream` then delta-debugs the trace to a
1-minimal repro (prefix truncation + ddmin + a final one-at-a-time
pass), and :func:`emit_pytest` renders it as a ready-to-paste failing
test.

:func:`inject_bug` deliberately breaks the production side — the Phase-2
selection (class-level patch of ``TwoDimTree.phase2``) or the retry
ladder's infeasibility certificate (``AvailabilityCalendar.
skip_infeasible``) — so the detector and the shrinker can prove, in CI,
that they would catch a real regression.
"""

from __future__ import annotations

import json
import math
import pprint
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..core.calendar import AvailabilityCalendar
from ..core.slot_tree import TwoDimTree
from ..core.types import INF
from ..errors import MalformedRequestError
from ..facade import CoAllocationScheduler
from ..service.declog import ADMIN_KINDS
from ..service.protocol import request_from_payload
from ..service.state import DECISION_KINDS, ServiceState
from .genstream import Stream
from .oracle import ReferenceScheduler

__all__ = [
    "Divergence",
    "FuzzResult",
    "INJECTIONS",
    "OracleDriver",
    "dump_trace",
    "emit_pytest",
    "inject_bug",
    "load_trace",
    "run_stream",
    "shrink_stream",
    "stream_to_trace",
    "trace_from_dict",
]

TRACE_FORMAT = "repro.verify.trace"
TRACE_VERSION = 1


@dataclass
class Divergence:
    """First point where production and oracle disagree."""

    index: int
    op: dict[str, Any]
    kind: str  # "result" | "state" | "exception"
    production: Any
    oracle: Any

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "op": self.op,
            "kind": self.kind,
            "production": self.production,
            "oracle": self.oracle,
        }

    def describe(self) -> str:
        return (
            f"divergence at op {self.index} ({self.kind}): {self.op!r}\n"
            f"  production: {self.production!r}\n"
            f"  oracle:     {self.oracle!r}"
        )


@dataclass
class FuzzResult:
    """Outcome of one differential run."""

    ops_run: int
    accepted: int = 0
    rejected: int = 0
    cancelled: int = 0
    cancel_missed: int = 0
    probes: int = 0
    restores: int = 0
    scale_ops: int = 0
    replayed: int = 0  # ops answered from the rid/aid tables, not decided
    divergence: Divergence | None = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "ops_run": self.ops_run,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "cancel_missed": self.cancel_missed,
            "probes": self.probes,
            "restores": self.restores,
            "scale_ops": self.scale_ops,
            "replayed": self.replayed,
            "ok": self.ok,
            "divergence": self.divergence.to_dict() if self.divergence else None,
        }


# ----------------------------------------------------------------------
# op <-> wire mapping and verdict normalization (shared with chaos)
# ----------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """Representable under JSON (inf endings become ``None`` upstream)."""
    return json.loads(json.dumps(value, allow_nan=False))


def _wire(op: dict[str, Any], index: int | None = None) -> dict[str, Any]:
    """The wire message a client sends for one stream op."""
    kind = op["kind"]
    if kind in ADMIN_KINDS:
        # a deterministic aid per op position: a back-to-back duplicate
        # must hit the aid-keyed exactly-once table, and a post-restart
        # resend reuses the same identity
        message = {"op": kind, "qr": op["qr"], "aid": f"chaos-{kind}-{index}"}
        if kind == "add_servers":
            message["count"] = op["count"]
        else:
            message["server"] = op["server"]
        return message
    if kind == "pool_status":
        return {"op": "pool_status"}
    if kind == "reserve":
        message = {
            "op": "reserve",
            "rid": op["rid"],
            "qr": op["qr"],
            "sr": op["sr"],
            "lr": op["lr"],
            "nr": op["nr"],
        }
        if op.get("deadline") is not None:
            message["deadline"] = op["deadline"]
        return message
    if kind == "probe":
        # a limit far above any plausible period count: the comparison
        # against the oracle needs the full result, not a page
        return {"op": "probe", "ta": op["ta"], "tb": op["tb"], "limit": 1_000_000}
    if kind == "cancel":
        return {"op": "cancel", "rid": op["rid"]}
    raise ValueError(f"op kind {kind!r} has no wire form")


def _normalize(op: dict[str, Any], response: dict[str, Any]) -> dict[str, Any]:
    """A service response (or bare verdict) as the form the oracle answers in."""
    kind = op["kind"]
    if kind == "reserve":
        if response.get("ok"):
            return {
                "ok": True,
                "start": response["start"],
                "end": response["end"],
                "servers": list(response["servers"]),  # already sorted by the service
                "attempts": response["attempts"],
                "delay": response["delay"],
            }
        error = response.get("error") or {}
        return {
            "ok": False,
            "reason": error.get("reason"),
            "attempts": error.get("attempts"),
        }
    if kind == "probe":
        return {"count": response["count"], "periods": response["periods"]}
    if kind == "cancel":
        return {"ok": bool(response.get("ok"))}
    if kind in ADMIN_KINDS:
        if response.get("ok"):
            keep = {
                "add_servers": ("servers", "n_servers"),
                "drain": ("server", "status", "changed", "drained"),
                "remove": ("server", "status", "changed"),
            }[kind]
            return {"ok": True, **{k: response[k] for k in keep}}
        # refusals compare by code: the message strings are a production
        # implementation detail the oracle does not mirror
        error = response.get("error") or {}
        return {"ok": False, "code": error.get("code")}
    if kind == "pool_status":
        return {
            k: response[k]
            for k in ("active", "draining", "removed", "total", "servers",
                      "drain_progress")
        }
    raise ValueError(f"op kind {kind!r} has no verdict form")


# ----------------------------------------------------------------------
# the two peers: production state machine / reference oracle
# ----------------------------------------------------------------------


def _apply_service(
    state: ServiceState, op: dict[str, Any], index: int
) -> tuple[dict[str, Any], bool, ServiceState]:
    """One op through the service's own decision path, minus the socket.

    Returns ``(normalized verdict, replayed, state)`` — ``state`` is a
    new object after a ``restore``.
    """
    kind = op["kind"]
    if kind == "restore":
        # the real persistence path: canonical JSON out, parsed back in —
        # catches float serialization drift and a verdict table that does
        # not survive, not just in-memory identity
        blob = json.dumps(state.export(0), sort_keys=True, allow_nan=False)
        restored, _ = ServiceState.from_snapshot(json.loads(blob))
        return {"ok": True, "restored": True}, False, restored
    message = _wire(op, index)
    replayed = False
    if kind in DECISION_KINDS:
        response, replayed = state.apply(kind, message)
    elif kind == "probe":
        periods = state.scheduler.range_search(message["ta"], message["tb"])
        response = {
            "count": len(periods),
            "periods": [
                [p.server, p.st, None if p.et == INF else p.et] for p in periods
            ],
        }
    else:
        # pool_status — like probe a read: no clock advance, nothing recorded
        response = state.scheduler.pool_status()
    return _normalize(op, response), replayed, state


class OracleDriver:
    """The reference peer: :class:`ReferenceScheduler` + its own rid table.

    Answers every stream op in the normalized verdict form, with the
    service's exactly-once rule mirrored independently (a rid seen
    before answers its first verdict) so duplicate sends and post-restore
    resends compare too.  ``decided`` feeds ``accepted_checksum``.
    """

    def __init__(self, config: dict[str, Any]) -> None:
        self.oracle = ReferenceScheduler(**config)
        self.decided: dict[int, dict[str, Any]] = {}

    def apply(self, op: dict[str, Any]) -> dict[str, Any]:
        oracle = self.oracle
        kind = op["kind"]
        if kind == "reserve":
            rid = int(op["rid"])
            if rid not in self.decided:
                self.decided[rid] = self._reserve(op)
            return self.decided[rid]
        if kind == "probe":
            periods = oracle.probe(float(op["ta"]), float(op["tb"]))
            return {
                "count": len(periods),
                "periods": [
                    [server, st, None if et == INF else et] for server, st, et in periods
                ],
            }
        if kind == "cancel":
            return oracle.cancel(int(op["rid"]))
        if kind == "restore":
            return {"ok": True, "restored": True}  # the oracle has no snapshot path
        if kind in ADMIN_KINDS:
            # admin ops carry a submission time like reserves do
            oracle.advance(max(oracle.now, float(op["qr"])))
            if kind == "add_servers":
                return oracle.add_servers(int(op["count"]))
            if kind == "drain":
                return oracle.drain(int(op["server"]))
            return oracle.remove(int(op["server"]))
        if kind == "pool_status":
            # a read: answered at the current clock, which it never moves
            return dict(oracle.pool_status())
        raise ValueError(f"unknown op kind {kind!r}")

    def _reserve(self, op: dict[str, Any]) -> dict[str, Any]:
        try:
            # input validation is shared, not under test: the oracle
            # mirrors scheduling semantics and would happily place nr=0
            request_from_payload(_wire(op))
        except MalformedRequestError:
            return {"ok": False, "reason": None, "attempts": None}
        oracle = self.oracle
        oracle.advance(max(oracle.now, float(op["qr"])))
        result = oracle.schedule(
            rid=int(op["rid"]),
            sr=float(op["sr"]),
            lr=float(op["lr"]),
            nr=int(op["nr"]),
            deadline=op.get("deadline"),
        )
        if result["ok"]:
            return {
                "ok": True,
                "start": result["start"],
                "end": result["end"],
                "servers": sorted(result["servers"]),
                "attempts": result["attempts"],
                "delay": result["delay"],
            }
        return {"ok": False, "reason": result["reason"], "attempts": result["attempts"]}


def _production_state(scheduler: Any) -> list[list[tuple[float, float | None, int]]]:
    """Per-server ``(st, et, uid)`` in the form of
    :meth:`~repro.verify.oracle.ReferenceScheduler.export_intervals`."""
    calendar = scheduler.calendar
    return [
        [(p.st, None if p.et == INF else p.et, p.uid) for p in calendar.idle_periods(s)]
        for s in range(scheduler.n_servers)
    ]


# ----------------------------------------------------------------------
# the lock-step run
# ----------------------------------------------------------------------


def run_stream(
    stream: Stream,
    inject: str | None = None,
    state_stride: int = 1,
) -> FuzzResult:
    """Execute one stream on both implementations, lock-step.

    ``state_stride`` compares the full per-server idle state every k ops
    (1 = every op; the final op is always state-checked).
    """
    result = FuzzResult(ops_run=0)
    with inject_bug(inject):
        state = ServiceState(CoAllocationScheduler(**stream.config))
        driver = OracleDriver(stream.config)
        oracle = driver.oracle
        for index, op in enumerate(stream.ops):
            try:
                prod_result, replayed, state = _apply_service(state, op, index)
            except Exception as exc:
                result.divergence = Divergence(
                    index, op, "exception", f"{type(exc).__name__}: {exc}", None
                )
                return result
            try:
                oracle_result = driver.apply(op)
            except Exception as exc:
                result.divergence = Divergence(
                    index, op, "exception", None, f"{type(exc).__name__}: {exc}"
                )
                return result
            result.ops_run += 1
            _tally(result, op, prod_result, replayed)
            if op["kind"] == "reserve":
                # the service sorts ``servers`` on the wire; in-process the
                # order they were *selected* in is visible too, and it fixes
                # remnant uid order and with it every later tie-break
                rid = int(op["rid"])
                booked = state.scheduler._allocations.get(rid)
                reserved = oracle._allocations.get(rid)
                prod_result["selection"] = booked and list(booked.servers)
                oracle_result = {  # a copy: the verdict is the driver's table entry
                    **oracle_result,
                    "selection": reserved and [server for server, _, _ in reserved],
                }
            if _jsonable(prod_result) != _jsonable(oracle_result):
                result.divergence = Divergence(
                    index, op, "result", _jsonable(prod_result), _jsonable(oracle_result)
                )
                return result
            last = index == len(stream.ops) - 1
            if last or index % state_stride == 0:
                production = state.scheduler
                prod_state = _production_state(production)
                oracle_state = oracle.export_intervals()
                prod_pool = list(production.pool_status()["servers"])
                oracle_pool = list(oracle.pool_status()["servers"])
                if (
                    prod_state != oracle_state
                    or production.now != oracle.now
                    or prod_pool != oracle_pool
                ):
                    result.divergence = Divergence(
                        index,
                        op,
                        "state",
                        {"now": production.now, "periods": prod_state, "pool": prod_pool},
                        {"now": oracle.now, "periods": oracle_state, "pool": oracle_pool},
                    )
                    return result
    return result


def _tally(
    result: FuzzResult, op: dict[str, Any], prod_result: dict[str, Any], replayed: bool
) -> None:
    kind = op["kind"]
    if replayed:
        result.replayed += 1
    elif kind == "reserve":
        if prod_result.get("ok"):
            result.accepted += 1
        else:
            result.rejected += 1
    elif kind == "cancel":
        if prod_result.get("ok"):
            result.cancelled += 1
        else:
            result.cancel_missed += 1
    elif kind == "probe":
        result.probes += 1
    elif kind == "restore":
        result.restores += 1
    elif kind in ("add_servers", "drain", "remove", "pool_status"):
        result.scale_ops += 1


# ----------------------------------------------------------------------
# deliberate production bugs (detector/shrinker self-test)
# ----------------------------------------------------------------------

#: selection orders a deliberately broken Phase 2 uses instead of the
#: canonical (et, uid) ascending merge
_PHASE2_ORDERS: dict[str, Callable[[Any], tuple[float, float]]] = {
    # same earliest-ending preference, uid ties broken the *wrong* way
    "reverse-tiebreak": lambda p: (p.et, -p.uid),
    # worst-fit: latest-ending feasible periods win
    "latest-ending": lambda p: (-p.et, p.uid),
}

#: every seeded bug ``inject_bug`` knows.  ``skip-past-feasible`` is an
#: off-by-one in the ladder certificate's tail test (it reads the
#: ``n_r + 1``-th trailing start where the ``n_r``-th decides), so a start
#: that exactly ``n_r`` trailing periods could host is passed over
INJECTIONS: tuple[str, ...] = (*_PHASE2_ORDERS, "skip-past-feasible")


@contextmanager
def inject_bug(kind: str | None) -> Iterator[None]:
    """Temporarily break the production side in one known way.

    The Phase-2 injections replace ``TwoDimTree.phase2``: the patch
    recovers the *full* feasible set through the original implementation
    (``need=inf``), re-sorts it with the injected order, and slices — so
    feasibility stays correct and only the canonical selection rule is
    violated, exactly the bug class PR 4 fixed.  ``skip-past-feasible``
    replaces ``AvailabilityCalendar.skip_infeasible`` (see
    :data:`INJECTIONS`): selection stays canonical, but grants come late
    or not at all.
    """
    if kind is None:
        yield
        return
    if kind not in INJECTIONS:
        raise ValueError(
            f"unknown injection {kind!r} (expected one of {', '.join(INJECTIONS)})"
        )
    if kind == "skip-past-feasible":
        owner, name = AvailabilityCalendar, "skip_infeasible"
        original = AvailabilityCalendar.skip_infeasible

        def patched(self, base, delta_t, k, k_end, latest, lr, nr):  # type: ignore[no-untyped-def]
            # nr only feeds the tail test, so nr + 1 *is* the off-by-one
            return original(self, base, delta_t, k, k_end, latest, lr, nr + 1)

    else:
        owner, name = TwoDimTree, "phase2"
        original = TwoDimTree.phase2
        order = _PHASE2_ORDERS[kind]

        def patched(self, marks, er, need, partial=False):  # type: ignore[no-untyped-def]
            full = original(self, marks, er, math.inf, True) or []
            full = sorted(full, key=order)
            if need == math.inf:
                return full
            need_int = int(need)
            if len(full) < need_int and not partial:
                return None
            return full[:need_int]

    setattr(owner, name, patched)
    try:
        yield
    finally:
        setattr(owner, name, original)


# ----------------------------------------------------------------------
# shrinking (ddmin over the op list)
# ----------------------------------------------------------------------


@dataclass
class ShrinkResult:
    stream: Stream
    divergence: Divergence
    evaluations: int = 0
    original_ops: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "minimized_ops": len(self.stream.ops),
            "original_ops": self.original_ops,
            "evaluations": self.evaluations,
            "divergence": self.divergence.to_dict(),
            "trace": stream_to_trace(self.stream),
        }


def shrink_stream(
    stream: Stream,
    inject: str | None = None,
    max_evaluations: int = 3000,
) -> ShrinkResult | None:
    """Delta-debug a diverging stream to a 1-minimal op subsequence.

    Returns ``None`` when the stream does not diverge at all.  The
    returned stream still diverges, and removing any single remaining op
    makes the divergence disappear (1-minimality), within the evaluation
    budget.
    """
    evaluations = 0

    def probe(ops: list[dict[str, Any]]) -> Divergence | None:
        nonlocal evaluations
        evaluations += 1
        candidate = Stream(
            config=stream.config, ops=ops, profile=stream.profile, seed=stream.seed
        )
        return run_stream(candidate, inject=inject).divergence

    divergence = probe(stream.ops)
    if divergence is None:
        return None
    # everything after the divergence point is noise
    ops = stream.ops[: divergence.index + 1]
    original_ops = len(stream.ops)

    # ddmin: remove complements of ever-finer chunkings
    granularity = 2
    while len(ops) >= 2 and evaluations < max_evaluations:
        chunk = max(1, math.ceil(len(ops) / granularity))
        reduced = False
        for start in range(0, len(ops), chunk):
            candidate = ops[:start] + ops[start + chunk :]
            if not candidate:
                continue
            found = probe(candidate)
            if found is not None:
                ops = candidate[: found.index + 1]
                divergence = found
                granularity = max(2, granularity - 1)
                reduced = True
                break
            if evaluations >= max_evaluations:
                break
        if not reduced:
            if granularity >= len(ops):
                break
            granularity = min(len(ops), granularity * 2)

    # final pass: 1-minimality (drop single ops until none can go)
    changed = True
    while changed and evaluations < max_evaluations:
        changed = False
        for i in range(len(ops) - 1, -1, -1):
            if len(ops) == 1:
                break
            candidate = ops[:i] + ops[i + 1 :]
            found = probe(candidate)
            if found is not None:
                ops = candidate[: found.index + 1]
                divergence = found
                changed = True
                break
            if evaluations >= max_evaluations:
                break

    minimized = Stream(
        config=stream.config, ops=ops, profile=stream.profile, seed=stream.seed
    )
    return ShrinkResult(
        stream=minimized,
        divergence=divergence,
        evaluations=evaluations,
        original_ops=original_ops,
    )


# ----------------------------------------------------------------------
# trace (de)serialization and the failing-test emitter
# ----------------------------------------------------------------------


def stream_to_trace(stream: Stream) -> dict[str, Any]:
    """The stream as the versioned, JSON-ready trace format."""
    return {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "profile": stream.profile,
        "seed": stream.seed,
        "config": dict(stream.config),
        "ops": list(stream.ops),
        **({"meta": stream.meta} if stream.meta else {}),
    }


def trace_from_dict(data: dict[str, Any]) -> Stream:
    if data.get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} document: format={data.get('format')!r}")
    if data.get("version") != TRACE_VERSION:
        raise ValueError(
            f"unsupported trace version {data.get('version')!r} "
            f"(this build reads version {TRACE_VERSION})"
        )
    return Stream(
        config=dict(data["config"]),
        ops=list(data["ops"]),
        profile=data.get("profile"),
        seed=data.get("seed"),
        meta=dict(data.get("meta", {})),
    )


def dump_trace(stream: Stream, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stream_to_trace(stream), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_trace(path: str) -> Stream:
    with open(path, "r", encoding="utf-8") as fh:
        return trace_from_dict(json.load(fh))


def emit_pytest(shrunk: ShrinkResult, name: str = "minimized_fuzz_repro") -> str:
    """A self-contained failing pytest for a minimized divergence."""
    # pformat, not json.dumps: the trace is pasted as a Python literal,
    # where JSON's null/true/false spellings would be NameErrors
    trace_json = pprint.pformat(
        stream_to_trace(shrunk.stream), indent=1, width=78, sort_dicts=True
    )
    summary = shrunk.divergence.describe().replace("\\", "\\\\").replace('"', '\\"')
    return f'''"""Auto-generated by `repro fuzz --shrink`.

Observed: {summary}

Paste into tests/ (or commit the trace into tests/verify/corpus/ — see
docs/testing.md) and fix the production side until it passes.
"""

from repro.verify.differ import run_stream, trace_from_dict

TRACE = {trace_json}


def test_{name}():
    result = run_stream(trace_from_dict(TRACE))
    assert result.divergence is None, result.divergence.describe()
'''
