"""Lock-step differential executor, shrinker, and repro emitter.

:func:`run_stream` feeds one operation stream to both the production
:class:`~repro.facade.CoAllocationScheduler` and the
:class:`~repro.verify.oracle.ReferenceScheduler`, comparing per
operation:

* the full normalized decision (accept/reject, start, end, chosen
  servers *in selection order*, attempt count, failure reason);
* probe results (ordered ``(server, st, et)`` triples);
* cancel verdicts (found / not found);
* scale-event verdicts (``add_servers``/``drain``/``remove``/
  ``pool_status`` — successes field-by-field, refusals by error code);
* the complete per-server idle-period state plus the pool's lifecycle
  statuses (every ``state_stride`` ops and always after the last one).

On the first mismatch it returns a :class:`Divergence` carrying both
sides' views.  :func:`shrink_stream` then delta-debugs the trace to a
1-minimal repro (prefix truncation + ddmin + a final one-at-a-time
pass), and :func:`emit_pytest` renders it as a ready-to-paste failing
test.

:func:`inject_bug` deliberately breaks the production Phase-2 selection
(class-level patch of ``TwoDimTree.phase2``) so the detector and the
shrinker can prove, in CI, that they would catch a real regression.
"""

from __future__ import annotations

import json
import math
import pprint
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..core.slot_tree import TwoDimTree
from ..core.types import INF, Request
from ..errors import MalformedRequestError, NotFoundError, ReproError
from ..facade import CoAllocationScheduler
from .genstream import Stream
from .oracle import ReferenceScheduler

__all__ = [
    "Divergence",
    "FuzzResult",
    "INJECTIONS",
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
            "ok": self.ok,
            "divergence": self.divergence.to_dict() if self.divergence else None,
        }


# ----------------------------------------------------------------------
# normalized op application (production / oracle)
# ----------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """Representable under JSON (inf endings become ``None`` upstream)."""
    return json.loads(json.dumps(value, allow_nan=False))


def _apply_production(
    scheduler: CoAllocationScheduler, op: dict[str, Any]
) -> tuple[dict[str, Any], CoAllocationScheduler]:
    """Apply one op to the production side."""
    kind = op["kind"]
    if kind == "reserve":
        try:
            request = Request(
                qr=float(op["qr"]),
                sr=float(op["sr"]),
                lr=float(op["lr"]),
                nr=int(op["nr"]),
                rid=int(op["rid"]),
                deadline=op.get("deadline"),
            )
        except (MalformedRequestError, ValueError) as exc:
            return {"ok": False, "reason": "malformed", "error": str(exc)}, scheduler
        # the service's virtual clock: advance from the submission time
        scheduler.advance(max(scheduler.now, request.qr))
        outcome = scheduler.schedule_detailed(request)
        if outcome.allocation is None:
            return {
                "ok": False,
                "attempts": outcome.attempts,
                "reason": outcome.reason,
            }, scheduler
        allocation = outcome.allocation
        return {
            "ok": True,
            "start": allocation.start,
            "end": allocation.end,
            "servers": list(allocation.servers),
            "attempts": allocation.attempts,
            "delay": allocation.delay,
            "reason": None,
        }, scheduler
    if kind == "probe":
        periods = scheduler.range_search(float(op["ta"]), float(op["tb"]))
        return {
            "periods": [
                [p.server, p.st, None if p.et == INF else p.et] for p in periods
            ],
            "count": len(periods),
        }, scheduler
    if kind == "cancel":
        try:
            scheduler.cancel(int(op["rid"]))
        except NotFoundError:
            return {"ok": False}, scheduler
        return {"ok": True}, scheduler
    if kind == "restore":
        # the real persistence path: canonical JSON out, parsed back in —
        # catches float serialization drift, not just in-memory identity
        blob = json.dumps(scheduler.export_state(), sort_keys=True, allow_nan=False)
        return {"ok": True, "restored": True}, CoAllocationScheduler.from_state(
            json.loads(blob)
        )
    if kind in ("add_servers", "drain", "remove", "pool_status"):
        # admin ops carry a submission time like reserves do
        scheduler.advance(max(scheduler.now, float(op["qr"])))
        try:
            if kind == "add_servers":
                new_ids = scheduler.add_servers(int(op["count"]))
                return {
                    "ok": True,
                    "servers": list(new_ids),
                    "n_servers": scheduler.n_servers,
                }, scheduler
            if kind == "drain":
                return {"ok": True, **scheduler.drain(int(op["server"]))}, scheduler
            if kind == "remove":
                return {"ok": True, **scheduler.remove(int(op["server"]))}, scheduler
            return dict(scheduler.pool_status()), scheduler
        except ReproError as exc:
            # refusal verdicts compare by code: the message strings are a
            # production implementation detail the oracle does not mirror
            return {"ok": False, "code": exc.payload()["code"]}, scheduler
    raise ValueError(f"unknown op kind {kind!r}")


def _apply_oracle(oracle: ReferenceScheduler, op: dict[str, Any]) -> dict[str, Any]:
    kind = op["kind"]
    if kind == "reserve":
        try:
            Request(
                qr=float(op["qr"]),
                sr=float(op["sr"]),
                lr=float(op["lr"]),
                nr=int(op["nr"]),
                rid=int(op["rid"]),
                deadline=op.get("deadline"),
            )
        except (MalformedRequestError, ValueError) as exc:
            return {"ok": False, "reason": "malformed", "error": str(exc)}
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
                "servers": result["servers"],
                "attempts": result["attempts"],
                "delay": result["delay"],
                "reason": None,
            }
        return {"ok": False, "attempts": result["attempts"], "reason": result["reason"]}
    if kind == "probe":
        periods = oracle.probe(float(op["ta"]), float(op["tb"]))
        return {
            "periods": [
                [server, st, None if et == INF else et] for server, st, et in periods
            ],
            "count": len(periods),
        }
    if kind == "cancel":
        return oracle.cancel(int(op["rid"]))
    if kind == "restore":
        return {"ok": True, "restored": True}  # the oracle has no snapshot path
    if kind in ("add_servers", "drain", "remove", "pool_status"):
        oracle.advance(max(oracle.now, float(op["qr"])))
        if kind == "add_servers":
            return oracle.add_servers(int(op["count"]))
        if kind == "drain":
            return oracle.drain(int(op["server"]))
        if kind == "remove":
            return oracle.remove(int(op["server"]))
        return dict(oracle.pool_status())
    raise ValueError(f"unknown op kind {kind!r}")


def _production_state(scheduler: Any) -> list[list[list[Any]]]:
    return [
        [[p.st, None if p.et == INF else p.et] for p in scheduler.calendar.idle_periods(s)]
        for s in range(scheduler.n_servers)
    ]


def _oracle_state(oracle: ReferenceScheduler) -> list[list[list[Any]]]:
    return [
        [[st, et] for st, et in periods] for periods in oracle.export_intervals()
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
        production = CoAllocationScheduler(**stream.config)
        oracle = ReferenceScheduler(**stream.config)
        for index, op in enumerate(stream.ops):
            try:
                prod_result, production = _apply_production(production, op)
            except Exception as exc:
                result.divergence = Divergence(
                    index, op, "exception", f"{type(exc).__name__}: {exc}", None
                )
                return result
            try:
                oracle_result = _apply_oracle(oracle, op)
            except Exception as exc:
                result.divergence = Divergence(
                    index, op, "exception", None, f"{type(exc).__name__}: {exc}"
                )
                return result
            result.ops_run += 1
            _tally(result, op, prod_result)
            if _jsonable(prod_result) != _jsonable(oracle_result):
                result.divergence = Divergence(
                    index, op, "result", _jsonable(prod_result), _jsonable(oracle_result)
                )
                return result
            last = index == len(stream.ops) - 1
            if last or index % state_stride == 0:
                prod_state = _production_state(production)
                oracle_state = _oracle_state(oracle)
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


def _tally(result: FuzzResult, op: dict[str, Any], prod_result: dict[str, Any]) -> None:
    kind = op["kind"]
    if kind == "reserve":
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
INJECTIONS: dict[str, Callable[[Any], tuple[float, float]]] = {
    # same earliest-ending preference, uid ties broken the *wrong* way
    "reverse-tiebreak": lambda p: (p.et, -p.uid),
    # worst-fit: latest-ending feasible periods win
    "latest-ending": lambda p: (-p.et, p.uid),
}


@contextmanager
def inject_bug(kind: str | None) -> Iterator[None]:
    """Temporarily replace ``TwoDimTree.phase2`` with a broken selection.

    The patch recovers the *full* feasible set through the original
    implementation (``need=inf``), re-sorts it with the injected order,
    and slices — so feasibility stays correct and only the canonical
    selection rule is violated, exactly the bug class PR 4 fixed.
    """
    if kind is None:
        yield
        return
    try:
        order = INJECTIONS[kind]
    except KeyError:
        raise ValueError(
            f"unknown injection {kind!r} (expected one of {', '.join(INJECTIONS)})"
        ) from None
    original = TwoDimTree.phase2

    def patched(self, marks, er, need, partial=False):  # type: ignore[no-untyped-def]
        full = original(self, marks, er, math.inf, True) or []
        full = sorted(full, key=order)
        if need == math.inf:
            return full
        need_int = int(need)
        if len(full) < need_int and not partial:
            return None
        return full[:need_int]

    TwoDimTree.phase2 = patched  # type: ignore[method-assign]
    try:
        yield
    finally:
        TwoDimTree.phase2 = original  # type: ignore[method-assign]


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
