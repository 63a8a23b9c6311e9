"""The request path walked in-process, one span per layer call.

:func:`replay` serves a stream single-threaded by calling each layer's
public functions in the order ``repro serve`` (and ``repro gateway``)
call them: decode → admit → decide (retry loop, search, update) → log
append → release → encode.  Without a tracer it is the *verdict
reference* every wire phase is checked against; with one, each call is a
span, and timing wrappers on the calendar's, the slot tree's and the
co-allocator's public methods give the child spans.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.core.calendar import AvailabilityCalendar
from repro.core.coalloc import OnlineCoAllocator
from repro.core.slot_tree import TwoDimTree
from repro.facade import CoAllocationScheduler
from repro.gateway.follower import Follower, FollowerConfig
from repro.gateway.http import json_response, read_request
from repro.service.admission import AdmissionController
from repro.service.declog import (
    DecisionLog,
    decide_cancel,
    decide_reserve,
    decision_message,
)
from repro.service.protocol import decode_line, encode, validate_payload
from repro.service.snapshot import read_snapshot, write_snapshot

from checks import verdict_line
from spans import Tracer
from streams import N_SERVERS, Q_SLOTS, TAU
from wire import payload

#: the public methods that get a timing wrapper during the traced run
WRAPPED = (
    (AvailabilityCalendar, "calendar", ("advance", "find_feasible", "allocate", "release", "range_search")),
    (TwoDimTree, "slot_tree", ("phase1", "phase2", "apply_batch", "bulk_load", "range_search")),
    (OnlineCoAllocator, "coalloc", ("schedule_detailed",)),
)

#: default limit of idle periods listed in one probe reply (ServiceConfig.probe_limit)
PROBE_LIMIT = 64


@dataclass
class Replay:
    verdicts: list[str | None]
    wall_s: float
    reply_bytes: int
    scheduler: CoAllocationScheduler
    decided: dict[int, dict[str, Any]]
    log: DecisionLog | None


def _plain_call(name: str, fn: Any, *args: Any) -> Any:
    return fn(*args)


def replay(
    stream: list[dict[str, Any]],
    http: bool,
    log_dir: Path | None = None,
    tracer: Tracer | None = None,
) -> Replay:
    """Serve ``stream`` in-process; see the module docstring."""
    call = tracer.call if tracer is not None else _plain_call
    scheduler = CoAllocationScheduler(n_servers=N_SERVERS, tau=TAU, q_slots=Q_SLOTS)
    admission = AdmissionController()
    log = DecisionLog(log_dir) if log_dir is not None else None
    decided: dict[int, dict[str, Any]] = {}
    verdicts: list[str | None] = []
    reply_bytes = 0
    # the client's side of the wire is prepared before the clock starts
    inputs = [payload(message, http) for message in stream]
    if http:
        loop = asyncio.new_event_loop()
        reader = asyncio.StreamReader(loop=loop)
    if tracer is not None:
        for cls, layer, methods in WRAPPED:
            for method in methods:
                tracer.wrap(cls, method, f"{layer}.{method}")
    started = perf_counter()
    try:
        for index, raw in enumerate(inputs):
            if tracer is not None:
                tracer.request = index
                root = tracer.begin("request")
            if http:
                reader.feed_data(raw)
                request = call("http.read_request", _run_now, read_request(reader))
                op = request.path.rsplit("/", 1)[1]
                body = call("protocol.validate_payload", validate_payload, op, request.json())
                raw = call("protocol.encode", encode, body)
            message = call("protocol.decode_line", decode_line, raw)
            op = message["op"]
            call("admission.admit", admission.admit)
            decide_started = perf_counter()
            if op == "reserve":
                rid = message["rid"]
                entry = call("declog.decide", decide_reserve, scheduler, message)
                decided[rid] = entry
                if log is not None:
                    record = decision_message("reserve", message)
                    call("declog.append", log.append, "reserve", record, entry)
                if entry["ok"]:
                    reply = {"op": "reserve", "rid": rid, **entry}
                else:
                    reply = {"ok": False, "op": "reserve", "rid": rid, "error": entry["error"]}
            elif op == "probe":
                periods = call(
                    "coalloc.range_search", scheduler.range_search, message["ta"], message["tb"]
                )
                reply = {
                    "ok": True,
                    "op": "probe",
                    "count": len(periods),
                    "periods": [
                        [p.server, p.st, None if p.et == float("inf") else p.et]
                        for p in periods[:PROBE_LIMIT]
                    ],
                }
            else:
                rid = message["rid"]
                verdict = call("declog.decide", decide_cancel, scheduler, rid)
                if log is not None:
                    record = decision_message("cancel", message)
                    call("declog.append", log.append, "cancel", record, verdict)
                reply = {"op": "cancel", "rid": rid, **verdict}
            call("admission.release", admission.release, perf_counter() - decide_started, 0.0)
            out = call("protocol.encode", encode, reply)
            reply_bytes += len(out)
            if http:
                # the gateway parses the backend's line and re-renders it as HTTP
                call("http.json_response", json_response, 200, json.loads(out))
            if tracer is not None:
                tracer.end(root)
            verdicts.append(verdict_line(stream[index], reply))
    finally:
        wall = perf_counter() - started
        if tracer is not None:
            tracer.unwrap_all()
        if log is not None:
            log.close()
        if http:
            loop.close()
    return Replay(verdicts, wall, reply_bytes, scheduler, decided, log)


def _run_now(coroutine: Any) -> Any:
    """Finish a coroutine whose input is already buffered, without a loop."""
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    raise RuntimeError("coroutine suspended: its input was not fully buffered")


def snapshot_costs(run: Replay, path: Path) -> dict[str, float]:
    """Export, write and restore the end-of-stream state once."""
    t0 = perf_counter()
    scheduler_state = run.scheduler.export_state()
    t1 = perf_counter()
    state = {
        "scheduler": scheduler_state,
        "decided": {str(rid): run.decided[rid] for rid in sorted(run.decided)},
        "admin_decided": {},
        "log_hwm": run.log.hwm if run.log is not None else 0,
    }
    meta = write_snapshot(path, state)
    t2 = perf_counter()
    CoAllocationScheduler.from_state(read_snapshot(path)["scheduler"])
    t3 = perf_counter()
    return {
        "export_s": t1 - t0,
        "write_s": t2 - t1,
        "restore_s": t3 - t2,
        "bytes": meta["bytes"],
    }


def follower_apply_seconds(log_dir: Path) -> tuple[float, int]:
    """Seconds a fresh follower takes to apply every record under ``log_dir``."""
    log = DecisionLog(log_dir)
    records = log.tail(0, log.hwm)
    log.close()
    follower = Follower(FollowerConfig())
    follower.bootstrap_fresh(
        {"n_servers": N_SERVERS, "tau": TAU, "q_slots": Q_SLOTS, "delta_t": TAU, "r_max": Q_SLOTS // 2}
    )
    started = perf_counter()
    for record in records:
        follower.apply_record(record)
    return perf_counter() - started, len(records)
