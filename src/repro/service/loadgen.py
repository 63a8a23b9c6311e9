"""`repro loadgen` — open-loop trace replay against a running server.

The generator streams SWF-derived requests (a real ``.swf`` log, or the
synthetic archive models) over one pipelined TCP connection at a target
wall-clock send rate.  Open-loop means send times are scheduled by the
arrival process alone — a slow server grows its backlog instead of
slowing the client, which is what exercises admission control honestly.

Every response is re-verified against a client-side **shadow ledger**
that trusts nothing the server says: an accepted reservation must start
no earlier than its requested ``s_r``, and must not overlap any other
accepted reservation on any of its servers.  Any violation fails the run
(and the CI smoke job).  The ledger also computes the same
accepted-reservation checksum the server exposes via ``status``, so an
uninterrupted replay and a kill/restart-from-snapshot replay can be
compared end to end.

On connection loss the client reconnects and resends every unacknowledged
request; the server's rid-keyed decision log makes that exactly-once.

``transport="http"`` replays the same trace through the HTTP/JSON
gateway (``repro gateway``) instead: requests become pipelined
``POST /v1/reserve`` exchanges on one keep-alive connection, and because
the gateway passes backend bodies through verbatim, the shadow ledger,
checksums and report are computed by exactly the same code either way.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Any, Iterable, Iterator

from ..core.types import Request
from .metrics import ReservoirWindow
from .protocol import MAX_LINE_BYTES, encode

__all__ = [
    "LoadgenConfig",
    "OpenLoopPacer",
    "ShadowLedger",
    "run_loadgen",
    "request_source",
]


@dataclass(slots=True)
class LoadgenConfig:
    """One replay run (see ``repro loadgen --help``)."""

    host: str = "127.0.0.1"
    port: int = 0
    swf: str | None = None  # replay this SWF log instead of synthesizing
    workload: str = "KTH"
    jobs: int = 2000
    seed: int = 42
    rho: float = 0.0  # advance-reservation fraction (synthetic source only)
    rate: float = 0.0  # sends/sec wall clock; 0 = as fast as possible
    window: int = 0  # max unacknowledged in flight; 0 = unbounded
    offset: int = 0  # skip this many requests (resume support)
    limit: int | None = None  # send at most this many (None = all)
    ledger_in: str | None = None  # preload accepted reservations (resume)
    ledger_out: str | None = None  # dump the final ledger here
    out: str | None = None  # write the JSON report here
    shutdown: bool = False  # send a shutdown op once the replay drains
    reconnect: int = 5  # reconnect attempts on connection loss
    report_violations: int = 50  # violations listed verbatim in the report
    transport: str = "tcp"  # "tcp" (NDJSON) or "http" (via repro gateway)
    token: str | None = None  # bearer token for the http transport


class ShadowLedger:
    """Client-side double-entry book of accepted reservations.

    Maintains per-server interval lists sorted by start time; recording
    a reservation costs ``O(log k)`` per server via bisect.
    """

    def __init__(self) -> None:
        self.entries: dict[int, dict[str, Any]] = {}
        self._busy: dict[int, list[tuple[float, float, int]]] = {}
        self.violations: list[dict[str, Any]] = []

    def record(
        self, rid: int, sr: float, start: float, end: float, servers: list[int]
    ) -> None:
        """Book one accepted reservation, logging every contract breach."""
        if rid in self.entries:
            self.violations.append(
                {"kind": "duplicate_accept", "rid": rid, "detail": "rid accepted twice"}
            )
            return
        if start < sr:
            self.violations.append(
                {
                    "kind": "early_start",
                    "rid": rid,
                    "detail": f"start {start} precedes requested s_r {sr}",
                }
            )
        if not start < end:
            self.violations.append(
                {"kind": "empty_window", "rid": rid, "detail": f"[{start}, {end})"}
            )
        for server in servers:
            intervals = self._busy.setdefault(server, [])
            idx = bisect_right(intervals, (start, float("inf"), 0))
            for neighbour in (idx - 1, idx):
                if 0 <= neighbour < len(intervals):
                    other_start, other_end, other_rid = intervals[neighbour]
                    if other_start < end and other_end > start:
                        self.violations.append(
                            {
                                "kind": "double_booking",
                                "rid": rid,
                                "detail": (
                                    f"server {server}: [{start}, {end}) overlaps "
                                    f"[{other_start}, {other_end}) of rid {other_rid}"
                                ),
                            }
                        )
            insort(intervals, (start, end, rid))
        self.entries[rid] = {
            "sr": sr,
            "start": start,
            "end": end,
            "servers": sorted(servers),
        }

    def release(self, rid: int) -> None:
        """Free the booked intervals of a cancelled reservation.

        The entry itself stays: the server's ``accepted_checksum`` covers
        every accept ever granted, cancelled or not, and a resent rid
        must still read as a duplicate.  Only the double-booking
        intervals go — a later accept may legitimately reuse the window.
        """
        entry = self.entries.get(rid)
        if entry is None:
            return
        for server in entry["servers"]:
            intervals = self._busy.get(server, [])
            for idx, (_start, _end, owner) in enumerate(intervals):
                if owner == rid:
                    del intervals[idx]
                    break

    def checksum(self) -> str:
        """Same digest as the server's ``accepted_checksum`` over this book."""
        digest = hashlib.sha256()
        for rid in sorted(self.entries):
            e = self.entries[rid]
            digest.update(f"{rid}:{e['start']}:{e['end']}:{e['servers']}\n".encode())
        return digest.hexdigest()[:16]

    # -- persistence (split/resume runs) --------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"entries": {str(r): e for r, e in self.entries.items()}}, fh)

    @classmethod
    def load(cls, path: str) -> "ShadowLedger":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        ledger = cls()
        for rid_str, e in data["entries"].items():
            ledger.record(
                int(rid_str), float(e["sr"]), float(e["start"]), float(e["end"]),
                [int(s) for s in e["servers"]],
            )
        if ledger.violations:
            raise ValueError(f"preloaded ledger {path} is self-inconsistent")
        return ledger


def request_source(config: LoadgenConfig) -> Iterator[Request]:
    """The request stream: an SWF file, or the synthetic archive models."""
    if config.swf:
        from ..workloads.swf import stream_swf_requests

        source: Iterable[Request] = stream_swf_requests(config.swf)
    else:
        from ..workloads.archive import generate_workload
        from ..workloads.reservations import with_advance_reservations

        requests = generate_workload(config.workload, n_jobs=config.jobs, seed=config.seed)
        if config.rho > 0.0:
            requests = with_advance_reservations(requests, config.rho, seed=config.seed)
        source = requests
    stop = None if config.limit is None else config.offset + config.limit
    return islice(iter(source), config.offset, stop)


class OpenLoopPacer:
    """Cumulative open-loop send schedule: send *i* goes at ``start + i/rate``.

    The naive alternative — sleep ``1/rate`` before each send, or re-anchor
    the schedule on every reconnect — accumulates every sleep overshoot
    into the replay's wall time, so a long run drifts arbitrarily far
    below its target rate.  Against an absolute schedule each overshoot
    is repaid on the next send (``delay`` just comes back smaller), so
    the total error stays bounded by a single pacing interval no matter
    how many requests are replayed.

    The anchor is set on the first :meth:`delay` call and then never
    moves, surviving reconnects.  ``clock`` is injectable for tests.
    """

    __slots__ = ("rate", "_clock", "_start", "_sent")

    def __init__(self, rate: float, clock: Any = perf_counter) -> None:
        self.rate = rate
        self._clock = clock
        self._start: float | None = None
        self._sent = 0

    def delay(self) -> float:
        """Seconds to wait before the next send (0.0 when unpaced or behind)."""
        if self.rate <= 0:
            return 0.0
        now = self._clock()
        if self._start is None:
            self._start = now
        target = self._start + self._sent / self.rate
        return max(0.0, target - now)

    def mark_sent(self) -> None:
        """One fresh request went out; advance the schedule index."""
        self._sent += 1


@dataclass(slots=True)
class _RunState:
    """Mutable bookkeeping shared by the sender and reader coroutines."""

    unacked: deque = field(default_factory=deque)  # (rid, payload_bytes, request)
    send_wall: dict = field(default_factory=dict)  # rid -> last send perf_counter
    completed: int = 0
    sent: int = 0
    resent: int = 0
    accepted: int = 0
    rejected: int = 0
    busy: int = 0
    malformed: int = 0
    errors: int = 0
    replayed: int = 0
    latency: ReservoirWindow = field(default_factory=lambda: ReservoirWindow(65536))


class _ConnectionLost(Exception):
    pass


# ----------------------------------------------------------------------
# the HTTP transport: the same replay through the repro gateway
# ----------------------------------------------------------------------


def _http_post(message: dict[str, Any], config: LoadgenConfig) -> bytes:
    """One pipelined keep-alive ``POST /v1/<op>`` carrying the wire message.

    The body is the NDJSON message verbatim (``validate_payload`` accepts
    a matching ``op`` field), so the TCP and HTTP transports replay
    byte-identical payload semantics.
    """
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    head = (
        f"POST /v1/{message['op']} HTTP/1.1\r\n"
        f"host: {config.host}:{config.port}\r\n"
        "content-type: application/json\r\n"
        f"content-length: {len(body)}\r\n"
    )
    if config.token:
        head += f"authorization: Bearer {config.token}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


def _http_get(path: str, config: LoadgenConfig) -> bytes:
    head = f"GET {path} HTTP/1.1\r\nhost: {config.host}:{config.port}\r\n"
    if config.token:
        head += f"authorization: Bearer {config.token}\r\n"
    return (head + "\r\n").encode("latin-1")


async def _read_http_json(reader: asyncio.StreamReader) -> dict[str, Any]:
    """One HTTP response off the stream; returns the parsed JSON body.

    The gateway proxies backend bodies verbatim, so downstream response
    handling (ledger, counters, checksums) is transport-agnostic.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
        raise _ConnectionLost(f"gateway closed mid-response: {exc}") from exc
    content_length = 0
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            content_length = int(value.strip())
    if content_length == 0:
        return {}
    try:
        body = await reader.readexactly(content_length)
    except asyncio.IncompleteReadError as exc:
        raise _ConnectionLost(f"gateway closed mid-body: {exc}") from exc
    return json.loads(body.decode("utf-8"))


async def _sender(
    writer: asyncio.StreamWriter,
    requests: deque,
    state: _RunState,
    config: LoadgenConfig,
    window_free: asyncio.Event,
    pacer: OpenLoopPacer,
) -> None:
    """Resend unacked requests, then pump fresh ones at the open-loop rate."""
    try:
        for _, payload, _ in list(state.unacked):
            writer.write(payload)
            state.resent += 1
        await writer.drain()
        sent_this_connection = 0
        while requests:
            delay = pacer.delay()
            if delay > 0:
                await asyncio.sleep(delay)
            if config.window > 0:
                while len(state.unacked) >= config.window:
                    window_free.clear()
                    await window_free.wait()
            request = requests.popleft()
            message = {
                "op": "reserve",
                "rid": request.rid,
                "qr": request.qr,
                "sr": request.sr,
                "lr": request.lr,
                "nr": request.nr,
                **({"deadline": request.deadline} if request.deadline else {}),
            }
            payload = (
                _http_post(message, config)
                if config.transport == "http"
                else encode(message)
            )
            state.unacked.append((request.rid, payload, request))
            state.send_wall[request.rid] = perf_counter()
            state.sent += 1
            pacer.mark_sent()
            sent_this_connection += 1
            writer.write(payload)
            if sent_this_connection % 64 == 0:
                await writer.drain()
        await writer.drain()
    except (ConnectionError, OSError) as exc:
        raise _ConnectionLost(str(exc)) from exc


async def _reader(
    reader: asyncio.StreamReader,
    state: _RunState,
    ledger: ShadowLedger,
    window_free: asyncio.Event,
    total: int,
    config: LoadgenConfig,
) -> None:
    """Consume FIFO responses until every request is acknowledged."""
    while state.completed < total:
        if config.transport == "http":
            response = await _read_http_json(reader)
        else:
            raw = await reader.readline()
            if not raw:
                raise _ConnectionLost("server closed the connection")
            response = json.loads(raw)
        if not state.unacked:
            raise _ConnectionLost(f"unsolicited response: {response!r}")
        rid, _, request = state.unacked.popleft()
        window_free.set()
        if response.get("rid") != rid:
            ledger.violations.append(
                {
                    "kind": "protocol_order",
                    "rid": rid,
                    "detail": f"FIFO response carried rid {response.get('rid')!r}",
                }
            )
        state.completed += 1
        sent_at = state.send_wall.pop(rid, None)
        if sent_at is not None:
            state.latency.observe(perf_counter() - sent_at)
        if response.get("replayed"):
            state.replayed += 1
        if response.get("ok"):
            state.accepted += 1
            ledger.record(
                rid,
                request.sr,
                float(response["start"]),
                float(response["end"]),
                [int(s) for s in response["servers"]],
            )
        else:
            code = (response.get("error") or {}).get("code")
            if code == "REJECTED":
                state.rejected += 1
            elif code == "BUSY":
                state.busy += 1
            elif code == "MALFORMED":
                state.malformed += 1
            else:
                state.errors += 1


async def _rpc(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, message: dict
) -> dict:
    writer.write(encode(message))
    await writer.drain()
    raw = await reader.readline()
    if not raw:
        raise ConnectionError(f"no response to {message.get('op')}")
    return json.loads(raw)


async def run_loadgen(config: LoadgenConfig) -> dict[str, Any]:
    """Run one replay; returns the report dict (also written to ``out``)."""
    requests = deque(request_source(config))
    total = len(requests)
    ledger = ShadowLedger.load(config.ledger_in) if config.ledger_in else ShadowLedger()
    preloaded = len(ledger.entries)
    state = _RunState()
    window_free = asyncio.Event()
    window_free.set()
    # one pacer for the whole run: reconnects must not re-anchor the schedule
    pacer = OpenLoopPacer(config.rate)

    started = perf_counter()
    attempts = 0
    reader = writer = None
    while requests or state.unacked:
        try:
            # a probe response listing many periods can exceed asyncio's
            # 64 KiB default readline limit; bound it like the server does
            reader, writer = await asyncio.open_connection(
                config.host, config.port, limit=MAX_LINE_BYTES
            )
        except OSError:
            attempts += 1
            if attempts > config.reconnect:
                raise
            await asyncio.sleep(min(2.0, 0.25 * attempts))
            continue
        outstanding = len(requests) + len(state.unacked)
        target = state.completed + outstanding
        sender = asyncio.create_task(
            _sender(writer, requests, state, config, window_free, pacer)
        )
        consume = asyncio.create_task(
            _reader(reader, state, ledger, window_free, target, config)
        )
        done, pending_tasks = await asyncio.wait(
            {sender, consume}, return_when=asyncio.FIRST_EXCEPTION
        )
        lost = None
        for task in done:
            exc = task.exception()
            if isinstance(exc, _ConnectionLost):
                lost = exc
            elif exc is not None:
                for p in pending_tasks:
                    p.cancel()
                raise exc
        if lost is None and consume in done:
            break  # every request acknowledged
        for p in pending_tasks:
            p.cancel()
            try:
                await p
            except (asyncio.CancelledError, _ConnectionLost):
                pass
        writer.close()
        attempts += 1
        if attempts > config.reconnect:
            raise ConnectionError(f"gave up after {attempts} connection attempts: {lost}")
        await asyncio.sleep(min(2.0, 0.25 * attempts))
    wall = perf_counter() - started

    server_status = server_shutdown = None
    if reader is None and (config.shutdown or total == 0):
        # nothing was replayed (empty slice) but the caller still wants
        # the end-of-run status/shutdown exchange
        try:
            reader, writer = await asyncio.open_connection(
                config.host, config.port, limit=MAX_LINE_BYTES
            )
        except OSError:
            reader = writer = None
    if reader is not None and writer is not None:
        try:
            if config.transport == "http":
                # shutdown is deliberately not exposed at the HTTP edge
                # (the CLI rejects --shutdown with --transport http)
                writer.write(_http_get("/v1/status", config))
                await writer.drain()
                server_status = await _read_http_json(reader)
            else:
                server_status = await _rpc(reader, writer, {"op": "status"})
                if config.shutdown:
                    server_shutdown = await _rpc(reader, writer, {"op": "shutdown"})
            writer.close()
        except (ConnectionError, OSError, _ConnectionLost):
            pass

    if config.ledger_out:
        await asyncio.to_thread(ledger.dump, config.ledger_out)

    report: dict[str, Any] = {
        "config": {
            "host": config.host,
            "port": config.port,
            "source": config.swf or f"{config.workload} x{config.jobs} seed={config.seed}",
            "transport": config.transport,
            "rho": config.rho,
            "rate": config.rate,
            "window": config.window,
            "offset": config.offset,
            "limit": config.limit,
            "preloaded_ledger_entries": preloaded,
        },
        "requests": total,
        "sent": state.sent,
        "resent": state.resent,
        "completed": state.completed,
        "accepted": state.accepted,
        "rejected": state.rejected,
        "busy": state.busy,
        "malformed": state.malformed,
        "errors": state.errors,
        "replayed": state.replayed,
        "wall_s": round(wall, 3),
        "throughput_rps": round(state.completed / wall, 1) if wall > 0 else 0.0,
        "latency_ms": state.latency.summary(),
        "violations_total": len(ledger.violations),
        "violations": ledger.violations[: config.report_violations],
        "accepted_checksum": ledger.checksum(),
        "ledger_entries": len(ledger.entries),
        "server_status": server_status,
        "server_shutdown": server_shutdown,
    }
    if config.out:
        await asyncio.to_thread(_write_report, config.out, report)
    return report


def _write_report(path: str, report: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
