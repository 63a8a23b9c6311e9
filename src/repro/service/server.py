"""The asyncio reservation server behind ``repro serve``.

Architecture: **single-writer actor**.  One task — :meth:`_actor_loop` —
owns the :class:`~repro.facade.CoAllocationScheduler` and is the only
code that ever mutates (or even reads) the calendar.  Connection
handlers parse lines, run admission control, and enqueue each message
beside the line it was read from; the actor drains the queue in
micro-batches (:func:`~repro.service.batching.drain_batch`), applies
each operation back-to-back without yielding, encodes each reply once,
commits the batch's decision-log records in one write, and only then
resolves the futures with the reply bytes.  Responses are written back
per connection in request order — a batch's worth per socket write — so
pipelined clients correlate FIFO.  Lint rule ``RA009``
is the static guard of the actor boundary: no ``async def`` outside the
actor may call the blocking commit path.

**Virtual clock.** The calendar's clock advances from request-carried
submission times (``advance(max(now, q_r))``), never from the wall
clock.  Replaying the same request stream therefore yields bit-identical
accept/reject decisions regardless of pacing, batching boundaries, or a
kill/restart from snapshot in the middle — the property
``tests/service/test_declog.py::TestRestartIsReplay`` certifies.

**Exactly-once.** The scheduler and the rid/aid-keyed verdict tables
live in one :class:`~repro.service.state.ServiceState`; every write op
goes through its ``apply``, which answers a resent rid (an at-least-once
client retrying after a connection loss) with the recorded verdict
instead of scheduling it twice.  The tables ride inside snapshots, and
with a decision log the boot replays the records past the snapshot
(:meth:`ReservationService._replay_log`), so the guarantee spans
restarts.  This module adds only what a socket needs: admission, the
queue, metrics and the decision log.
"""

from __future__ import annotations

import asyncio
import json
import sys
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from ..core.types import INF
from ..errors import MalformedRequestError, ReproError, ShuttingDownError
from ..facade import CoAllocationScheduler
from .admission import AdmissionController
from .autoscale import AutoScaleConfig, AutoScaler
from .batching import drain_batch, ready_runs
from .declog import DecisionLog, decision_message
from .metrics import ServiceMetrics
from .protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    READ_CHUNK_BYTES,
    WIRE_ENCODER,
    ProtocolError,
    decode_line,
    echo_seq,
    encode,
    error_response,
)
from .snapshot import read_snapshot, write_snapshot
from .state import (
    ReplicationDivergenceError,
    ReplicationGapError,
    ServiceState,
    accepted_checksum,
)

__all__ = ["ServiceConfig", "ReservationService", "accepted_checksum", "serve_forever"]

#: ops that pass through admission control; introspection and lifecycle
#: ops are always admitted so operators can reach an overloaded server
_CONTROLLED_OPS = frozenset({"reserve", "probe", "cancel"})

#: ops that write a snapshot: the batch's records commit before one runs,
#: so a snapshot never covers a decision the log has not committed
_SNAPSHOT_OPS = frozenset({"snapshot", "shutdown"})

#: idle periods listed in one ``probe`` reply unless the request says otherwise
PROBE_LIMIT = 64

#: records in one ``log_tail`` reply: the default, and the cap on a requested limit
LOG_TAIL_LIMIT = 512

#: decision-log segments rotate at this size
LOG_SEGMENT_BYTES = 1 << 20

#: a follower cursor idle this long (s) is forgotten, so a dead follower
#: stops pinning decision-log compaction
LOG_CURSOR_TTL = 900.0


@dataclass(slots=True)
class ServiceConfig:
    """Operational knobs for one server instance (see ``docs/service.md``)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the chosen port is printed/exposed
    n_servers: int = 64
    tau: float = 900.0
    q_slots: int = 96
    delta_t: float | None = None
    r_max: int | None = None
    snapshot_path: str | None = None
    max_queue: int = 1024
    max_delay: float = 5.0
    max_batch: int = 64
    log_dir: str | None = None  # decision-log directory (None disables the log)
    autoscale: AutoScaleConfig | None = None  # None disables the scaler task


class ReservationService:
    """One server instance: scheduler, actor, admission, telemetry."""

    def __init__(self, config: ServiceConfig, state: dict[str, Any] | None = None) -> None:
        self.config = config
        self.restored = state is not None
        # a restored snapshot says how far the durable history reached;
        # a fresh boot starts the numbering at zero either way
        log_hwm = 0
        if state is not None:
            self.state, log_hwm = ServiceState.from_snapshot(state)
        else:
            self.state = ServiceState(
                CoAllocationScheduler(
                    n_servers=config.n_servers,
                    tau=config.tau,
                    q_slots=config.q_slots,
                    delta_t=config.delta_t,
                    r_max=config.r_max,
                )
            )
        self.admission = AdmissionController(
            max_depth=config.max_queue, max_delay=config.max_delay
        )
        self._log: DecisionLog | None = None
        #: log records replayed at boot (``status.log.recovered``)
        self.recovered = 0
        if config.log_dir:
            self._log = DecisionLog(
                config.log_dir, LOG_SEGMENT_BYTES, cursor_ttl=LOG_CURSOR_TTL
            )
            self.recovered = self._replay_log(self._log, log_hwm)
        self.metrics = ServiceMetrics()
        #: op -> its handler, one per registered public op: an op
        #: without an ``_actor_apply_<op>`` method fails here, not on
        #: its first request
        self._apply = {op: getattr(self, f"_actor_apply_{op}") for op in OPS}
        self.autoscaler: AutoScaler | None = (
            AutoScaler(config.autoscale) if config.autoscale is not None else None
        )
        #: (message, the request line it was read from or None, enqueue
        #: time, future of the reply bytes)
        self._queue: asyncio.Queue[
            tuple[dict[str, Any], bytes | None, float, asyncio.Future]
        ] = asyncio.Queue()
        #: the fresh decision the op being applied took, for its log record:
        #: ``(kind, request message, verdict)``, and whether the reply
        #: carries the verdict (no error replaced it)
        self._fresh: tuple[str, dict[str, Any], dict[str, Any]] | None = None
        self._fresh_in_reply = True
        #: period uid -> its ``[server,st,et]`` reply part, as the last
        #: probe listed them (see :meth:`_actor_apply_probe`)
        self._probe_parts: dict[int, str] = {}
        self._stopping = False
        #: why the server stopped itself (a failed commit), if it did
        self.failure: ReproError | None = None
        self._started = perf_counter()
        self._server: asyncio.base_events.Server | None = None
        self._actor_task: asyncio.Task | None = None
        self._autoscale_task: asyncio.Task | None = None
        self._stopped: asyncio.Event = asyncio.Event()
        self._writers: set[asyncio.StreamWriter] = set()
        #: live connection handlers; shutdown waits for them to finish so
        #: ``asyncio.run`` never has to cancel one
        self._handlers: set[asyncio.Task] = set()
        #: responses enqueued to connection writers but not yet flushed;
        #: shutdown waits for this to reach zero before closing sockets
        self._pending_responses = 0

    def _replay_log(self, log: DecisionLog, snapshot_hwm: int) -> int:
        """Replay ``log``'s records past ``snapshot_hwm`` as a follower does; returns how many.

        A log that cannot continue the snapshot refuses the boot, naming both hwms.
        """
        if log.base > snapshot_hwm:
            raise ReplicationGapError(
                f"decision log {log.dir} starts after hwm {log.base}, past the "
                f"snapshot's hwm {snapshot_hwm}"
            )
        log.align(snapshot_hwm)
        cursor = snapshot_hwm
        try:
            # one pass, a record at a time: memory does not grow with the log
            for payload in log.payloads(snapshot_hwm, log.hwm - snapshot_hwm):
                try:
                    record = json.loads(payload)
                except (ValueError, RecursionError) as exc:
                    # a frame damaged behind its intact ``{"hwm":n,`` head
                    raise ReplicationDivergenceError(
                        f"record {cursor + 1} is not a JSON record: {exc}"
                    ) from None
                cursor = self.state.replay(record, cursor)
        except ReproError as exc:
            raise type(exc)(
                f"replaying decision log {log.dir} from the snapshot's hwm "
                f"{snapshot_hwm} to hwm {log.hwm}: {exc}"
            ) from None
        return cursor - snapshot_hwm

    @classmethod
    def create(cls, config: ServiceConfig) -> "ReservationService":
        """Build a service, restoring from ``config.snapshot_path`` if present."""
        if config.snapshot_path and Path(config.snapshot_path).exists():
            state = read_snapshot(config.snapshot_path)
            return cls(config, state=state)
        return cls(config)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def scheduler(self) -> CoAllocationScheduler:
        """The calendar owner, for the read ops (writes go through ``state.apply``)."""
        return self.state.scheduler

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the socket and launch the actor (and autoscaler) tasks."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self._actor_task = asyncio.create_task(self._actor_loop(), name="repro-actor")
        if self.autoscaler is not None:
            self._autoscale_task = asyncio.create_task(
                self._autoscale_loop(), name="repro-autoscale"
            )

    async def wait_stopped(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`stop`) completes."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """External graceful stop: snapshot (if configured) and shut down."""
        if not self._stopping:
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            await self._queue.put(({"op": "shutdown"}, None, perf_counter(), future))
            await future
        await self.wait_stopped()

    async def _finalize(self) -> None:
        """Close the listener and connections once the actor has drained."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._autoscale_task is not None:
            self._autoscale_task.cancel()
        # let the connection writers flush already-resolved responses —
        # notably the shutdown acknowledgement itself — before the
        # sockets close; bounded so a client that stopped reading cannot
        # hold shutdown hostage
        deadline = asyncio.get_running_loop().time() + 2.0
        while self._pending_responses > 0:
            if asyncio.get_running_loop().time() >= deadline:
                break
            await asyncio.sleep(0)
        for writer in list(self._writers):
            with suppress(ConnectionError, RuntimeError, OSError):
                writer.close()
        # a closed socket reads as EOF, so each handler now finishes on
        # its own; one left pending would be cancelled by ``asyncio.run``,
        # and the stream callback then prints that CancelledError
        if self._handlers:
            await asyncio.wait(self._handlers, timeout=2.0)
        if self._log is not None:
            self._log.close()
        self._stopped.set()

    # ------------------------------------------------------------------
    # connection handling (no calendar access here — actor only)
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        responses: asyncio.Queue[asyncio.Future | None] = asyncio.Queue()
        writer.transport.max_size = READ_CHUNK_BYTES
        handler = asyncio.current_task()
        assert handler is not None
        self._handlers.add(handler)
        self._writers.add(writer)
        writer_task = asyncio.create_task(self._connection_writer(writer, responses))
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (ValueError, asyncio.IncompleteReadError):
                    # over-long line: unrecoverable framing, close the stream
                    future = loop.create_future()
                    future.set_result(
                        encode(
                            error_response(
                                {}, ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
                            )
                        )
                    )
                    self._pending_responses += 1
                    await responses.put(future)
                    self.metrics.malformed += 1
                    break
                if not raw:
                    break  # EOF
                if not raw.strip():
                    continue
                future = loop.create_future()
                self._ingest(raw, future)
                self._pending_responses += 1
                await responses.put(future)
        finally:
            await responses.put(None)
            await writer_task
            self._writers.discard(writer)
            self._handlers.discard(handler)

    def _ingest(self, raw: bytes, future: asyncio.Future) -> None:
        """Parse, admit and enqueue one request line (or fail it fast)."""
        try:
            message = decode_line(raw)
        except ProtocolError as exc:
            self.metrics.malformed += 1
            future.set_result(encode(error_response({}, exc)))
            return
        if self._stopping:
            future.set_result(_shutting_down(message))
            return
        if message["op"] in _CONTROLLED_OPS:
            try:
                self.admission.admit()
            except ReproError as exc:  # BusyError
                self.metrics.shed += 1
                future.set_result(_encode_reply(error_response(message, exc)))
                return
        # lifecycle/introspection ops bypass admission but still run on
        # the actor so every calendar read is single-threaded; the line
        # rides along so a fresh decision's log record reuses its bytes
        self._queue.put_nowait((message, raw, perf_counter(), future))

    async def _connection_writer(
        self, writer: asyncio.StreamWriter, responses: asyncio.Queue
    ) -> None:
        """Write reply lines in request order; tolerate a vanished client.

        The actor resolves a batch's futures in one step, with bytes it
        has already encoded, so they are found done together and leave in
        one ``write`` and one ``drain``.
        """
        alive = True
        async for run in ready_runs(responses, lambda future: future):
            try:
                if not alive:
                    continue  # keep consuming futures so the actor never blocks
                lines = [_reply_of(future) for future in run]
                try:
                    writer.write(b"".join(lines))
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    alive = False
            finally:
                # only now: shutdown waits on this count for the flush
                self._pending_responses -= len(run)
        with suppress(ConnectionError, RuntimeError, OSError):
            writer.close()

    # ------------------------------------------------------------------
    # the single-writer actor
    # ------------------------------------------------------------------

    async def _actor_loop(self) -> None:
        """Sole owner of the scheduler; drains the queue in micro-batches."""
        while not self._stopping:
            self._actor_batch(await drain_batch(self._queue, self.config.max_batch))
        # drain stragglers, then tear down
        while not self._queue.empty():
            message, _, _, future = self._queue.get_nowait()
            if message["op"] in _CONTROLLED_OPS:
                self.admission.release()
            if not future.done():
                future.set_result(_shutting_down(message))
        await self._finalize()

    def _actor_batch(
        self, batch: list[tuple[dict[str, Any], bytes | None, float, asyncio.Future]]
    ) -> None:
        """Apply one micro-batch, commit its log records, resolve its futures.

        Nothing here suspends, so the batch applies atomically, and its
        records reach the OS — one write, one flush — before any of its
        replies can be written (and before a snapshot op of the batch
        runs).  A failed commit stops the server: see :meth:`_commit`.
        """
        self.metrics.record_batch(len(batch))
        replies: list[bytes] = []
        logged: list[int] = []
        for index, (message, line, enqueued_at, _) in enumerate(batch):
            started = perf_counter()
            if logged and message["op"] in _SNAPSHOT_OPS:
                self._commit(batch, replies, logged)
            if self._stopping:
                reply = _shutting_down(message)
            else:
                reply, fresh = self._actor_reply(message, line)
                if fresh:
                    logged.append(index)
            replies.append(reply)
            service_time = perf_counter() - started
            self.metrics.record_op(message["op"], started - enqueued_at, service_time)
            if message["op"] in _CONTROLLED_OPS:
                self.admission.release(service_time, started - enqueued_at)
        if logged:
            self._commit(batch, replies, logged)
        for (_, _, _, future), reply in zip(batch, replies):
            if not future.done():
                future.set_result(reply)

    def _commit(self, batch: list, replies: list[bytes], logged: list[int]) -> None:
        """Commit the records of ``batch[i]`` for ``i`` in ``logged``, then forget them.

        On failure those writes are answered ``INTERNAL`` and the server
        stops without a snapshot: memory may hold decisions the disk lacks.
        """
        assert self._log is not None
        try:
            self._log.flush()
        except OSError as exc:
            self.metrics.errors += 1
            for index in logged:
                replies[index] = _encode_reply(error_response(batch[index][0], exc))
            self.failure = ReproError(
                f"decision log commit after hwm {self._log.committed} failed "
                f"({exc}); stopped without a snapshot: a restart recovers the "
                f"records on disk"
            )
            self._stopping = True
            with suppress(OSError):
                self._log.close()
        logged.clear()

    def _actor_reply(
        self, message: dict[str, Any], line: bytes | None
    ) -> tuple[bytes, bool]:
        """Apply one op and encode its reply, once; ``(reply, took a fresh decision)``.

        A fresh decision is appended to the decision log from bytes in
        hand: the request line and, when it carries the verdict, this
        reply.  A record whose reply is an error, or whose line holds
        ``NaN`` or ``Infinity``, is encoded from the decision instead, so
        no ``log_tail`` line carries either token.  It reaches the file
        when the batch commits.
        """
        self._fresh = None
        self._fresh_in_reply = True
        response = self._actor_apply(message)
        if isinstance(response, bytes):
            reply = response  # a probe line, already assembled
        else:
            try:
                reply = encode(response)
            except (ValueError, RecursionError) as exc:
                reply = _error_line(response, exc)
                self._fresh_in_reply = False
        if self._fresh is None:
            return reply, False
        assert self._log is not None
        kind, message, verdict = self._fresh
        if (
            line is None
            or not self._fresh_in_reply
            or b"NaN" in line
            or b"Infinity" in line
        ):
            line, message = None, decision_message(kind, message)
        self._log.append(
            kind, message, verdict, line, reply if self._fresh_in_reply else None
        )
        return reply, True

    async def _autoscale_loop(self) -> None:
        """Tick the auto-scaler; apply its plan through the actor queue.

        Never touches the scheduler directly: the pool read and every
        admin mutation are enqueued like any other wire op, so the
        single-writer discipline (and the decision log, and exactly-once
        aids) apply unchanged.  In dry-run mode :meth:`AutoScaler.plan`
        records what it would do and returns no messages.
        """
        assert self.autoscaler is not None
        interval = self.autoscaler.config.interval
        loop = asyncio.get_running_loop()
        while not self._stopping:
            await asyncio.sleep(interval)
            if self._stopping:
                break
            future: asyncio.Future = loop.create_future()
            await self._queue.put(({"op": "pool_status"}, None, perf_counter(), future))
            pool = json.loads(await future)
            if not pool.get("ok"):
                continue
            decision, messages = self.autoscaler.plan(
                self.admission.telemetry(), pool
            )
            for message in messages:
                future = loop.create_future()
                await self._queue.put((message, None, perf_counter(), future))
                response = json.loads(await future)
                if not response.get("ok"):
                    print(
                        f"repro serve autoscale: {message['op']} refused: "
                        f"{response.get('error')}",
                        file=sys.stderr,
                        flush=True,
                    )
            if decision.direction != "hold":
                print(
                    f"repro serve autoscale: {decision.direction} x{decision.count} "
                    f"({decision.reason})"
                    + (" [dry-run]" if self.autoscaler.config.dry_run else ""),
                    file=sys.stderr,
                    flush=True,
                )

    # ------------------------------------------------------------------
    # operation application (actor-confined; the only scheduler caller)
    # ------------------------------------------------------------------

    def _actor_apply(self, message: dict[str, Any]) -> dict[str, Any] | bytes:
        """The handler's response to ``message``, ``seq`` echoed.

        The ``probe`` and ``log_tail`` handlers return their finished
        line, ``seq`` included.
        """
        try:
            response = self._apply[message["op"]](message)
        except Exception as exc:  # never kill the actor on one bad op
            if not isinstance(exc, ReproError):
                self.metrics.errors += 1
            # an error reply carries no verdict: a decision taken before
            # the handler failed is logged from its dict
            self._fresh_in_reply = False
            response = error_response(message, exc)
        if isinstance(response, bytes):
            return response
        return echo_seq(message, response)

    def _decide(self, kind: str, message: dict[str, Any]) -> dict[str, Any]:
        """One write op through the shared state machine.

        A rid/aid decided before comes back with ``replayed: true``
        (at-least-once client, exactly-once decision); a fresh verdict —
        MALFORMED/CONFLICT refusals included — is appended to the
        replication log (by :meth:`_actor_reply`, once the reply is
        encoded), which the follower replays through the same
        :meth:`ServiceState.apply`.  A fresh verdict is the table's own
        entry: the handlers spread it into the response, never mutate it.
        """
        verdict, replayed = self.state.apply(kind, message)
        if replayed:
            self.metrics.replayed += 1
            return {**verdict, "replayed": True}
        if self._log is not None:
            self._fresh = (kind, message, verdict)
        return verdict

    def _actor_apply_reserve(self, message: dict[str, Any]) -> dict[str, Any]:
        entry = self._decide("reserve", message)
        if "replayed" not in entry:
            error = entry.get("error")
            if error is None:
                self.metrics.record_accept(entry["attempts"])
            elif error.get("code") == "REJECTED":
                self.metrics.record_reject(error["reason"], error["attempts"])
            else:
                self.metrics.malformed += 1
        return {"op": "reserve", "rid": int(message["rid"]), **entry}

    def _actor_apply_probe(self, message: dict[str, Any]) -> bytes:
        """The probe's reply line, assembled from encoded parts.

        The line is byte for byte ``encode`` of ``{"ok": true, "op":
        "probe", "count": n, "periods": [[server, st, et], ...]}`` with
        ``seq`` echoed: a fixed head, one part per listed period, and
        the ``seq`` tail.  A period is immutable and its uid is never
        reused, so its part is formatted once and reused while
        consecutive probes list it; each probe's table replaces the
        last, so it holds at most ``limit`` parts.
        """
        ta, tb = float(message["ta"]), float(message["tb"])
        if not ta < tb:
            raise MalformedRequestError(f"probe window [{ta}, {tb}) is empty")
        limit = message.get("limit")
        if limit is None:
            limit = PROBE_LIMIT
        elif limit < 0:
            raise MalformedRequestError(f"probe limit {limit} is negative")
        periods = self.scheduler.range_search(ta, tb)
        known = self._probe_parts
        parts: dict[int, str] = {}  # uid -> part; the listed uids are distinct
        for p in periods[:limit]:
            part = known.get(p.uid)
            if part is None:
                part = WIRE_ENCODER.encode([p.server, p.st, None if p.et == INF else p.et])
            parts[p.uid] = part
        self._probe_parts = parts
        try:
            tail = _list_tail(message)
        except (ValueError, RecursionError) as exc:
            return _error_line({"op": "probe"}, exc)
        return (
            f'{{"count":{len(periods)},"ok":true,"op":"probe","periods":['
            f'{",".join(parts.values())}'
        ).encode("utf-8") + tail

    def _actor_apply_cancel(self, message: dict[str, Any]) -> dict[str, Any]:
        return {
            "op": "cancel",
            "rid": int(message["rid"]),
            **self._decide("cancel", message),
        }

    # -- elastic pool (admin wire ops) ---------------------------------

    def _actor_apply_add_servers(self, message: dict[str, Any]) -> dict[str, Any]:
        return self._apply_admin_op("add_servers", message)

    def _actor_apply_drain(self, message: dict[str, Any]) -> dict[str, Any]:
        return self._apply_admin_op("drain", message)

    def _actor_apply_remove(self, message: dict[str, Any]) -> dict[str, Any]:
        return self._apply_admin_op("remove", message)

    def _apply_admin_op(self, kind: str, message: dict[str, Any]) -> dict[str, Any]:
        """One pool mutation; an ``aid`` makes it exactly-once like a rid does."""
        response = {"op": kind, **self._decide(kind, message)}
        if message.get("aid") is not None:
            response["aid"] = message["aid"]
        return response

    def _actor_apply_pool_status(self, message: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "op": "pool_status", **self.scheduler.pool_status()}

    def _actor_apply_log_tail(self, message: dict[str, Any]) -> bytes:
        """The ``log_tail`` reply line, its records the committed payloads as on disk.

        The line is ``{"base":b,"hwm":h,"ok":true,"op":"log_tail",
        "records":[...]}`` with ``seq`` echoed, and ``records`` holds the
        frames' payload bytes joined by commas: no record is decoded or
        encoded.  It lists at most ``limit`` records (512 when omitted,
        and never more), and stops before the line would pass
        ``MAX_LINE_BYTES``, though it always lists one record if any is
        past the cursor.
        """
        if self._log is None:
            raise MalformedRequestError(
                "decision log disabled: start the server with --log-dir"
            )
        cursor = message["cursor"]
        limit = message.get("limit")
        if limit is None:
            limit = LOG_TAIL_LIMIT
        if cursor < 0 or limit < 0:
            raise MalformedRequestError(
                f"log_tail cursor {cursor} and limit {limit} must not be negative"
            )
        try:
            tail = _list_tail(message)
        except (ValueError, RecursionError) as exc:
            return _error_line({"op": "log_tail"}, exc)
        follower_id = message.get("follower_id")
        if follower_id:
            self._log.register_cursor(str(follower_id), cursor)
        head = b'{"base":%d,"hwm":%d,"ok":true,"op":"log_tail","records":[' % (
            self._log.base,
            self._log.committed,
        )
        records = self._log.payloads(
            cursor, min(limit, LOG_TAIL_LIMIT), MAX_LINE_BYTES - len(head) - len(tail)
        )
        return head + b",".join(records) + tail

    def _actor_apply_status(self, message: dict[str, Any]) -> dict[str, Any]:
        response = {
            "ok": True,
            "op": "status",
            "protocol": PROTOCOL_VERSION,
            "now": self.scheduler.now,
            "n_servers": self.scheduler.n_servers,
            "tau": self.scheduler.calendar.tau,
            "q_slots": self.scheduler.calendar.q_slots,
            "delta_t": self.scheduler.allocator.delta_t,
            "r_max": self.scheduler.allocator.r_max,
            "uptime_s": round(perf_counter() - self._started, 3),
            "restored": self.restored,
            "stopping": self._stopping,
            **self.state.summary(),
            "active_allocations": len(self.scheduler._allocations),
            "admission": self.admission.summary(),
            "metrics": self.metrics.summary(),
        }
        pool = self.scheduler.pool_status()
        response["pool"] = {
            key: pool[key] for key in ("active", "draining", "removed", "total")
        }
        if self.autoscaler is not None:
            response["autoscale"] = self.autoscaler.summary()
        if self._log is not None:
            response["log"] = {**self._log.summary(), "recovered": self.recovered}
        return response

    def _actor_apply_snapshot(self, message: dict[str, Any]) -> dict[str, Any]:
        path = message.get("path") or self.config.snapshot_path
        if not path:
            raise MalformedRequestError(
                "no snapshot path: pass \"path\" or start the server with --snapshot-path"
            )
        meta, compacted = self._write_snapshot(path)
        if compacted is not None:
            meta = {**meta, "log_compacted": compacted}
        return {"ok": True, "op": "snapshot", **meta}

    def _actor_apply_shutdown(self, message: dict[str, Any]) -> dict[str, Any]:
        self._stopping = True
        meta = None
        if self.config.snapshot_path:
            meta, _ = self._write_snapshot(self.config.snapshot_path)
        return {
            "ok": True,
            "op": "shutdown",
            "snapshot": meta,
            "accepted_checksum": self.state.accepted_checksum(),
        }

    def _write_snapshot(self, path: str) -> tuple[dict[str, Any], int | None]:
        """Snapshot the full service state; ``(file meta, segments compacted)``.

        The actor's serial execution *is* the quiescence a consistent
        snapshot needs: no decision is in flight while this runs.
        """
        hwm = self._log.hwm if self._log is not None else 0
        meta = write_snapshot(path, self.state.export(hwm))
        self.metrics.snapshots += 1
        if self._log is None:
            return meta, None
        # everything below the snapshot (and every follower cursor) is
        # now durable elsewhere: drop the covered whole segments
        return meta, self._log.compact(hwm)


def _list_tail(message: dict[str, Any]) -> bytes:
    """What closes an assembled reply after its list: ``]}``, or ``seq`` echoed.

    Raises ``ValueError`` or ``RecursionError`` when ``seq`` cannot be
    encoded.
    """
    if "seq" not in message:
        return b"]}\n"
    return f'],"seq":{WIRE_ENCODER.encode(message["seq"])}}}\n'.encode("utf-8")


def _error_line(response: dict[str, Any], exc: ValueError | RecursionError) -> bytes:
    """The ``INTERNAL`` reply that stands in for an unencodable ``response``.

    A non-finite float, or nesting too deep to encode, got into it (``seq``
    is echoed as sent): the client gets an error rather than waiting on a
    dead connection.
    """
    return encode(error_response({"op": response.get("op")}, exc))


def _encode_reply(response: dict[str, Any]) -> bytes:
    """``response`` as its wire line, or the error line standing in for it."""
    try:
        return encode(response)
    except (ValueError, RecursionError) as exc:
        return _error_line(response, exc)


def _shutting_down(message: dict[str, Any]) -> bytes:
    return _encode_reply(
        error_response(message, ShuttingDownError("server is shutting down"))
    )


def _reply_of(future: asyncio.Future) -> bytes:
    """A done future's reply line, read without a coroutine per reply."""
    try:
        return future.result()
    except Exception as exc:  # defensive: a failed future still gets answered
        return encode(error_response({}, exc))



async def serve_forever(config: ServiceConfig, ready_line: bool = True) -> None:
    """Boot a service and run until a ``shutdown`` op stops it.

    Prints a parseable ``listening on HOST:PORT`` line to stdout once
    bound (the chaos plans and ``benchmarks/stack`` read it to discover
    an ephemeral port).  A server that stopped itself (a failed commit)
    raises its :attr:`~ReservationService.failure` once stopped.
    """
    service = ReservationService.create(config)
    await service.start()
    if ready_line:
        extra = " (restored from snapshot)" if service.restored else ""
        if config.log_dir:
            extra += f" (replayed {service.recovered} log records)"
        print(
            f"repro serve: listening on {config.host}:{service.port} "
            f"(N={service.scheduler.n_servers}, tau={service.scheduler.calendar.tau:g}, "
            f"Q={service.scheduler.calendar.q_slots}){extra}",
            flush=True,
        )
    try:
        await service.wait_stopped()
    except asyncio.CancelledError:
        await service.stop()
        raise
    if service.failure is not None:
        raise service.failure
