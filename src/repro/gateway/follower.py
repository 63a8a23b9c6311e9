"""Warm-standby follower: tails the decision log, promotable to primary.

State-machine replication on the cheap, bought entirely with properties
the service already proves elsewhere:

* the primary's decision log (:mod:`repro.service.declog`) carries every
  write decision as ``(message, verdict)``;
* the scheduler is deterministic, so replaying ``message`` through the
  *same* state machine the primary's actor runs
  (:meth:`repro.service.state.ServiceState.replay`, the routine a
  restarting primary replays its own log with) reproduces ``verdict``
  bit-for-bit — the follower asserts this on every record and
  crash-stops on divergence rather than serving a silently wrong
  calendar;
* promotion (``repro promote``) exports the replayed state and hands it
  to a real :class:`~repro.service.server.ReservationService` — the
  one boot path, snapshot then log suffix, so failover is
  decision-identical by the same argument (and verified end-to-end by
  the ``kill-promote`` chaos plan).

Replication is asynchronous: decisions acknowledged by the primary but
not yet tailed are lost on failover — and re-decided identically when
at-least-once clients resend them, because the decision table is
rid-keyed exactly-once.  The follower polls ``log_tail`` with its
cursor; a torn or garbled answer (primary died mid-reply) just drops
the connection and re-requests from the last good cursor.  A cursor
below the primary's compaction ``base`` is unrecoverable from the log
alone; the follower crash-stops with instructions to re-bootstrap from
a snapshot.
"""

from __future__ import annotations

import asyncio
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..errors import ConflictError, ErrorCode, MalformedRequestError, ReproError
from ..facade import CoAllocationScheduler
from ..service.client import ServiceClient
from ..service.protocol import (
    FOLLOWER_OPS,
    MAX_LINE_BYTES,
    READ_CHUNK_BYTES,
    ProtocolError,
    decode_line,
    echo_seq,
    encode,
    error_response,
)
from ..service.server import LOG_TAIL_LIMIT, ReservationService, ServiceConfig
from ..service.snapshot import read_snapshot
from ..service.state import (
    DECISION_KINDS,
    ReplicationDivergenceError,
    ReplicationGapError,
    ServiceState,
)

__all__ = [
    "Follower",
    "FollowerConfig",
    "ReplicationDivergenceError",
    "ReplicationGapError",
    "serve_follower",
]


@dataclass(slots=True)
class FollowerConfig:
    """Operational knobs for one follower (see ``docs/gateway.md``)."""

    host: str = "127.0.0.1"
    port: int = 0  # control listener (follower_status / promote)
    primary_host: str = "127.0.0.1"
    primary_port: int = 0
    follower_id: str = "follower-1"
    poll_interval: float = 0.25  # seconds between empty-tail polls
    bootstrap_snapshot: str | None = None  # primary snapshot to start from
    snapshot_path: str | None = None  # handed to the service on promotion
    log_dir: str | None = None  # the promoted service's own decision log


class Follower:
    """Replays the primary's decision log into a warm standby calendar."""

    def __init__(self, config: FollowerConfig) -> None:
        self.config = config
        #: the standby's copy of the primary's state machine (None until
        #: bootstrapped)
        self.state: ServiceState | None = None
        #: records ``1..cursor`` are applied
        self.cursor = 0
        self.applied = dict.fromkeys(DECISION_KINDS, 0)
        self.primary_up = False
        self.promoted = False
        self.failed: str | None = None  # crash-stop reason, if any
        self._primary = ServiceClient(config.primary_host, config.primary_port)
        self._server: asyncio.base_events.Server | None = None
        self._tail_task: asyncio.Task | None = None
        self._service: ReservationService | None = None
        self._service_watch: asyncio.Task | None = None
        self._stopped = asyncio.Event()
        #: op -> its handler, one per registered follower op
        self._control = {op: getattr(self, f"_ctl_{op}") for op in FOLLOWER_OPS}

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------

    def bootstrap_from_snapshot(self, path: str | Path) -> None:
        """Adopt a primary snapshot: its state *and* its log position."""
        self.state, self.cursor = ServiceState.from_snapshot(read_snapshot(path))

    def bootstrap_fresh(self, status: dict[str, Any]) -> None:
        """Start from an empty calendar with the primary's geometry."""
        self.state = ServiceState(
            CoAllocationScheduler(
                n_servers=int(status["n_servers"]),
                tau=float(status["tau"]),
                q_slots=int(status["q_slots"]),
                delta_t=float(status["delta_t"]),
                r_max=int(status["r_max"]),
            )
        )
        self.cursor = 0

    # ------------------------------------------------------------------
    # the replication core (sync, driven by the tail actor loop and tests)
    # ------------------------------------------------------------------

    def apply_record(self, record: dict[str, Any]) -> None:
        """Apply one log record through :meth:`ServiceState.replay`."""
        assert self.state is not None, "follower not bootstrapped"
        self.cursor = self.state.replay(record, self.cursor)
        self.applied[record["kind"]] += 1

    # ------------------------------------------------------------------
    # tailing the primary (single-writer: only this task mutates state,
    # hence the actor naming, the convention RA009 checks in service/)
    # ------------------------------------------------------------------

    async def _tail_actor_loop(self) -> None:
        """Poll ``log_tail`` and fold records into the standby calendar."""
        while not self.promoted and self.failed is None:
            try:
                response = await self._primary.rpc(
                    {
                        "op": "log_tail",
                        "cursor": self.cursor,
                        "limit": LOG_TAIL_LIMIT,
                        "follower_id": self.config.follower_id,
                    }
                )
            except ConnectionError:
                self.primary_up = False
                await asyncio.sleep(self.config.poll_interval)
                continue
            self.primary_up = True
            if not response.get("ok"):
                # log disabled or a server-side error: nothing to tail yet
                await asyncio.sleep(self.config.poll_interval)
                continue
            if int(response["base"]) > self.cursor:
                self.failed = (
                    f"primary compacted to base {response['base']} past cursor "
                    f"{self.cursor}: re-bootstrap this follower from a snapshot"
                )
                print(f"repro follow: {self.failed}", file=sys.stderr, flush=True)
                break
            records = response.get("records", [])
            try:
                for record in records:
                    self.apply_record(record)
            except ReproError as exc:
                self.failed = str(exc)
                print(f"repro follow: {self.failed}", file=sys.stderr, flush=True)
                break
            if not records:
                await asyncio.sleep(self.config.poll_interval)

    # ------------------------------------------------------------------
    # the control listener (follower_status / promote)
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "follower not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_control,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self._tail_task = asyncio.create_task(
            self._tail_actor_loop(), name="repro-follower-tail"
        )

    async def stop(self) -> None:
        if self._tail_task is not None:
            self._tail_task.cancel()
            try:
                await self._tail_task
            except asyncio.CancelledError:
                pass
        if self._service is not None:
            await self._service.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._primary.close()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def _watch_promoted(self, service: ReservationService) -> None:
        await service.wait_stopped()
        self._stopped.set()

    async def _handle_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        writer.transport.max_size = READ_CHUNK_BYTES
        try:
            while True:
                try:
                    raw = await reader.readline()
                except ValueError:
                    # over-long line: unrecoverable framing — answer as the
                    # primary does, then close the stream
                    exc = ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
                    writer.write(encode(error_response({}, exc)))
                    await writer.drain()
                    break
                if not raw:
                    break
                if not raw.strip():
                    continue
                try:
                    message = decode_line(raw, ops=FOLLOWER_OPS)
                except ProtocolError as exc:
                    response = error_response({}, exc)
                else:
                    try:
                        response = await self._control[message["op"]](message)
                        echo_seq(message, response)
                    except Exception as exc:  # answer, never kill the listener
                        response = error_response(message, exc)
                writer.write(encode(response))
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    async def _ctl_follower_status(self, message: dict[str, Any]) -> dict[str, Any]:
        assert self.state is not None, "follower not bootstrapped"
        return {
            "ok": True,
            "op": "follower_status",
            "follower_id": self.config.follower_id,
            "hwm": self.cursor,
            "applied": dict(self.applied),
            **self.state.summary(),
            "pool": self.state.scheduler.calendar.pool_counts(),
            "primary_up": self.primary_up,
            "promoted": self.promoted,
            "failed": self.failed,
        }

    async def _ctl_promote(self, message: dict[str, Any]) -> dict[str, Any]:
        """Failover: stop tailing, serve the replayed state as a primary."""
        if self.promoted:
            raise ConflictError("already promoted")
        if self.failed is not None:
            raise ConflictError(f"follower crash-stopped: {self.failed}")
        self.promoted = True
        if self._tail_task is not None:
            self._tail_task.cancel()
            try:
                await self._tail_task
            except asyncio.CancelledError:
                pass
        self._primary.close()
        assert self.state is not None, "follower not bootstrapped"
        scheduler = self.state.scheduler
        config = ServiceConfig(
            host=self.config.host,
            port=int(message.get("port") or 0),
            n_servers=scheduler.n_servers,
            tau=scheduler.calendar.tau,
            q_slots=scheduler.calendar.q_slots,
            snapshot_path=self.config.snapshot_path,
            log_dir=self.config.log_dir,
        )
        # through the snapshot format, not by handing the object over:
        # promotion then *is* a restart-from-snapshot at hwm = cursor
        service = ReservationService(config, state=self.state.export(self.cursor))
        await service.start()
        self._service = service
        # once the promoted service shuts down (shutdown op), the whole
        # follower process is done — unblock serve_follower
        self._service_watch = asyncio.create_task(
            self._watch_promoted(service), name="repro-follower-service-watch"
        )
        print(
            f"repro follow: promoted, serving on {config.host}:{service.port} "
            f"(hwm={self.cursor})",
            flush=True,
        )
        return {
            "ok": True,
            "op": "promote",
            "port": service.port,
            "hwm": self.cursor,
            "applied": dict(self.applied),
            "accepted_checksum": self.state.accepted_checksum(),
        }


async def serve_follower(config: FollowerConfig, ready_line: bool = True) -> None:
    """Boot a follower; runs until cancelled or the promoted service stops.

    Bootstraps from ``config.bootstrap_snapshot`` when given, else fresh
    from the primary's ``status`` geometry (retrying until the primary
    answers ok, so boot order does not matter, and a primary that is
    shutting down is waited out like one not yet up).  A port that
    refuses ``status`` as ``MALFORMED`` is no primary — another
    follower's control port, say — and raises
    :class:`~repro.errors.MalformedRequestError` instead of waiting.
    """
    follower = Follower(config)
    if config.bootstrap_snapshot:
        follower.bootstrap_from_snapshot(config.bootstrap_snapshot)
    else:
        while follower.state is None:
            try:
                status = await follower._primary.rpc({"op": "status"})
            except ConnectionError:
                status = {}
            error = status.get("error") or {}
            if status.get("ok"):
                follower.bootstrap_fresh(status)
            elif error.get("code") == ErrorCode.MALFORMED.wire:
                follower._primary.close()
                raise MalformedRequestError(
                    f"{config.primary_host}:{config.primary_port} is not a primary: "
                    f"it refused status ({error.get('message')})"
                )
            else:
                await asyncio.sleep(config.poll_interval)
    await follower.start()
    if ready_line:
        source = (
            f"snapshot {config.bootstrap_snapshot}"
            if config.bootstrap_snapshot
            else "fresh"
        )
        print(
            f"repro follow: listening on {config.host}:{follower.port} "
            f"(primary {config.primary_host}:{config.primary_port}, "
            f"cursor={follower.cursor}, bootstrap={source})",
            flush=True,
        )
    try:
        await follower.wait_stopped()
    except asyncio.CancelledError:
        await follower.stop()
        raise
