"""The rid-keyed decision log: segmented on disk, tailed by followers.

Every write decision the actor makes — each fresh ``reserve`` verdict
(accept, reject, *or* malformed: anything that lands in the exactly-once
``decided`` table) and every ``cancel`` — is appended to this log as one
record carrying both the request and the verdict::

    {"hwm": 17, "kind": "reserve",
     "message": {"rid": 7, "sr": 0.0, "lr": 3600.0, "nr": 4},
     "verdict": {"ok": true, "start": 0.0, "end": 3600.0, ...}}

Records are numbered by a monotone **high-water mark** (record *i* has
``hwm == i``); a consumer holding cursor *c* has applied records
``1..c`` and asks for more with the ``log_tail`` wire op.  Because the
scheduler is deterministic, a follower that replays ``message`` through
the same decision code must reproduce ``verdict`` bit-for-bit — the
follower checks, so any divergence is detected, not silently absorbed.

**Framing.** Each record is a 4-byte big-endian length prefix followed
by that many bytes of UTF-8 JSON, appended to size-capped segment files
``seg-<first-hwm>.log``.  A torn tail (a partial header, a short
payload, or a frame that does not open with its own ``{"hwm":n,`` — the
signature of a crash mid-append, or of bytes that are not a record) is
truncated away on open; everything before it is intact.

**The disk is the log.** The segment files are the only copy of the
history: the log keeps no record in memory.  One frame reader
(:meth:`DecisionLog._frames`) serves recovery and, through
:meth:`DecisionLog.payloads`, the boot replay, ``log_tail`` and
:meth:`DecisionLog.tail`: it finds the segment holding a record by the
segment's name, skips the frames before it by their length prefix, and
decodes nothing.

**Encoded once.** A record is assembled from bytes already in hand, with
no JSON encode of its own: the server passes the request line as it was
read and the reply line as it was sent, so on disk ``message`` is the
whole request and ``verdict`` the whole reply.  ``log_tail`` serves
those payloads as they are, and the consumer normalises them back to
the decision (:func:`normalise_record`: ``message`` through
:func:`decision_message`, ``verdict`` less the reply's envelope keys),
in one place, :meth:`repro.service.state.ServiceState.replay`.  That
changes nothing in a record that holds the decision alone — the form a
caller passing dicts writes, and every log written before records
reused wire bytes.

**Group commit.** :meth:`DecisionLog.append` only assembles;
:meth:`DecisionLog.flush` hands everything appended since the last
flush to the OS in one write and one flush (``commits`` counts them, and
:attr:`DecisionLog.committed` is the hwm it reached).  The actor flushes
once per micro-batch, before any reply of that batch can be written, so
no client holds a verdict whose record has not reached the OS, and
:meth:`DecisionLog.tail` serves committed records only, so no follower
holds one either.

**Durability and recovery.** The snapshot plus the log's suffix is the
recovery source.  A server boots from its snapshot at hwm *S* (or from
its config, *S* = 0), then replays records ``S+1..hwm`` through
:meth:`repro.service.state.ServiceState.replay`, the routine followers
tail with, so a restart gets back every decision any client was
answered.  A log behind the snapshot is reset empty at ``base = S``
(:meth:`DecisionLog.align`); a log whose ``base`` lies past *S*, or
whose replay diverges, refuses the boot.  Nothing is ever truncated but
a torn tail on open.  A flush that raises undoes nothing: bytes past
:attr:`DecisionLog.committed` may be on disk, but no read serves them;
the server answers the batch's writes ``INTERNAL`` and stops without a
snapshot, and the next boot recovers exactly the records the disk holds
(a write answered ``INTERNAL`` may be among them).  The log is flushed
but not fsynced: it survives a killed process, not a lost machine.

**Compaction.** A snapshot at hwm *S* makes records ``1..S`` redundant
for recovery, but an attached follower at cursor *c < S* still needs
``c+1..S``; :meth:`DecisionLog.compact` therefore drops only whole
segments below ``min(S, min follower cursor)``.  A cursor only counts
while its follower keeps polling: one that has not reported for
``cursor_ttl`` seconds is forgotten (a live follower refreshes every
``poll_interval``, orders of magnitude below the TTL), so a dead
follower cannot pin compaction — and grow the log directory — forever.
A follower that expires and later returns below ``base`` crash-stops
with re-bootstrap instructions, exactly like any other cursor gap.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_right
from pathlib import Path
from typing import Any, Callable, Iterator

from ..errors import ErrorCode, MalformedRequestError, NotFoundError, ReproError
from .protocol import encode, request_from_payload

__all__ = [
    "ADMIN_KINDS",
    "DecisionLog",
    "decide_admin",
    "decide_reserve",
    "entry_from_outcome",
    "decide_cancel",
    "decision_message",
    "normalise_record",
]

#: 4-byte big-endian record length prefix
_HEADER = 4

#: ``reserve`` wire fields a log record preserves (``op``/``seq`` are
#: connection bookkeeping, not part of the decision)
_RESERVE_FIELDS = ("rid", "qr", "sr", "lr", "nr", "deadline")

#: a reply's envelope: the request bookkeeping it echoes around the
#: verdict (no verdict dict carries one of these keys)
_ENVELOPE = frozenset({"op", "rid", "aid", "seq"})


# ----------------------------------------------------------------------
# the decision functions (shared by the primary actor and the follower)
# ----------------------------------------------------------------------


def entry_from_outcome(outcome: Any) -> dict[str, Any]:
    """The decision-table entry for one ``schedule_detailed`` outcome."""
    if outcome.allocation is None:
        return {
            "ok": False,
            "error": {
                "code": ErrorCode.REJECTED.wire,
                "exit_code": int(ErrorCode.REJECTED),
                "message": (
                    f"rejected after {outcome.attempts} attempt(s) ({outcome.reason})"
                ),
                "reason": outcome.reason,
                "attempts": outcome.attempts,
            },
        }
    allocation = outcome.allocation
    return {
        "ok": True,
        "start": allocation.start,
        "end": allocation.end,
        "servers": sorted(allocation.servers),
        "attempts": allocation.attempts,
        "delay": allocation.delay,
    }


def decide_reserve(scheduler: Any, message: dict[str, Any]) -> dict[str, Any]:
    """Decide one fresh ``reserve`` against an in-process scheduler.

    This is *the* decision path: the primary actor calls it for
    rids not yet in the decision table, and the follower calls it again
    for every logged record — determinism makes both produce the same
    entry, and the follower asserts they do.
    """
    try:
        request = request_from_payload(message)
    except MalformedRequestError as exc:
        return {"ok": False, "error": exc.payload()}
    # every field is finite (the wire checks that), but the last end the
    # retry ladder can reach is a sum: refused before the clock moves,
    # or a granted [start, inf) would sit in the tables unencodable
    # (RA008 guards attempt counts; this r_max is a time span)
    allocator = scheduler.allocator
    span = allocator.r_max * allocator.delta_t  # repro: noqa: RA008
    if not math.isfinite(max(request.sr, scheduler.now) + span + request.lr):
        error = MalformedRequestError(f"request {request.rid}: sr + lr overflows the clock")
        return {"ok": False, "error": error.payload()}
    # the virtual clock: simulated time only ever advances from
    # request-carried submission times, keeping replays deterministic
    scheduler.advance(max(scheduler.now, request.qr))
    return entry_from_outcome(scheduler.schedule_detailed(request))


def decide_cancel(scheduler: Any, rid: int) -> dict[str, Any]:
    """Apply one ``cancel`` against an in-process scheduler."""
    try:
        scheduler.cancel(rid)
    except NotFoundError as exc:
        return {"ok": False, "error": exc.payload()}
    return {"ok": True}


#: pool-mutating admin kinds that flow through the decision log
ADMIN_KINDS = ("add_servers", "drain", "remove")

#: wire fields a logged admin record preserves, per kind
_ADMIN_FIELDS = {
    "add_servers": ("count", "aid", "qr"),
    "drain": ("server", "aid", "qr"),
    "remove": ("server", "aid", "qr"),
}


def decide_admin(scheduler: Any, kind: str, message: dict[str, Any]) -> dict[str, Any]:
    """Decide one elastic-pool admin op against an in-process scheduler.

    Shared by the primary actor (fresh decisions, keyed by the optional
    ``aid`` idempotency token) and the follower (replay of logged admin
    records) — like :func:`decide_reserve`, determinism makes both
    produce the same verdict.  An admin op may carry a ``qr`` submission
    time; the virtual clock advances before the mutation so drain
    progress (``is_drained``) is judged at the same instant on replay.
    """
    qr = message.get("qr")
    if qr is not None:
        scheduler.advance(max(scheduler.now, float(qr)))
    try:
        if kind == "add_servers":
            new_ids = scheduler.add_servers(int(message["count"]))
            return {"ok": True, "servers": new_ids, "n_servers": scheduler.n_servers}
        if kind == "drain":
            return {"ok": True, **scheduler.drain(int(message["server"]))}
        if kind == "remove":
            return {"ok": True, **scheduler.remove(int(message["server"]))}
    except ReproError as exc:
        return {"ok": False, "error": exc.payload()}
    raise ValueError(f"not an admin decision kind: {kind!r}")


#: each decision kind as its JSON string: assembling a record encodes nothing
_KIND_JSON = {
    kind: b'"%s"' % kind.encode() for kind in ("reserve", "cancel", *ADMIN_KINDS)
}


def decision_message(kind: str, message: dict[str, Any]) -> dict[str, Any]:
    """The canonical (replayable) subset of a wire message for the log."""
    if kind == "reserve":
        return {
            name: value
            for name in _RESERVE_FIELDS
            if (value := message.get(name)) is not None
        }
    admin_fields = _ADMIN_FIELDS.get(kind)
    if admin_fields is not None:
        return {
            name: message[name] for name in admin_fields if message.get(name) is not None
        }
    return {"rid": int(message["rid"])}


def normalise_record(record: dict[str, Any]) -> dict[str, Any]:
    """A record as read back, reduced to the decision: a new dict.

    ``message`` goes through :func:`decision_message`, and ``verdict``
    loses the reply's envelope keys.  Normalising a record twice gives
    the same record, so records that already hold only the decision
    read back unchanged.
    """
    kind = record["kind"]
    return {
        "hwm": record["hwm"],
        "kind": kind,
        "message": decision_message(kind, record["message"]),
        "verdict": {
            key: value for key, value in record["verdict"].items() if key not in _ENVELOPE
        },
    }


# ----------------------------------------------------------------------
# the on-disk log
# ----------------------------------------------------------------------


class DecisionLog:
    """Length-prefixed, segment-rotated decision log under ``log_dir``."""

    def __init__(
        self,
        log_dir: str | Path,
        segment_bytes: int = 1 << 20,
        cursor_ttl: float = 900.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if segment_bytes < 1:
            raise ValueError(f"segment size must be positive, got {segment_bytes}")
        if cursor_ttl <= 0:
            raise ValueError(f"cursor TTL must be positive, got {cursor_ttl}")
        self.dir = Path(log_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.cursor_ttl = cursor_ttl
        self._clock = clock
        #: hwm of the last record ever appended (0 = empty history)
        self.hwm = 0
        #: highest hwm compacted away (retained records have hwm > base)
        self.base = 0
        #: follower_id -> (last cursor, last report time) via ``log_tail``
        self._cursors: dict[str, tuple[int, float]] = {}
        self._active: Any = None  # open append handle for the last segment
        self._active_path: Path | None = None
        self._active_bytes = 0  # size of the open segment, as written so far
        #: framed records appended since the last flush, in hwm order
        self._pending: list[bytes] = []
        #: flushes that wrote records (``hwm / commits`` = records per commit)
        self.commits = 0
        #: hwm of the last record handed to the OS (what :meth:`tail` serves)
        self.committed = 0
        #: ``(hwm, segment, end)`` of the last frame a reader's consumer
        #: took: where :meth:`_frames` goes on reading past record ``hwm``
        self._mark: tuple[int, Path, int] | None = None
        self._recover()

    # -- reading --------------------------------------------------------

    def _segments(self) -> list[Path]:
        return sorted(self.dir.glob("seg-*.log"))

    def _frames(
        self, after: int, stop: float = math.inf, budget: float = math.inf
    ) -> Iterator[tuple[int, Path, int, bytes]]:
        """The whole frames on disk for records ``after < hwm <= stop``.

        Each comes as ``(hwm, segment, end, payload)``.  The walk ends at
        record ``stop``; before a frame that would take
        the payloads, each counted with one byte more for a separator,
        past ``budget`` bytes (though it always yields one); and at the
        first frame cut short (a torn tail).  It decodes nothing, numbers
        the frames on from the segment's name, and knows nothing of
        :attr:`committed`: callers stop where they must.

        It goes on from the end of the last frame it read when that was
        record ``after`` — a follower that keeps up asks for the records
        past the last one it was sent — so such a walk reads only the
        frames it yields.  Otherwise it starts at the segment whose name
        says it holds record ``after + 1`` (the first one when ``after``
        lies below it) and seeks past the frames before that record by
        their length prefix.
        """
        segments = self._segments()
        if not segments:
            return
        if self._mark is not None and self._mark[0] == after:
            hwm, path, offset = self._mark
            start = segments.index(path)
        else:
            firsts = [_segment_first_hwm(path) for path in segments]
            start = max(bisect_right(firsts, after + 1) - 1, 0)
            hwm, offset = firsts[start] - 1, 0
        sent = False
        for path in segments[start:]:
            with path.open("rb") as handle:
                handle.seek(offset)
                while header := handle.read(_HEADER):
                    length = int.from_bytes(header, "big")
                    hwm += 1
                    offset += _HEADER + length
                    if hwm <= after:
                        handle.seek(length, 1)  # a committed frame: whole
                        continue
                    budget -= length + 1
                    if budget < 0 and sent:
                        return
                    payload = handle.read(length)
                    if len(header) < _HEADER or len(payload) < length:
                        return  # torn tail
                    self._mark = (hwm, path, offset)
                    sent = True
                    yield hwm, path, offset, payload
                    if hwm >= stop:
                        return
            offset = 0

    def _recover(self) -> None:
        """Find the last whole record in order, and cut everything after it.

        A frame must open with its own ``{"hwm":n,`` in sequence; the
        first that does not (garbage, or a numbering gap) is treated
        like a torn tail.  Nothing is decoded: a record is read back
        whole only where it is replayed, and a frame damaged behind an
        intact head is found there.
        """
        segments = self._segments()
        if not segments:
            return
        self.base = self.hwm = _segment_first_hwm(segments[0]) - 1
        last, cut = segments[0], 0
        for hwm, path, end, payload in self._frames(self.base):
            if not payload.startswith(b'{"hwm":%d,' % hwm):
                break
            self.hwm, last, cut = hwm, path, end
        self._mark = None  # the walk may have read a frame cut below
        if last.stat().st_size > cut:
            # crash mid-append (or bit rot): drop the tail and every later
            # segment — they are unreachable without it
            with last.open("r+b") as handle:
                handle.truncate(cut)
        for later in segments:
            if _segment_first_hwm(later) > self.hwm:
                later.unlink()
        self.committed = self.hwm

    def payloads(
        self, cursor: int, limit: int, max_bytes: float = math.inf
    ) -> Iterator[bytes]:
        """The committed records with ``cursor < hwm <= cursor + limit``, as on disk.

        Each is one frame's payload bytes, undecoded.  The records stop
        before their bytes, each counted with one more for a separator,
        would pass ``max_bytes``, but one is always served when any is
        due.  A record appended but not yet flushed is not served: its
        commit may still fail, and bytes a failed flush left past
        :attr:`committed` are never read as records.  A cursor below
        :attr:`base` is a gap — the needed records were compacted away —
        and the *caller* decides what that means (the server reports
        ``base`` so the follower can detect it).
        """
        stop = min(cursor + max(0, limit), self.committed)
        if max(cursor, self.base) < stop:
            for _, _, _, payload in self._frames(cursor, stop, max_bytes):
                yield payload

    def tail(self, cursor: int, limit: int) -> list[dict[str, Any]]:
        """:meth:`payloads` decoded: the records as written (may be empty)."""
        return [json.loads(payload) for payload in self.payloads(cursor, limit)]

    # -- appending ------------------------------------------------------

    def append(
        self,
        kind: str,
        message: dict[str, Any],
        verdict: dict[str, Any],
        line: bytes | None = None,
        reply: bytes | None = None,
    ) -> int:
        """Record one decision; returns its hwm.  It reaches the file at :meth:`flush`.

        ``message`` and ``verdict`` are the decision.  ``line`` is the
        request line ``message`` was read from, and ``reply`` the reply
        line that carries ``verdict`` in its envelope: a part given as
        bytes is written as those bytes, a missing part is encoded from
        its dict.
        """
        kind_json = _KIND_JSON.get(kind)
        if kind_json is None:
            raise ValueError(f"not a decision kind: {kind!r}")
        hwm = self.hwm + 1
        payload = b'{"hwm":%d,"kind":%b,"message":%b,"verdict":%b}' % (
            hwm,
            kind_json,
            (encode(message) if line is None else line).strip(),
            (encode(verdict) if reply is None else reply).strip(),
        )
        self._pending.append(len(payload).to_bytes(_HEADER, "big") + payload)
        self.hwm = hwm
        return hwm

    def flush(self) -> None:
        """Write every record appended since the last flush: one write, one flush.

        A batch that fills its segment is split at the rotation, one write
        per segment.  An ``OSError`` propagates and undoes nothing: part
        of the batch may be on disk past :attr:`committed`, where no read
        serves it, and recovery at the next open truncates whatever part
        of it reached the disk torn.  A log whose flush failed is closed,
        not appended to.
        """
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        chunk: list[bytes] = []
        for hwm, frame in enumerate(pending, self.hwm - len(pending) + 1):
            if self._active is None or self._active_bytes >= self.segment_bytes:
                self._write(chunk)
                chunk = []
                self._open_segment(hwm)
            chunk.append(frame)
            self._active_bytes += len(frame)
        self._write(chunk)
        self.committed = self.hwm
        self.commits += 1

    def _write(self, chunk: list[bytes]) -> None:
        if chunk:
            self._active.write(b"".join(chunk))
            self._active.flush()

    def _open_segment(self, first_hwm: int) -> None:
        """Open the segment record ``first_hwm`` goes to, closing a full one."""
        fresh = self.dir / f"seg-{first_hwm:012d}.log"
        if self._active is not None:
            self._active.close()
            self._active_path = fresh
        elif self._active_path is None:
            # adopt the last existing segment if it still has room
            segments = self._segments()
            if segments and segments[-1].stat().st_size < self.segment_bytes:
                self._active_path = segments[-1]
            else:
                self._active_path = fresh
        else:
            self._active_path = fresh
        self._active = self._active_path.open("ab")
        self._active_bytes = self._active.tell()

    def close(self) -> None:
        """Flush what is appended, then close the open segment."""
        try:
            self.flush()
        finally:
            if self._active is not None:
                self._active.close()
                self._active = None

    # -- followers ------------------------------------------------------

    def register_cursor(self, follower_id: str, cursor: int) -> None:
        """Remember a follower's progress; compaction respects it."""
        self._cursors[follower_id] = (cursor, self._clock())

    def forget_follower(self, follower_id: str) -> None:
        self._cursors.pop(follower_id, None)

    def live_cursors(self) -> dict[str, int]:
        """Cursors reported within the last ``cursor_ttl`` seconds.

        Stale entries are forgotten on the way out: a follower that died
        without deregistering stops pinning :meth:`compact` once it has
        missed a TTL's worth of polls.
        """
        deadline = self._clock() - self.cursor_ttl
        for follower_id, (_, seen) in list(self._cursors.items()):
            if seen < deadline:
                self.forget_follower(follower_id)
        return {follower_id: cursor for follower_id, (cursor, _) in self._cursors.items()}

    # -- alignment and compaction --------------------------------------

    def align(self, snapshot_hwm: int) -> None:
        """Reset the log empty at ``base = snapshot_hwm`` if it is behind the snapshot.

        A lost or fresh directory: records ``1..snapshot_hwm`` exist only
        inside the snapshot now, and a follower below that cursor must
        bootstrap from the snapshot instead.  A log at or past the
        snapshot is left as it is; the server replays its suffix.
        """
        if self.hwm < snapshot_hwm:
            self.close()
            for path in self._segments():
                path.unlink()
            self._active_path = self._mark = None
            self.base = self.hwm = self.committed = snapshot_hwm

    def compact(self, snapshot_hwm: int) -> int:
        """Drop whole segments covered by the snapshot *and* every follower.

        Returns the number of segments removed.  With no followers
        attached the snapshot alone bounds compaction; only *live*
        cursors (reported within ``cursor_ttl``) hold segments back.
        Records not yet flushed lie past every segment on disk, so they
        are never dropped.
        """
        keep_from = min([snapshot_hwm, *self.live_cursors().values()])
        self._mark = None  # it may name a segment about to go
        segments = self._segments()
        removed = 0
        for index, path in enumerate(segments):
            if index + 1 < len(segments):
                last_hwm = _segment_first_hwm(segments[index + 1]) - 1
            else:
                break  # never drop the active (last) segment
            if last_hwm > keep_from:
                break
            path.unlink()
            removed += 1
            self.base = last_hwm
        return removed

    def summary(self) -> dict[str, Any]:
        """``status.log``: ``hwm`` counts every appended record, ``committed``
        only those a flush has written (the rest are this batch's)."""
        return {
            "hwm": self.hwm,
            "committed": self.committed,
            "base": self.base,
            "segments": len(self._segments()),
            "commits": self.commits,
            "followers": dict(sorted(self.live_cursors().items())),
        }


def _segment_first_hwm(path: Path) -> int:
    try:
        return int(path.stem.split("-", 1)[1])
    except (IndexError, ValueError):
        raise ValueError(f"not a decision-log segment name: {path.name}") from None
