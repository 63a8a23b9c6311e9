"""The service's replicated state machine: one decision path for every tier.

:class:`ServiceState` is what ``repro serve`` *is* once the sockets, the
admission queue and the decision log are taken away: a scheduler plus
the two exactly-once verdict tables, advanced one write op at a time by
:meth:`ServiceState.apply`.  Everything that must agree with the primary
runs this class and nothing else — the actor
(:class:`~repro.service.server.ReservationService`), the warm standby
(:class:`~repro.gateway.follower.Follower`), and the production side of
the differential fuzzer (:mod:`repro.verify.differ`) — so they differ
only in transport, and a bug in the decision path is caught by the
cheapest harness.

It is also the only code that knows the snapshot's section names:
:meth:`ServiceState.export` writes them, :meth:`ServiceState.from_snapshot`
reads them back.  Restart, follower bootstrap and promotion all go
through that pair, and then through :meth:`ServiceState.replay`, the one
routine that applies a logged record and checks it against its verdict.

Reads (``probe``, ``pool_status``, ``status``) are not state-machine
transitions: they never move the virtual clock, are never logged and
have nothing to replay, so their callers read :attr:`scheduler` directly.
"""

from __future__ import annotations

import hashlib
from typing import Any

from ..errors import ReproError
from ..facade import CoAllocationScheduler
from . import declog

__all__ = [
    "DECISION_KINDS",
    "ReplicationDivergenceError",
    "ReplicationGapError",
    "ServiceState",
    "accepted_checksum",
]

#: the write ops :meth:`ServiceState.apply` decides (= decision-log record kinds)
DECISION_KINDS = ("reserve", "cancel", *declog.ADMIN_KINDS)


class ReplicationDivergenceError(ReproError):
    """Replaying a logged message did not reproduce the logged verdict."""


class ReplicationGapError(ReproError):
    """A record does not follow the last one applied (records are missing)."""


def accepted_checksum(decided: dict[int, dict[str, Any]]) -> str:
    """Digest over every accepted reservation, in rid order.

    Two servers that granted the same reservations — e.g. an
    uninterrupted run vs. a kill/restart-from-snapshot run over the same
    trace — produce equal checksums.
    """
    digest = hashlib.sha256()
    for rid in sorted(decided):
        entry = decided[rid]
        if entry.get("ok"):
            digest.update(
                f"{rid}:{entry['start']}:{entry['end']}:{entry['servers']}\n".encode()
            )
    return digest.hexdigest()[:16]


class ServiceState:
    """Scheduler + rid-keyed and aid-keyed verdict tables."""

    def __init__(self, scheduler: CoAllocationScheduler) -> None:
        self.scheduler = scheduler
        #: rid -> the verdict ``reserve`` was answered with (accept,
        #: reject or malformed: a resent rid is never scheduled twice)
        self.decided: dict[int, dict[str, Any]] = {}
        #: aid -> verdict, the same guarantee for pool mutations that
        #: carry an admin idempotency token
        self.admin_decided: dict[str, dict[str, Any]] = {}

    def apply(self, kind: str, message: dict[str, Any]) -> tuple[dict[str, Any], bool]:
        """Decide one write op; returns ``(verdict, replayed)``.

        ``replayed`` is true when the op's rid/aid was decided before:
        the recorded verdict comes back and the scheduler is not touched.
        A fresh verdict is recorded before it is returned.  The verdict
        dict is the table's own entry — callers copy before adding keys.
        """
        if kind == "reserve":
            rid = int(message["rid"])
            recorded = self.decided.get(rid)
            if recorded is not None:
                return recorded, True
            verdict = self.decided[rid] = declog.decide_reserve(self.scheduler, message)
            return verdict, False
        if kind == "cancel":
            # not idempotent by design: a second cancel is a NOT_FOUND verdict
            return declog.decide_cancel(self.scheduler, int(message["rid"])), False
        if kind not in declog.ADMIN_KINDS:
            raise ValueError(f"not a decision kind: {kind!r}")
        aid = message.get("aid")  # optional: without one the op is never replayed
        if aid is not None:
            recorded = self.admin_decided.get(str(aid))
            if recorded is not None:
                return recorded, True
        verdict = declog.decide_admin(self.scheduler, kind, message)
        if aid is not None:
            self.admin_decided[str(aid)] = verdict
        return verdict, False

    def replay(self, record: dict[str, Any], cursor: int) -> int:
        """Apply one logged record on top of records ``1..cursor``; returns its hwm.

        The one replay routine: a restart replaying its own log and a
        follower tailing the primary's (and so a promotion) come through
        here.  The primary logs fresh decisions only, so a record must
        follow ``cursor``, must not name a rid/aid decided here before,
        and must reproduce its logged verdict; otherwise this raises.
        ``record`` is as the log holds it, request line and reply
        envelope included: this is the one place that normalises it
        (:func:`~repro.service.declog.normalise_record`).
        """
        try:
            hwm, kind = int(record["hwm"]), record["kind"]
            if kind in DECISION_KINDS:
                record = declog.normalise_record(record)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ReplicationDivergenceError(
                f"the record after cursor {cursor} is not a log record ({exc!r})"
            ) from None
        if hwm != cursor + 1:
            raise ReplicationGapError(f"record hwm {hwm} does not follow cursor {cursor}")
        if kind not in DECISION_KINDS:
            raise ReplicationDivergenceError(f"unknown record kind {kind!r}")
        message, logged = record["message"], record["verdict"]
        verdict, replayed = self.apply(kind, message)
        if replayed or verdict != logged:
            raise ReplicationDivergenceError(
                f"record {hwm} ({kind} rid={message.get('rid')} aid={message.get('aid')}) "
                f"{'was already decided' if replayed else 'is decided'} here as "
                f"{verdict!r}, logged as {logged!r}: the log and this "
                f"state disagree on history"
            )
        return hwm

    def export(self, log_hwm: int) -> dict[str, Any]:
        """The snapshot ``state`` document (tables in key order).

        ``log_hwm`` is the decision-log position this state corresponds
        to: the primary's log high-water mark, a follower's cursor.  The
        caller must be quiescent — the actor's serial execution is.
        """
        return {
            "scheduler": self.scheduler.export_state(),
            "decided": {str(rid): self.decided[rid] for rid in sorted(self.decided)},
            "admin_decided": {
                aid: self.admin_decided[aid] for aid in sorted(self.admin_decided)
            },
            "log_hwm": log_hwm,
        }

    @classmethod
    def from_snapshot(cls, state: dict[str, Any]) -> tuple["ServiceState", int]:
        """Inverse of :meth:`export`: ``(restored state, log_hwm)``."""
        restored = cls(CoAllocationScheduler.from_state(state["scheduler"]))
        restored.decided = {
            int(rid): entry for rid, entry in state.get("decided", {}).items()
        }
        restored.admin_decided = {
            str(aid): entry for aid, entry in state.get("admin_decided", {}).items()
        }
        return restored, int(state.get("log_hwm", 0))

    def accepted_checksum(self) -> str:
        return accepted_checksum(self.decided)

    def summary(self) -> dict[str, Any]:
        """Table sizes and checksum, as ``status``/``follower_status`` report them."""
        return {
            "decided": len(self.decided),
            "admin_decided": len(self.admin_decided),
            "accepted_checksum": self.accepted_checksum(),
        }
