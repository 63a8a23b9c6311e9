"""Versioned, checksummed snapshots of the full service state.

A snapshot file is one JSON document::

    {
      "format": "repro.service.snapshot",
      "version": 2,
      "sha256": "<hex digest over the canonical state JSON>",
      "state": { ... }
    }

``state`` bundles the scheduler state
(:meth:`repro.facade.CoAllocationScheduler.export_state` — calendar
periods, clock, retry policy, active allocations) with the server's
decision log (rid → recorded response), so a restarted server both
resumes its reservations *and* answers resent requests with the original
verdict (exactly-once semantics for at-least-once clients).

Canonicalization (sorted keys, compact separators) makes the checksum —
and the snapshot bytes themselves — deterministic: snapshot → restore →
snapshot round-trips byte-identically, which the hypothesis suite
asserts.  Writes are atomic (temp file + ``os.replace``) so a crash
mid-write leaves the previous snapshot intact; reads verify format,
version and checksum and raise :class:`SnapshotError` on any mismatch
rather than resurrecting a corrupt calendar.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from ..core.calendar import AvailabilityCalendar
from .protocol import WIRE_ENCODER

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SUPPORTED_VERSIONS",
    "SnapshotError",
    "snapshot_bytes",
    "state_checksum",
    "write_snapshot",
    "read_snapshot",
]

SNAPSHOT_FORMAT = "repro.service.snapshot"
#: version 2 added the elastic pool: the calendar state carries a
#: ``pool`` status list and the service state an ``admin_decided`` table
SNAPSHOT_VERSION = 2
#: versions this build can read (no writer has produced version 1 since
#: the elastic pool landed; such a file is refused, naming its version)
SUPPORTED_VERSIONS = frozenset({2})


class SnapshotError(ValueError):
    """The snapshot file is missing, malformed, or fails its checksum."""


def _canonical(state: dict[str, Any]) -> str:
    return WIRE_ENCODER.encode(state)


def state_checksum(state: dict[str, Any]) -> str:
    """SHA-256 over the canonical state JSON."""
    return hashlib.sha256(_canonical(state).encode("utf-8")).hexdigest()


def snapshot_bytes(state: dict[str, Any]) -> bytes:
    """The exact bytes :func:`write_snapshot` persists for ``state``."""
    document = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "sha256": state_checksum(state),
        "state": state,
    }
    return (_canonical(document) + "\n").encode("utf-8")


def write_snapshot(path: str | Path, state: dict[str, Any]) -> dict[str, Any]:
    """Atomically persist ``state``; returns the snapshot metadata.

    The temp file lives next to the target so ``os.replace`` stays on one
    filesystem and is atomic.
    """
    target = Path(path)
    payload = snapshot_bytes(state)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, target)
    return {
        "path": str(target),
        "version": SNAPSHOT_VERSION,
        "sha256": state_checksum(state),
        "bytes": len(payload),
    }


def read_snapshot(path: str | Path) -> dict[str, Any]:
    """Load and verify a snapshot; returns the ``state`` dict.

    Raises :class:`SnapshotError` on a missing file, unparseable JSON,
    wrong format/version, or a checksum mismatch.
    """
    target = Path(path)
    try:
        raw = target.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {target}: {exc}") from exc
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"snapshot {target} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"snapshot {target} is not a {SNAPSHOT_FORMAT} file")
    version = document.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise SnapshotError(
            f"snapshot {target} has version {version!r}; "
            f"this build reads versions {sorted(SUPPORTED_VERSIONS)}"
        )
    state = document.get("state")
    if not isinstance(state, dict):
        raise SnapshotError(f"snapshot {target} carries no state object")
    digest = state_checksum(state)
    if digest != document.get("sha256"):
        raise SnapshotError(
            f"snapshot {target} fails its checksum "
            f"(header {document.get('sha256')!r}, computed {digest!r})"
        )
    _check_pool_sections(state, target)
    return state


def _check_pool_sections(state: dict[str, Any], target: Path) -> None:
    """Hard-fail a current-version snapshot with corrupt pool sections.

    A checksum match proves the bytes are what the writer wrote, not that
    the writer wrote sense; a mangled pool must never silently restore as
    an all-active (or empty) pool.  The calendar's own restore check
    decides, so a snapshot passes here exactly when ``from_state`` would
    accept its pool.
    """
    scheduler = state.get("scheduler")
    calendar = scheduler.get("calendar") if isinstance(scheduler, dict) else None
    if isinstance(calendar, dict) and "pool" in calendar:
        try:
            AvailabilityCalendar.validate_pool_state(calendar)
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot {target} carries a corrupt pool section: {exc}"
            ) from exc
    admin = state.get("admin_decided")
    if admin is not None and (
        not isinstance(admin, dict)
        or any(not isinstance(entry, dict) for entry in admin.values())
    ):
        raise SnapshotError(f"snapshot {target} carries a corrupt admin_decided table")
