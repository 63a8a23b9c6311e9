"""The client-side shadow ledger: accepted reservations, re-verified.

A :class:`ShadowLedger` trusts nothing the server says.  Fed every
accepted reply a client saw, it checks that each reservation starts no
earlier than its requested ``s_r`` and overlaps no other accepted
reservation on any of its servers, and it computes the same
accepted-reservation checksum the server exposes via ``status`` and
``shutdown`` — so a client's view and the server's can be compared end
to end.  Its users are the verifiers that replay traffic over the wire:
the chaos plans (``repro fuzz --chaos``) and ``benchmarks/stack``.

(The module name is historical — there is no load generator here,
DESIGN.md §10 — and stays because the frozen benchmark tree imports it.)
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from typing import Any

__all__ = ["ShadowLedger"]


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
