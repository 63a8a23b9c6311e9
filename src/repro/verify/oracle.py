"""An obviously-correct reference co-allocator (the differential oracle).

:class:`ReferenceScheduler` re-implements the *observable* semantics of
:class:`repro.facade.CoAllocationScheduler` — reserve with the Δt/R_max
retry loop, probe (temporal range search), cancel, clock advance with
horizon rollover — over nothing but per-server sorted lists of plain
``(st, et, uid)`` tuples.  Every query is a linear scan; every update is
a list splice.  O(N · periods) per operation, no trees, no incremental
indexes, no caching: small enough to audit by eye, which is the whole
point.

It is the one reference the repository compares against: the differ
and the chaos plans lock-step the service with it, the property suites
lock-step the calendar and the allocator with it, and the ablation
benchmark times it as the linear-scan baseline the slot trees must beat
at identical decisions.  It imports nothing from the calendar or the
slot tree on purpose: a bug in shared code would hide from both sides.

Semantics mirrored from the production implementation
-----------------------------------------------------

* **Feasibility** (Section 2): a period is feasible for ``[sr, er)``
  when ``st <= sr and et >= er``.  The production Phase-1 candidate
  count over the slot tree of ``slot_of(sr)`` plus the tail index is
  observationally equivalent to this scan: any feasible bounded period
  necessarily overlaps ``slot_of(sr)`` (it contains ``sr``), so it lives
  in exactly that tree, and the early Phase-1 rejection fires only when
  the final feasible count is short anyway.
* **Canonical selection** (PR 4's restart guarantee): the globally
  earliest-ending feasible bounded periods win, ties broken by uid
  ascending; when fewer than ``nr`` exist, the remainder is topped up
  from the *latest-starting* unbounded trailing periods.
* **uid equality**: the oracle numbers its periods from its own counter,
  from 0, in the same logical creation order as the production calendar
  does from its (constructor in server order; allocation remnants
  left-then-right per chosen period in selection order; one merged
  period per release; one per added server).  A snapshot carries the
  calendar's counter, so a restore continues it.  The uids — and with
  them every tie-break — are therefore equal, and the differ compares
  them.
* **Retry loop**: start candidates ``max(sr, now) + k·Δt``; a candidate
  past ``deadline - lr`` exits with reason ``deadline``, one outside the
  active horizon with ``horizon``, and ``R_max`` failures with
  ``exhausted`` — with the same float expressions, in the same order.
* **Clock/rollover**: ``slot_of`` uses the identical floor-plus-
  correction arithmetic; per-server history is trimmed (periods with
  ``et <= horizon_start``) only when the horizon actually rolled.
* **Cancel**: releases ``[max(start, now), end)`` per reservation in
  selection order; a release merges with the period ending exactly at
  its start and the one starting exactly at its end.
* **Elastic pool**: ``add_servers``/``drain``/``remove`` mirror the
  production lifecycle — positional ids are stable forever, a draining
  server drops out of every feasibility scan while its committed
  reservations (and cancellations of them) are honored, and removal is
  only legal once drained.  The oracle keeps the same one-way status
  list and returns the same canonical verdicts, including the same
  malformed/conflict error classification.

:class:`ReferenceTree` is the same idea one level down: the read surface
of one :class:`repro.core.slot_tree.TwoDimTree` over a flat list, which
the property suites lock-step the production tree against.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Any, Iterator

__all__ = ["OraclePeriod", "ReferenceScheduler", "ReferenceTree"]

INF = math.inf

#: index positions inside a period triple (clearer than bare numbers)
ST, ET, UID = 0, 1, 2

#: an idle period as stored by the oracle: ``(st, et, uid)``
OraclePeriod = tuple[float, float, int]


class ReferenceTree:
    """One slot tree as a flat list: every read is a scan and a ``sorted``.

    Periods are whatever the caller hands in; only ``.st``, ``.et`` and
    ``.uid`` are read.  Updates are eager.  A Phase-1 "mark" list is
    simply the candidate periods themselves.
    """

    def __init__(self) -> None:
        self._held: list[Any] = []

    def insert(self, period: Any) -> None:
        self._held.append(period)

    def remove(self, period: Any) -> None:
        for i, p in enumerate(self._held):
            if p.uid == period.uid:
                del self._held[i]
                return
        raise KeyError(f"idle period uid={period.uid} not in tree")

    def bulk_load(self, periods: list[Any]) -> None:
        self._held = list(periods)

    def __len__(self) -> int:
        return len(self._held)

    def periods(self) -> Iterator[Any]:
        return iter(sorted(self._held, key=lambda p: (p.st, p.uid)))

    def max_end(self) -> float:
        return max((p.et for p in self._held), default=-INF)

    def phase1(self, sr: float) -> tuple[int, list[Any]]:
        candidates = [p for p in self._held if p.st <= sr]
        return len(candidates), candidates

    def phase2(
        self, marks: list[Any], er: float, need: int | float, partial: bool = False
    ) -> list[Any] | None:
        feasible = sorted((p for p in marks if p.et >= er), key=lambda p: (p.et, p.uid))
        if need == INF:
            return feasible
        if len(feasible) < need and not partial:
            return None
        return feasible[: int(need)]

    def find_feasible(self, sr: float, er: float, nr: int) -> list[Any] | None:
        count, marks = self.phase1(sr)
        return None if count < nr else self.phase2(marks, er, nr)

    def count_candidates(self, sr: float) -> int:
        return self.phase1(sr)[0]

    def range_search(self, ta: float, tb: float) -> list[Any]:
        return self.phase2(self.phase1(ta)[1], tb, INF) or []


class ReferenceScheduler:
    """Reference co-allocator over per-server sorted idle lists.

    Constructor parameters mirror
    :class:`~repro.facade.CoAllocationScheduler`.
    """

    def __init__(
        self,
        n_servers: int,
        tau: float,
        q_slots: int,
        delta_t: float | None = None,
        r_max: int | None = None,
        start_time: float = 0.0,
    ) -> None:
        if n_servers <= 0 or tau <= 0 or q_slots <= 0:
            raise ValueError("n_servers, tau and q_slots must be positive")
        self.n_servers = n_servers
        self.tau = float(tau)
        self.q_slots = q_slots
        self.delta_t = float(delta_t) if delta_t is not None else self.tau
        self.r_max = r_max if r_max is not None else max(1, q_slots // 2)
        self.now = float(start_time)
        self._base_slot = self.slot_of(self.now)
        self._next_uid = 0
        # one sorted (by st) list of (st, et, uid) triples per server
        self._periods: list[list[OraclePeriod]] = []
        for server in range(n_servers):
            self._periods.append([(self.now, INF, self._take_uid())])
        # rid -> committed reservations [(server, start, end)] in selection order
        self._allocations: dict[int, list[tuple[int, float, float]]] = {}
        # elastic pool: per-server lifecycle, active -> draining -> removed
        self._status: list[str] = ["active"] * n_servers

    def _take_uid(self) -> int:
        uid = self._next_uid
        self._next_uid += 1
        return uid

    # ------------------------------------------------------------------
    # geometry / clock (same float arithmetic as the production calendar)
    # ------------------------------------------------------------------

    def slot_of(self, t: float) -> int:
        tau = self.tau
        q = int(t // tau)
        while t < q * tau:
            q -= 1
        while t >= (q + 1) * tau:
            q += 1
        return q

    def in_horizon(self, t: float) -> bool:
        return self._base_slot <= self.slot_of(t) < self._base_slot + self.q_slots

    @property
    def horizon_start(self) -> float:
        return self._base_slot * self.tau

    def advance(self, to_time: float) -> None:
        if to_time < self.now:
            raise ValueError(f"cannot move time backwards ({to_time} < {self.now})")
        self.now = to_time
        current = self.slot_of(to_time)
        if current > self._base_slot:
            self._base_slot = current
            cutoff = self.horizon_start
            for periods in self._periods:
                n = 0
                for p in periods:
                    if p[ET] > cutoff:
                        break
                    n += 1
                if n:
                    del periods[:n]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _feasible_sets(
        self, sr: float, er: float
    ) -> tuple[list[tuple[float, int, int]], list[tuple[float, int, int]]]:
        """Feasible periods for ``[sr, er)``, split bounded/unbounded.

        Bounded come back as ``(et, uid, server)`` sorted ascending (the
        canonical earliest-ending-first order); unbounded as
        ``(st, uid, server)`` sorted ascending.
        """
        bounded: list[tuple[float, int, int]] = []
        unbounded: list[tuple[float, int, int]] = []
        for server, periods in enumerate(self._periods):
            if self._status[server] != "active":
                continue  # draining/removed servers admit no new periods
            for st, et, uid in periods:
                if st > sr:
                    break  # sorted by st: nothing later is a candidate
                if et == INF:
                    unbounded.append((st, uid, server))
                elif et >= er:
                    bounded.append((et, uid, server))
        bounded.sort()
        unbounded.sort()
        return bounded, unbounded

    def _lookup(self, server: int, uid: int) -> OraclePeriod:
        for p in self._periods[server]:
            if p[UID] == uid:
                return p
        raise KeyError(f"oracle period uid={uid} not on server {server}")

    def _find_feasible(
        self, sr: float, er: float, nr: int
    ) -> list[tuple[int, OraclePeriod]] | None:
        """Mirror of ``AvailabilityCalendar.find_feasible``: the chosen
        ``(server, period)`` pairs in canonical selection order, or
        ``None``."""
        q = self.slot_of(sr)
        if not self._base_slot <= q < self._base_slot + self.q_slots:
            return None
        bounded, unbounded = self._feasible_sets(sr, er)
        chosen = [
            (server, self._lookup(server, uid)) for _, uid, server in bounded[:nr]
        ]
        if len(chosen) >= nr:
            return chosen
        need = nr - len(chosen)
        if len(unbounded) < need:
            return None
        # latest-starting trailing periods first (production reverses the
        # tail slice it takes from the end of the (st, uid)-sorted index)
        tail = unbounded[-need:]
        tail.reverse()
        chosen.extend((server, self._lookup(server, uid)) for _, uid, server in tail)
        return chosen

    def probe(self, ta: float, tb: float) -> list[tuple[int, float, float]]:
        """Mirror of ``range_search``: every idle period covering
        ``[ta, tb)`` as ``(server, st, et)``, bounded first in
        ``(et, uid)`` order, then unbounded in ``(st, uid)`` order."""
        if not ta < tb:
            raise ValueError(f"range query window [{ta}, {tb}) is empty")
        q = self.slot_of(ta)
        if not self._base_slot <= q < self._base_slot + self.q_slots:
            return []
        bounded, unbounded = self._feasible_sets(ta, tb)
        out = [
            (server, self._lookup(server, uid)[ST], et) for et, uid, server in bounded
        ]
        out.extend((server, st, INF) for st, uid, server in unbounded)
        return out

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------

    def _insert(self, server: int, st: float, et: float) -> None:
        periods = self._periods[server]
        triple = (st, et, self._take_uid())
        starts = [p[ST] for p in periods]
        periods.insert(bisect_right(starts, st), triple)

    def _remove(self, server: int, period: OraclePeriod) -> None:
        self._periods[server].remove(period)

    def _carve(
        self, chosen: list[tuple[int, OraclePeriod]], start: float, end: float
    ) -> None:
        """Mirror of ``allocate``: drop each chosen period, add the left
        remnant then the right remnant (uid creation order matters)."""
        for server, period in chosen:
            st, et, _ = period
            if not (st <= start and et >= end):
                raise ValueError(
                    f"oracle period {period} cannot host [{start}, {end}) "
                    f"on server {server}"
                )
            self._remove(server, period)
            if st < start:
                self._insert(server, st, start)
            if end < et:
                self._insert(server, end, et)

    def _release(self, server: int, start: float, end: float) -> None:
        """Mirror of ``release``: merge with the period starting exactly
        at ``end`` and the one ending exactly at ``start``."""
        if not start < end:
            raise ValueError(f"release window [{start}, {end}) is empty")
        periods = self._periods[server]
        lo, hi = start, end
        starts = [p[ST] for p in periods]
        idx = bisect_left(starts, end)
        if idx < len(starts) and starts[idx] == end:
            hi = periods[idx][ET]
            del periods[idx]
            del starts[idx]
        idx = bisect_left(starts, start) - 1
        if idx >= 0 and periods[idx][ET] == start:
            lo = periods[idx][ST]
            del periods[idx]
            del starts[idx]
        for p in periods:
            if p[ST] < hi and p[ET] > lo:
                raise ValueError(
                    f"oracle release of [{start}, {end}) on server {server} "
                    f"overlaps idle period {p}"
                )
        self._insert(server, lo, hi)

    # ------------------------------------------------------------------
    # the public operations the differ drives
    # ------------------------------------------------------------------

    def schedule(
        self,
        rid: int,
        sr: float,
        lr: float,
        nr: int,
        deadline: float | None = None,
    ) -> dict[str, Any]:
        """Mirror of ``schedule_detailed`` (the caller advances the clock).

        Returns the normalized decision dict the differ compares:
        ``{"ok", "start", "end", "servers", "attempts", "reason"}`` with
        ``servers`` in selection order.
        """
        base = max(sr, self.now)
        latest = INF if deadline is None else deadline - lr
        for k in range(self.r_max):
            start = base + k * self.delta_t
            if start > latest:
                return {"ok": False, "attempts": k, "reason": "deadline"}
            if not self.in_horizon(start):
                return {"ok": False, "attempts": k, "reason": "horizon"}
            end = start + lr
            chosen = self._find_feasible(start, end, nr)
            if chosen is not None:
                self._carve(chosen, start, end)
                self._allocations[rid] = [
                    (server, start, end) for server, _ in chosen
                ]
                return {
                    "ok": True,
                    "start": start,
                    "end": end,
                    "servers": [server for server, _ in chosen],
                    "attempts": k + 1,
                    "delay": start - sr,
                    "reason": None,
                }
        return {"ok": False, "attempts": self.r_max, "reason": "exhausted"}

    def cancel(self, rid: int) -> dict[str, Any]:
        """Mirror of ``CoAllocationScheduler.cancel`` (found/not-found)."""
        reservations = self._allocations.pop(rid, None)
        if reservations is None:
            return {"ok": False}
        for server, start, end in reservations:
            lo = max(start, self.now)
            if lo < end:
                self._release(server, lo, end)
        return {"ok": True}

    # ------------------------------------------------------------------
    # elastic pool (mirror of the production facade's verdicts)
    # ------------------------------------------------------------------

    def is_drained(self, server: int) -> bool:
        if self._status[server] == "removed":
            return True
        trailing = self._periods[server][-1]
        assert trailing[ET] == INF, f"oracle server {server} lost its trailing period"
        return trailing[ST] <= self.now

    def add_servers(self, count: int) -> dict[str, Any]:
        if count <= 0:
            return {"ok": False, "code": "MALFORMED"}
        new_ids = list(range(self.n_servers, self.n_servers + count))
        for server in new_ids:
            self._periods.append([(self.now, INF, self._take_uid())])
            self._status.append("active")
            self.n_servers += 1
        return {"ok": True, "servers": new_ids, "n_servers": self.n_servers}

    def drain(self, server: int) -> dict[str, Any]:
        if not 0 <= server < self.n_servers:
            return {"ok": False, "code": "MALFORMED"}
        if self._status[server] == "removed":
            return {"ok": False, "code": "CONFLICT"}
        changed = self._status[server] == "active"
        self._status[server] = "draining"
        return {
            "ok": True,
            "server": server,
            "status": "draining",
            "changed": changed,
            "drained": self.is_drained(server),
        }

    def remove(self, server: int) -> dict[str, Any]:
        if not 0 <= server < self.n_servers:
            return {"ok": False, "code": "MALFORMED"}
        if self._status[server] == "removed":
            return {"ok": True, "server": server, "status": "removed", "changed": False}
        if self._status[server] == "active" or not self.is_drained(server):
            return {"ok": False, "code": "CONFLICT"}
        self._periods[server].clear()
        self._status[server] = "removed"
        return {"ok": True, "server": server, "status": "removed", "changed": True}

    def pool_status(self) -> dict[str, Any]:
        counts = {"active": 0, "draining": 0, "removed": 0}
        for status in self._status:
            counts[status] += 1
        return {
            **counts,
            "total": self.n_servers,
            "servers": list(self._status),
            "drain_progress": [
                {"server": s, "drained": self.is_drained(s)}
                for s in range(self.n_servers)
                if self._status[s] == "draining"
            ],
        }

    # ------------------------------------------------------------------
    # state export (what the differ compares against production)
    # ------------------------------------------------------------------

    def export_intervals(self) -> list[list[tuple[float, float | None, int]]]:
        """Per-server ``(st, et, uid)`` lists, ``inf`` endings as ``None``
        — equal, uids included, to the production calendar's
        ``idle_periods`` after the same operations."""
        return [
            [(p[ST], None if p[ET] == INF else p[ET], p[UID]) for p in periods]
            for periods in self._periods
        ]

    def active_rids(self) -> list[int]:
        return sorted(self._allocations)
