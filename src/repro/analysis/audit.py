"""Deep structural invariant audits for the core data structures.

This module is the machine-checked statement of what "correct" means for
the calendar machinery — the enhanced red-black-tree literature's lesson
is that reservation data structures live or die by exactly these checks.
Every invariant carries a stable ID so tests (and humans reading a CI
report) can tell a corrupted size field from a desynchronized secondary
index:

Per-tree (``audit_tree``):

* ``RA101`` — the tree's cached leaf count and latest ending time
  agree with its leaves;
* ``RA103`` — leaves appear in strictly ascending ``(st, uid)`` order
  and each leaf equals its period's ``(st, uid, et)``;
* ``RA104`` — every materialised secondary index is sorted ascending;
* ``RA105`` — the per-tree uid map is a bijection onto the stored
  periods (same uids, no strays, no uid stored twice);
* ``RA106`` — every materialised secondary index holds exactly the
  ``(et, uid)`` keys of the leaf range it names (primary/secondary
  leaf-set equality);
* ``RA116`` — the write buffer is consistent with the stored tree:
  buffered removals are of stored periods, and a buffered insert's uid
  is not stored.

``RA102`` (split keys), ``RA107`` (parent/child pointers) and ``RA108``
(α-weight balance) guarded the dynamic tree; in the implicit tree a
node's split key, children and weight are index arithmetic over the
sorted leaves and cannot be wrong while ``RA103`` holds.  The IDs stay
retired.

Slot trees are write-buffered, and an audit must not change what it
audits: nothing here flushes.  The structural checks read the *stored*
tree; the cross-calendar checks compare each tree's *effective* content
(stored − buffered removals + buffered inserts) with the calendar's
authoritative lists — so a run audited after every mutation walks
exactly the buffer states an unaudited run does.

Cross-calendar (``audit_calendar``, which also audits every slot tree):

* ``RA111`` — per-server idle periods are non-empty, sorted, pairwise
  disjoint, carry the right server id, and the bisect key arrays mirror them;
  every non-removed server's list ends in its one unbounded period;
* ``RA112`` — every bounded period is indexed (stored or buffered) in
  exactly the slot trees it overlaps (and unbounded ones never leak
  into trees: they live in the tail index);
* ``RA113`` — the horizon is arithmetic: every bounded period of an
  active server ends inside it, no tree sits outside it, and the tree
  that unwritten slots are read through is empty;
* ``RA115`` — the tail index is sorted, its parallel arrays agree, and
  it holds exactly the live unbounded periods.

Conservation (``RA114``) needs to know what was allocated, so it lives
in :class:`MutationAuditor`: attach one to a calendar and every
``allocate``/``release``/``advance`` is followed (every ``stride``-th
mutation) by a full audit plus a ledger check that idle periods and
committed reservations exactly tile each server's timeline — no idle
time lost, none double-booked.

The core ``validate()`` methods delegate here; :exc:`AuditError`
subclasses :exc:`AssertionError` so existing callers keep working.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Callable

from ..core.types import INF, IdlePeriod

if TYPE_CHECKING:  # imported lazily at runtime to keep core import-light
    from ..core.calendar import AvailabilityCalendar
    from ..core.slot_tree import TwoDimTree

__all__ = [
    "AUDIT_CHECK_IDS",
    "AuditError",
    "AuditFinding",
    "MutationAuditor",
    "audit_calendar",
    "audit_tree",
    "corrupt_buffer",
    "corrupt_secondary_key",
    "corrupt_size_field",
    "corrupt_uid_map",
]

#: every check id the audit engine can report (documented above and in
#: ``docs/analysis.md``); the lint pass treats these as known RA ids
AUDIT_CHECK_IDS = frozenset(
    {
        "RA101", "RA103", "RA104", "RA105", "RA106",
        "RA111", "RA112", "RA113", "RA114", "RA115", "RA116",
    }
)


class AuditFinding:
    """One violated invariant, locatable and machine-readable."""

    __slots__ = ("check_id", "location", "message")

    def __init__(self, check_id: str, location: str, message: str) -> None:
        self.check_id = check_id
        self.location = location
        self.message = message

    def to_dict(self) -> dict[str, str]:
        return {
            "check": self.check_id,
            "location": self.location,
            "message": self.message,
        }

    def __repr__(self) -> str:
        return f"{self.check_id} @ {self.location}: {self.message}"


class AuditError(AssertionError):
    """Raised when an audit finds violated invariants.

    Subclasses :exc:`AssertionError` so the pre-existing ``validate()``
    contract (and every test written against it) is preserved.
    """

    def __init__(self, findings: list[AuditFinding]) -> None:
        self.findings = findings
        summary = "; ".join(repr(f) for f in findings[:5])
        extra = f" (+{len(findings) - 5} more)" if len(findings) > 5 else ""
        super().__init__(f"{len(findings)} invariant violation(s): {summary}{extra}")


# ----------------------------------------------------------------------
# per-tree audits
# ----------------------------------------------------------------------


def audit_tree(tree: "TwoDimTree", label: str = "tree") -> list[AuditFinding]:
    """Audit one slot tree; returns findings (empty == every invariant holds).

    Reads the tree's storage directly: ``_leaves`` is the stored periods
    as ``(st, uid, et)`` sorted ascending, ``_count`` and ``_max_et``
    cache its length and latest ending time, and ``_secs`` maps each node
    ``(lo, hi)`` a search has bisected to the sorted ``(et, uid)`` keys
    of ``_leaves[lo:hi]``.  Period objects are resolved through the uid
    map.  The write buffer is checked against the uid map (RA116) and
    otherwise left alone.
    """
    findings: list[AuditFinding] = []
    by_uid = tree._by_uid
    for uid, period in tree._ins.items():
        if uid in by_uid or period.uid != uid:
            findings.append(
                AuditFinding(
                    "RA116",
                    label,
                    f"buffered insert of uid {uid} ({period}) is already stored "
                    "or filed under the wrong uid",
                )
            )
    for uid, period in tree._rem.items():
        if uid not in by_uid or period.uid != uid:
            findings.append(
                AuditFinding(
                    "RA116", label, f"buffered removal of uid {uid} ({period}) is not stored"
                )
            )
    leaves = tree._leaves

    # RA101: the cached summary
    if tree._count != len(leaves):
        findings.append(
            AuditFinding(
                "RA101",
                label,
                f"tree caches count {tree._count} but holds {len(leaves)} leaves",
            )
        )
    latest = max((leaf[2] for leaf in leaves), default=-INF)
    if tree._max_et != latest:
        findings.append(
            AuditFinding(
                "RA101", label, f"tree caches max end {tree._max_et} but the latest is {latest}"
            )
        )

    # RA103: leaf order and leaf-vs-period agreement
    for a, b in zip(leaves, leaves[1:]):
        if a[:2] >= b[:2]:
            findings.append(
                AuditFinding("RA103", label, f"leaves out of order: {a[:2]} before {b[:2]}")
            )
            break
    for leaf in leaves:
        uid = leaf[1]
        period = by_uid.get(uid)
        if period is None:
            findings.append(
                AuditFinding(
                    "RA105", f"{label}/leaf={leaf}", f"uid {uid} stored in tree but absent from uid map"
                )
            )
        elif leaf != (period.st, period.uid, period.et):
            findings.append(
                AuditFinding("RA103", f"{label}/leaf={leaf}", f"leaf differs from its period {period}")
            )

    # RA105: uid-map bijection (identity holds by construction: periods
    # are only reachable through the map)
    leaf_uids = {leaf[1] for leaf in leaves}
    if len(leaf_uids) != len(leaves):
        findings.append(AuditFinding("RA105", label, "a uid is stored in more than one leaf"))
    for uid in by_uid:
        if uid not in leaf_uids:
            findings.append(
                AuditFinding("RA105", label, f"uid map holds stray uid {uid} with no leaf")
            )

    # RA104 / RA106: every materialised secondary is the sorted slice it names
    for (lo, hi), sec in tree._secs.items():
        where = f"{label}/node[{lo}:{hi}]"
        if any(sec[i] > sec[i + 1] for i in range(len(sec) - 1)):
            findings.append(AuditFinding("RA104", where, "sec keys not sorted ascending"))
        in_range = 0 <= lo < hi <= len(leaves)
        expected = sorted((et, uid) for _st, uid, et in leaves[lo:hi]) if in_range else []
        if sorted(sec) != expected:
            findings.append(
                AuditFinding(
                    "RA106",
                    where,
                    "sec keys do not hold exactly the (et, uid) keys of that leaf range",
                )
            )
    return findings


# ----------------------------------------------------------------------
# cross-calendar audits
# ----------------------------------------------------------------------


def _effective_periods(tree: "TwoDimTree") -> list[IdlePeriod]:
    """What ``tree`` holds once its write buffer is applied — read, not flushed.

    Stored uids are resolved defensively: a corrupted uid map (missing
    entry) is already reported as RA105 by :func:`audit_tree` and must
    not abort the cross-structure checks.
    """
    by_uid = tree._by_uid
    removed = tree._rem
    stored = (by_uid.get(uid) for _st, uid, _et in tree._leaves if uid not in removed)
    return [p for p in stored if p is not None] + list(tree._ins.values())


def audit_calendar(cal: "AvailabilityCalendar") -> list[AuditFinding]:
    """Audit the whole calendar: every slot tree plus the cross-structure
    invariants tying per-server lists, trees and tail index together."""
    findings: list[AuditFinding] = []

    # RA111: authoritative per-server lists and their bisect key arrays
    for server, periods in enumerate(cal._server_periods):
        where = f"server {server}"
        if cal._status[server] == "removed":
            if periods:
                findings.append(
                    AuditFinding(
                        "RA111", where, f"removed server still lists {len(periods)} period(s)"
                    )
                )
        elif not periods or periods[-1].et != INF or any(p.et == INF for p in periods[:-1]):
            findings.append(
                AuditFinding(
                    "RA111", where, "list does not end in exactly one unbounded (trailing) period"
                )
            )
        for a, b in zip(periods, periods[1:]):
            if a.et > b.st:
                findings.append(
                    AuditFinding("RA111", where, f"idle periods overlap: {a} / {b}")
                )
        for p in periods:
            if p.server != server:
                findings.append(
                    AuditFinding("RA111", where, f"period {p} carries server {p.server}")
                )
            if not p.st < p.et:
                # the carve's trusted constructor does not check this
                findings.append(AuditFinding("RA111", where, f"period {p} is empty"))
        if cal._server_keys[server] != [p.st for p in periods]:
            findings.append(
                AuditFinding("RA111", where, "key array out of sync with period list")
            )

    # per-tree structural audits + collect where every uid is indexed
    indexed: dict[int, set[int]] = {}
    if _effective_periods(cal._unwritten):
        findings.append(
            AuditFinding("RA113", "unwritten slots", "the shared empty tree was written to")
        )
    for q, tree in cal._trees.items():
        if not cal._base_slot <= q < cal._base_slot + cal.q_slots:
            findings.append(AuditFinding("RA113", f"slot {q}", "tree outside the horizon"))
        findings.extend(audit_tree(tree, label=f"slot {q}"))
        lo, hi = q * cal.tau, (q + 1) * cal.tau
        for p in _effective_periods(tree):
            if cal._status[p.server] != "active":
                findings.append(
                    AuditFinding(
                        "RA112",
                        f"slot {q}",
                        f"period {p} of {cal._status[p.server]} server "
                        f"{p.server} indexed in a slot tree",
                    )
                )
            if p.et == INF:
                findings.append(
                    AuditFinding(
                        "RA112", f"slot {q}", f"unbounded period {p} leaked into a slot tree"
                    )
                )
            if not p.overlaps(lo, hi):
                findings.append(
                    AuditFinding(
                        "RA112", f"slot {q}", f"period {p} indexed in a non-overlapping slot"
                    )
                )
            indexed.setdefault(p.uid, set()).add(q)

    # RA115: the tail index over unbounded periods
    if any(cal._inf_keys[i] > cal._inf_keys[i + 1] for i in range(len(cal._inf_keys) - 1)):
        findings.append(AuditFinding("RA115", "tail index", "keys out of order"))
    if [(p.st, p.uid) for p in cal._inf_periods] != list(cal._inf_keys):
        findings.append(
            AuditFinding("RA115", "tail index", "key array and period array disagree")
        )
    tail_uids = {p.uid for p in cal._inf_periods}
    all_periods = {p.uid: p for periods in cal._server_periods for p in periods}
    for uid in tail_uids:
        if uid not in all_periods:
            findings.append(
                AuditFinding("RA115", "tail index", f"stale period uid {uid} not live anywhere")
            )

    # RA115 continued: the tail index must hold only active servers'
    # trailing periods — a draining server left every derived index
    for p in cal._inf_periods:
        if cal._status[p.server] != "active":
            findings.append(
                AuditFinding(
                    "RA115",
                    "tail index",
                    f"trailing period {p} of {cal._status[p.server]} server "
                    f"{p.server} still indexed",
                )
            )

    # RA112 continued: every live period of an *active* server indexed in
    # exactly its overlapping slots; RA115: every unbounded period present
    # in the tail index.  Draining servers' periods must appear in no
    # derived index at all (their tree/tail presence is flagged above).
    for p in all_periods.values():
        if cal._status[p.server] != "active":
            if indexed.get(p.uid):
                findings.append(
                    AuditFinding(
                        "RA112",
                        f"server {p.server}",
                        f"period {p} of a {cal._status[p.server]} server indexed "
                        f"in slots {sorted(indexed[p.uid])}",
                    )
                )
            continue
        if p.et == INF:
            if p.uid not in tail_uids:
                findings.append(
                    AuditFinding(
                        "RA115", f"server {p.server}", f"trailing period {p} missing from tail index"
                    )
                )
            continue
        expected = set(cal._overlapping_slots(p))
        got = indexed.get(p.uid, set())
        if got != expected:
            findings.append(
                AuditFinding(
                    "RA112",
                    f"server {p.server}",
                    f"period {p} indexed in slots {sorted(got)} but overlaps {sorted(expected)}",
                )
            )
        if p.et > cal.horizon_end:
            findings.append(
                AuditFinding(
                    "RA113", f"server {p.server}", f"period {p} ends beyond the horizon"
                )
            )
    return findings


# ----------------------------------------------------------------------
# conservation auditing across mutations
# ----------------------------------------------------------------------


class MutationAuditor:
    """Audits a calendar after every (``stride``-th) mutation.

    Wraps the calendar's ``allocate``/``release``/``advance`` (and the
    elastic-pool ``add_servers``/``remove``) instance
    methods; each committed reservation is recorded in a per-server busy
    ledger so the conservation invariant (``RA114``) is checkable: after
    every mutation, each server's idle periods and recorded busy
    intervals must exactly tile its timeline from the horizon start to
    infinity — idle time is neither lost nor double-booked by
    ``allocate``/``release``.

    Attach to a freshly built calendar (before any allocation) or the
    ledger starts incomplete.  ``stride`` trades coverage for speed: 1
    audits every mutation (the ``repro check --audit`` setting), larger
    values sample.  Audits raise
    :exc:`AuditError` on the first violated invariant.
    """

    def __init__(
        self,
        calendar: "AvailabilityCalendar",
        stride: int = 1,
        conservation: bool = True,
    ) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.calendar = calendar
        self.stride = stride
        self.conservation = conservation
        self.mutations = 0
        self.audits_run = 0
        self._busy: list[list[tuple[float, float]]] = [
            [] for _ in range(calendar.n_servers)
        ]
        self._orig_allocate = calendar.allocate
        self._orig_release = calendar.release
        self._orig_advance = calendar.advance
        self._orig_add_servers = calendar.add_servers
        self._orig_remove = calendar.remove
        calendar.allocate = self._allocate  # type: ignore[method-assign]
        calendar.release = self._release  # type: ignore[method-assign]
        calendar.advance = self._advance  # type: ignore[method-assign]
        calendar.add_servers = self._add_servers  # type: ignore[method-assign]
        calendar.remove = self._remove  # type: ignore[method-assign]

    def detach(self) -> None:
        """Restore the calendar's unwrapped methods."""
        cal = self.calendar
        for name in ("allocate", "release", "advance", "add_servers", "remove"):
            if name in cal.__dict__:
                del cal.__dict__[name]

    # -- wrapped mutations ---------------------------------------------

    def _allocate(self, periods: list[IdlePeriod], start: float, end: float) -> tuple[int, ...]:
        servers = self._orig_allocate(periods, start, end)
        for server in servers:
            insort(self._busy[server], (start, end))
        self._after_mutation()
        return servers

    def _release(self, server: int, start: float, end: float) -> None:
        self._orig_release(server, start, end)
        self._subtract_busy(server, start, end)
        self._after_mutation()

    def _advance(self, to_time: float) -> None:
        self._orig_advance(to_time)
        self._after_mutation()

    def _add_servers(self, count: int) -> list[int]:
        new_ids = self._orig_add_servers(count)
        # a joined server's ledger starts empty: its timeline begins at
        # its trailing idle period's start, so tiling holds from day one
        for _ in new_ids:
            self._busy.append([])
        self._after_mutation()
        return new_ids

    def _remove(self, server: int) -> bool:
        changed = self._orig_remove(server)
        if changed:
            # the calendar verified the server was drained; its ledger is
            # history-only now and the server is exempt from tiling
            self._busy[server] = []
        self._after_mutation()
        return changed

    def _subtract_busy(self, server: int, start: float, end: float) -> None:
        """Remove ``[start, end)`` from the recorded busy intervals."""
        out: list[tuple[float, float]] = []
        for lo, hi in self._busy[server]:
            if hi <= start or lo >= end:  # disjoint
                out.append((lo, hi))
                continue
            if lo < start:
                out.append((lo, start))
            if end < hi:
                out.append((end, hi))
        self._busy[server] = out

    # -- auditing -------------------------------------------------------

    def _after_mutation(self) -> None:
        self.mutations += 1
        if self.mutations % self.stride == 0:
            self.audit_now()

    def audit_now(self) -> None:
        """Run the full structural + conservation audit; raise on findings."""
        self.audits_run += 1
        findings = audit_calendar(self.calendar)
        if self.conservation:
            findings.extend(self.conservation_findings())
        if findings:
            raise AuditError(findings)

    def conservation_findings(self) -> list[AuditFinding]:
        """RA114: idle periods + recorded busy intervals tile each server's
        timeline exactly, from the trim cutoff (horizon start) to infinity.

        Elastic-pool aware: a server that joined mid-run tiles from its
        join time (its ledger and idle list both start there — the
        pairwise-continuity check needs no explicit start bound), a
        draining server tiles like any other (its commitments are still
        honored), and a removed server is exempt (its timeline ended).
        """
        findings: list[AuditFinding] = []
        cal = self.calendar
        cutoff = cal.horizon_start
        # drain/remove may race an attach-time sizing in external callers;
        # grow defensively so a late-joined server is always ledgered
        while len(self._busy) < cal.n_servers:
            self._busy.append([])
        for server in range(cal.n_servers):
            where = f"server {server}"
            if cal._status[server] == "removed":
                continue
            # prune intervals the calendar itself has trimmed away
            busy = [iv for iv in self._busy[server] if iv[1] > cutoff]
            self._busy[server] = busy
            segments = [
                (max(p.st, cutoff), p.et, "idle") for p in cal._server_periods[server] if p.et > cutoff
            ] + [(max(lo, cutoff), hi, "busy") for lo, hi in busy]
            segments.sort()
            if not segments:
                findings.append(
                    AuditFinding("RA114", where, "timeline empty: no idle or busy coverage")
                )
                continue
            for (alo, ahi, akind), (blo, bhi, bkind) in zip(segments, segments[1:]):
                if ahi > blo:
                    findings.append(
                        AuditFinding(
                            "RA114",
                            where,
                            f"{akind} [{alo}, {ahi}) overlaps {bkind} [{blo}, {bhi}) "
                            "(idle time double-booked)",
                        )
                    )
                elif ahi < blo:
                    findings.append(
                        AuditFinding(
                            "RA114",
                            where,
                            f"gap [{ahi}, {blo}) between {akind} and {bkind} segments "
                            "(idle time lost)",
                        )
                    )
            if segments[-1][1] != INF:
                findings.append(
                    AuditFinding(
                        "RA114",
                        where,
                        f"timeline ends at {segments[-1][1]}: the trailing idle "
                        "period (et=inf) is missing",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# deliberate corruption (self-tests and `repro check --inject`)
# ----------------------------------------------------------------------


def _pick_tree(
    cal: "AvailabilityCalendar", want: Callable[["TwoDimTree"], bool]
) -> "TwoDimTree":
    for tree in cal._trees.values():
        if want(tree):
            return tree
    raise LookupError("no slot tree in the calendar satisfies the corruption's needs")


def corrupt_size_field(cal: "AvailabilityCalendar") -> str:
    """Break the cached leaf count; the audit must report RA101."""
    tree = _pick_tree(cal, lambda t: len(t) >= 2)
    tree._count += 1
    return f"incremented cached count to {tree._count} in a tree of {len(tree._leaves)} leaves"


def corrupt_secondary_key(cal: "AvailabilityCalendar") -> str:
    """Drift a key of a materialised secondary index; the audit must
    report RA106 (and usually RA104)."""
    tree = _pick_tree(cal, lambda t: len(t) >= 2 and min(p.et for p in t.periods()) != INF)
    # a search over every leaf materialises the secondary of each mark
    tree.range_search(INF, -INF)
    sec = min(tree._secs.values())  # the one holding the earliest (finite) end
    et, uid = sec[0]
    sec[0] = (et + 1.0, uid)
    return f"drifted secondary key of uid {uid} from et={et} to et={et + 1.0}"


def corrupt_uid_map(cal: "AvailabilityCalendar") -> str:
    """Drop a uid-map entry; the audit must report RA105."""
    tree = _pick_tree(cal, lambda t: len(t) >= 1)
    uid = next(iter(tree._by_uid))
    del tree._by_uid[uid]
    return f"removed uid {uid} from the tree's uid map"


def corrupt_buffer(cal: "AvailabilityCalendar") -> str:
    """Buffer an insert of a stored period; the audit must report RA116."""
    tree = _pick_tree(cal, lambda t: len(t) >= 1)
    uid, period = next(iter(tree._by_uid.items()))
    tree._ins[uid] = period
    return f"buffered a second insert of stored uid {uid}"


#: corruption kinds exposed by ``repro check --inject``, mapped to the
#: audit check each one must trip
CORRUPTIONS: dict[str, tuple[Callable[["AvailabilityCalendar"], str], str]] = {
    "size": (corrupt_size_field, "RA101"),
    "seckey": (corrupt_secondary_key, "RA106"),
    "uidmap": (corrupt_uid_map, "RA105"),
    "buffer": (corrupt_buffer, "RA116"),
}
