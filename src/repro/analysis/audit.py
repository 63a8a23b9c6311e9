"""Deep structural invariant audits for the core data structures.

This module is the machine-checked statement of what "correct" means for
the calendar machinery — the enhanced red-black-tree literature's lesson
is that reservation data structures live or die by exactly these checks.
Every invariant carries a stable ID so tests (and humans reading a test
failure) can tell a stale cached summary from a desynchronized secondary
index:

Per-tree (``audit_tree``):

* ``RA101`` — the tree's cached latest ending time agrees with its
  leaves;
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
authoritative lists — so a test that audits after every operation walks
exactly the buffer states an unaudited run does.

Cross-calendar (``audit_calendar``, which also audits every slot tree):

* ``RA111`` — per-server idle periods are non-empty, sorted, pairwise
  disjoint and carry the right server id; every non-removed server's
  list ends in its one unbounded period;
* ``RA112`` — every bounded period is indexed (stored or buffered) in
  exactly the slot trees it overlaps (and unbounded ones never leak
  into trees: they live in the tail index);
* ``RA113`` — the horizon is arithmetic: every bounded period of an
  active server ends inside it, no tree sits outside it, and the tree
  that unwritten slots are read through is empty;
* ``RA115`` — the tail index is sorted, its parallel arrays agree, and
  it holds exactly the live unbounded periods.

Conservation — each server's idle periods tile the time it has not
given away — needs to know what was allocated, which the calendar does
not keep.  The tests check it against their own record of grants
(``tests/property/test_calendar_properties.py``'s partition property),
and the differential fuzzer against the reference oracle's idle state
(DESIGN.md §27); ``RA114``, the ledger that once checked it here, is
retired.

The core ``validate()`` methods delegate here; :exc:`AuditError`
subclasses :exc:`AssertionError` so existing callers keep working.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.types import INF, IdlePeriod

if TYPE_CHECKING:  # imported lazily at runtime to keep core import-light
    from ..core.calendar import AvailabilityCalendar
    from ..core.slot_tree import TwoDimTree

__all__ = [
    "AUDIT_CHECK_IDS",
    "AuditError",
    "AuditFinding",
    "audit_calendar",
    "audit_tree",
]

#: every check id the audit engine can report (documented above and in
#: ``docs/analysis.md``); the lint pass treats these as known RA ids
AUDIT_CHECK_IDS = frozenset(
    {
        "RA101", "RA103", "RA104", "RA105", "RA106",
        "RA111", "RA112", "RA113", "RA115", "RA116",
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
    as ``(st, uid, et)`` sorted ascending, ``_max_et`` caches its
    latest ending time, and ``_secs`` maps each node
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

    # RA111: authoritative per-server lists
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
