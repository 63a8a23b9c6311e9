"""The correctness gate: every phase's replies against the in-process reference.

Three checks per phase, all on the replies in stream order:

* the **verdict digest** over (op, rid, ok, start, end, servers, attempts |
  probe count | cancel verdict) must equal the digest of the in-process
  reference replay of the same stream prefix;
* the server's ``status.accepted_checksum`` must equal
  :func:`repro.service.server.accepted_checksum` of what the client saw;
* a :class:`repro.service.loadgen.ShadowLedger` fed the client's view must
  report no violation (no double booking, no early start).

``REJECTED`` and ``NOT_FOUND`` are verdicts.  A reply without a valid
verdict (``BUSY``, ``INTERNAL``, a transport error, a missing reply) is a
failed operation; a phase that fails any of the three checks counts every
operation failed.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.service.loadgen import ShadowLedger
from repro.service.server import accepted_checksum


def verdict_line(message: dict[str, Any], reply: dict[str, Any] | None) -> str | None:
    """The digest line for one reply, or ``None`` when it carries no verdict."""
    op = message["op"]
    if reply is None or reply.get("op") != op:
        return None
    if op == "probe":
        return f"probe:{reply['count']}" if reply.get("ok") else None
    rid = message["rid"]
    if reply.get("rid") != rid:
        return None
    if reply.get("ok"):
        if op == "cancel":
            return f"cancel:{rid}:ok"
        return (
            f"reserve:{rid}:ok:{reply['start']}:{reply['end']}:"
            f"{reply['servers']}:{reply['attempts']}"
        )
    error = reply.get("error") or {}
    if op == "cancel" and error.get("code") == "NOT_FOUND":
        return f"cancel:{rid}:NOT_FOUND"
    if op == "reserve" and error.get("code") == "REJECTED":
        return f"reserve:{rid}:REJECTED:{error['reason']}:{error['attempts']}"
    return None


def digest(lines: list[str | None]) -> str:
    sha = hashlib.sha256()
    for line in lines:
        sha.update(f"{line}\n".encode())
    return sha.hexdigest()[:16]


def check_phase(
    phase: str,
    stream: list[dict[str, Any]],
    replies: list[dict[str, Any] | None],
    reference: list[str | None],
    status: dict[str, Any],
) -> tuple[int, list[str]]:
    """``(failed operations, problems)`` for one phase over ``stream``."""
    count = len(stream)
    lines = [verdict_line(m, r) for m, r in zip(stream, replies)]
    lines += [None] * (count - len(lines))  # replies that never came
    failed = sum(line is None for line in lines)
    problems = []
    if digest(lines) != digest(reference[:count]):
        first = next(i for i in range(count) if lines[i] != reference[i])
        problems.append(
            f"{phase}: verdict digest differs from the reference, first at "
            f"#{first}: got {lines[first]!r}, expected {reference[first]!r}"
        )
    ledger = ShadowLedger()
    accepted: dict[int, dict[str, Any]] = {}
    for message, reply in zip(stream, replies):
        if reply is None or not reply.get("ok"):
            continue
        if message["op"] == "reserve":
            accepted[message["rid"]] = reply
            ledger.record(
                message["rid"], message["sr"], reply["start"], reply["end"], reply["servers"]
            )
        elif message["op"] == "cancel":
            ledger.release(message["rid"])
    if ledger.violations:
        problems.append(f"{phase}: shadow ledger: {ledger.violations[0]}")
    if status.get("accepted_checksum") != accepted_checksum(accepted):
        problems.append(
            f"{phase}: status.accepted_checksum {status.get('accepted_checksum')!r} "
            f"!= client view {accepted_checksum(accepted)!r}"
        )
    return (count if problems else failed), problems
