"""Seeded request-stream generator for the differential fuzzer.

A *stream* is a scheduler configuration plus an ordered list of
operations (plain dicts, JSON-ready):

* ``{"kind": "reserve", "rid", "qr", "sr", "lr", "nr"[, "deadline"]}``
* ``{"kind": "probe", "ta", "tb"}``
* ``{"kind": "cancel", "rid"}``
* ``{"kind": "restore"}`` — snapshot the production scheduler through
  the real JSON round-trip and rebuild it (the oracle is untouched; a
  behavioral difference after restore is a restart-identity bug).
* scale events (opt-in via ``generate_stream(..., scale_events=True)``):
  ``{"kind": "add_servers", "count", "qr"}``, ``{"kind": "drain",
  "server", "qr"}``, ``{"kind": "remove", "server", "qr"}`` and
  ``{"kind": "pool_status", "qr"}`` — runtime pool mutations interleaved
  with the request traffic.  Drains and removes deliberately target
  servers in *any* lifecycle state so the refusal verdicts (``MALFORMED``
  out-of-range, ``CONFLICT`` illegal transition) are differentially
  checked alongside the successes.

Profiles shape the workload: system size, slot length τ (integral or
fractional), reservation mix ρ (advance-reservation pressure), cancel
and probe rates, deadline frequency, and *alignment* — the probability
that times are exact ``k·τ`` float products, which manufactures the
equal-end-key ties and slot-boundary values the slot trees find hardest.

Generation is a pure function of ``(profile, seed, ops)``: the same
triple always yields the same stream, so every fuzz run is replayable
from its report alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Profile", "PROFILES", "Stream", "generate_stream"]


@dataclass(frozen=True)
class Profile:
    """Knobs for one workload shape (see ``PROFILES``)."""

    name: str
    n_servers: int
    tau: float
    q_slots: int
    delta_t: float | None = None
    r_max: int | None = None
    #: op-kind mix (reserve weight is the remainder to 1.0)
    p_probe: float = 0.12
    p_cancel: float = 0.18
    p_restore: float = 0.03
    #: inter-submission gap, in units of tau (uniform in [0, 2*gap_tau])
    gap_tau: float = 0.3
    #: advance-reservation offset sr - qr, in units of tau (0..adv_tau)
    adv_tau: float = 3.0
    #: duration range in units of tau
    lr_min_tau: float = 0.4
    lr_max_tau: float = 3.0
    #: spatial size range (may exceed n_servers to exercise rejects)
    nr_max: int = 8
    p_deadline: float = 0.15
    #: deadline slack beyond sr + lr, in units of tau (0..slack_tau)
    slack_tau: float = 2.0
    #: probability a generated time/duration snaps to an exact k*tau product
    align: float = 0.3
    #: scale-event probability when ``generate_stream(..., scale_events=True)``
    #: (the flag is the opt-in; this knob only sets the mix)
    p_scale: float = 0.04
    #: never grow the pool past scale_cap * n_servers
    scale_cap: float = 2.0
    description: str = ""


PROFILES: dict[str, Profile] = {
    "dense": Profile(
        name="dense",
        n_servers=24,
        tau=10.0,
        q_slots=16,
        p_probe=0.10,
        p_cancel=0.22,
        p_restore=0.03,
        gap_tau=0.15,
        adv_tau=4.0,
        lr_min_tau=0.5,
        lr_max_tau=3.0,
        nr_max=10,
        p_deadline=0.15,
        align=0.3,
        description="high load, frequent cancels: deep per-server timelines",
    ),
    "sparse": Profile(
        name="sparse",
        n_servers=6,
        tau=7.5,
        q_slots=10,
        p_probe=0.20,
        p_cancel=0.15,
        p_restore=0.04,
        gap_tau=1.2,
        adv_tau=7.0,
        lr_min_tau=1.0,
        lr_max_tau=5.0,
        nr_max=8,
        p_deadline=0.35,
        slack_tau=4.0,
        align=0.2,
        description="small system, horizon pressure: deadline/horizon/exhausted paths",
    ),
    "ties": Profile(
        name="ties",
        n_servers=16,
        tau=0.3,
        q_slots=24,
        p_probe=0.14,
        p_cancel=0.20,
        p_restore=0.04,
        gap_tau=0.8,
        adv_tau=6.0,
        lr_min_tau=1.0,
        lr_max_tau=4.0,
        nr_max=8,
        p_deadline=0.20,
        slack_tau=3.0,
        align=1.0,
        description="fractional tau, fully slot-aligned times: equal-end-key "
        "ties and boundary floats everywhere",
    ),
    "fine-grid": Profile(
        name="fine-grid",
        n_servers=10,
        tau=10.0,
        q_slots=12,
        # Δt = τ/4 puts four retry points in every slot (the other profiles
        # run Δt = τ: one per slot); r_max keeps R_max·Δt = (Q/2)·τ
        delta_t=2.5,
        r_max=24,
        p_probe=0.10,
        p_cancel=0.20,
        p_restore=0.03,
        gap_tau=0.45,
        adv_tau=7.0,
        lr_min_tau=0.25,
        lr_max_tau=3.0,
        nr_max=8,
        p_deadline=0.25,
        slack_tau=2.0,
        align=0.5,
        description="retry increment a quarter slot: long ladders of "
        "same-slot grid points, half the times on exact boundaries",
    ),
}


@dataclass
class Stream:
    """One generated (or loaded) operation stream."""

    config: dict[str, Any]
    ops: list[dict[str, Any]]
    profile: str | None = None
    seed: int | None = None
    meta: dict[str, Any] = field(default_factory=dict)


def _aligned(rng: random.Random, profile: Profile, value_tau: float) -> float:
    """``value_tau`` (a time in units of tau) as a float time — snapped to
    an exact ``k*tau`` product with probability ``profile.align``.

    Boundary products are computed as ``k * tau`` — the same expression
    the calendar's slot arithmetic uses — so aligned streams place times
    bit-exactly on the boundaries the float-robust ``slot_of`` defends.
    """
    if rng.random() < profile.align:
        return round(value_tau) * profile.tau
    return value_tau * profile.tau


def _scale_event(
    rng: random.Random,
    profile: Profile,
    statuses: list[str],
    qr: float,
) -> dict[str, Any]:
    """One pool mutation against a locally tracked status model.

    ``statuses`` mirrors the pool optimistically (a ``remove`` is marked
    applied even though the real one may refuse with ``CONFLICT`` when
    the server is not yet drained) — mispredictions only shift the
    generation bias, never validity: refusals are verdicts the differ
    checks like any other result.  The active count *is* exact (add and
    drain are deterministic, and removed-vs-draining are both
    non-active), so the ≥1-active floor holds.
    """
    total = len(statuses)
    active = sum(1 for status in statuses if status == "active")
    cap = int(profile.scale_cap * profile.n_servers)
    roll = rng.random()
    if roll < 0.35 and total < cap:
        if rng.random() < 0.08:  # exercise the MALFORMED refusal
            return {"kind": "add_servers", "count": rng.choice((0, -1)), "qr": qr}
        count = rng.randint(1, min(3, cap - total))
        statuses.extend(["active"] * count)
        return {"kind": "add_servers", "count": count, "qr": qr}
    if roll < 0.65 and active > 1:
        if rng.random() < 0.08:  # out of range
            return {"kind": "drain", "server": total + rng.randint(0, 3), "qr": qr}
        server = rng.randrange(total)
        if statuses[server] != "removed":
            statuses[server] = "draining"
        return {"kind": "drain", "server": server, "qr": qr}
    if roll < 0.90 and total:
        draining = [s for s, status in enumerate(statuses) if status == "draining"]
        if draining and rng.random() < 0.7:
            server = rng.choice(draining)
        else:
            server = rng.randrange(total)
        if statuses[server] == "draining":
            statuses[server] = "removed"  # optimistic: may still be CONFLICT
        return {"kind": "remove", "server": server, "qr": qr}
    return {"kind": "pool_status", "qr": qr}


def generate_stream(
    profile: Profile | str, seed: int, ops: int, scale_events: bool = False
) -> Stream:
    """A deterministic stream of ``ops`` operations for ``(profile, seed)``.

    ``scale_events=False`` reproduces historic streams bit-exactly (no
    extra RNG draws); ``True`` interleaves pool mutations at the
    profile's ``p_scale`` rate.
    """
    if isinstance(profile, str):
        profile = PROFILES[profile]
    rng = random.Random(f"repro-fuzz:{profile.name}:{seed}")
    out: list[dict[str, Any]] = []
    issued: list[int] = []  # rids handed out so far (cancel targets)
    next_rid = 0
    clock_tau = 0.0  # submission clock, in units of tau
    statuses = ["active"] * profile.n_servers  # local pool model

    for _ in range(ops):
        if scale_events and rng.random() < profile.p_scale:
            clock_tau += rng.uniform(0.0, 2.0 * profile.gap_tau)
            qr = _aligned(rng, profile, clock_tau)
            out.append(_scale_event(rng, profile, statuses, qr))
            continue
        roll = rng.random()
        if issued and roll < profile.p_cancel:
            out.append({"kind": "cancel", "rid": rng.choice(issued)})
            continue
        if roll < profile.p_cancel + profile.p_probe:
            ta_tau = clock_tau + rng.uniform(0.0, profile.adv_tau)
            span_tau = rng.uniform(
                max(0.1, profile.lr_min_tau * 0.5), profile.lr_max_tau
            )
            ta = _aligned(rng, profile, ta_tau)
            tb = _aligned(rng, profile, ta_tau + span_tau)
            if not ta < tb:  # alignment can collapse the window
                tb = ta + profile.tau
            out.append({"kind": "probe", "ta": ta, "tb": tb})
            continue
        if roll < profile.p_cancel + profile.p_probe + profile.p_restore:
            out.append({"kind": "restore"})
            continue
        # reserve: advance the submission clock, then build the request
        clock_tau += rng.uniform(0.0, 2.0 * profile.gap_tau)
        qr = _aligned(rng, profile, clock_tau)
        adv_tau = rng.uniform(0.0, profile.adv_tau)
        sr = _aligned(rng, profile, clock_tau + adv_tau)
        if sr < qr:  # alignment may round sr below qr
            sr = qr
        lr_tau = rng.uniform(profile.lr_min_tau, profile.lr_max_tau)
        lr = _aligned(rng, profile, lr_tau)
        if lr <= 0:
            lr = profile.tau
        op: dict[str, Any] = {
            "kind": "reserve",
            "rid": next_rid,
            "qr": qr,
            "sr": sr,
            "lr": lr,
            "nr": rng.randint(1, profile.nr_max),
        }
        if rng.random() < profile.p_deadline:
            slack = _aligned(rng, profile, rng.uniform(0.0, profile.slack_tau))
            op["deadline"] = sr + lr + max(0.0, slack)
        issued.append(next_rid)
        next_rid += 1
        out.append(op)

    config = {
        "n_servers": profile.n_servers,
        "tau": profile.tau,
        "q_slots": profile.q_slots,
        "delta_t": profile.delta_t,
        "r_max": profile.r_max,
    }
    meta = {"scale_events": True} if scale_events else {}
    return Stream(config=config, ops=out, profile=profile.name, seed=seed, meta=meta)
