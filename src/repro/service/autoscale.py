"""Telemetry-driven auto-scaling for the elastic reservation pool.

The :class:`AutoScaler` closes the loop between the admission
controller's telemetry (:meth:`AdmissionController.telemetry
<repro.service.admission.AdmissionController.telemetry>` — queue-delay
EWMA and shed rate) and the pool admin ops (``add_servers`` / ``drain``
/ ``remove``).  It is deliberately split in two:

* the **policy** is a pure function of ``(telemetry, pool)`` — one
  :class:`ScaleDecision` per tick, no clocks, no IO, no internal
  state beyond its breach counters.  That makes it unit testable
  with hand-built telemetry dicts and keeps the decision logic out of
  the asyncio plumbing.
* the **driver** (:meth:`AutoScaler.plan`) turns a decision into
  concrete admin messages against a pool snapshot: scale-out becomes
  one ``add_servers``, scale-in drains the highest active server and
  removes already-drained ones.  In **dry-run** mode the planned
  messages are recorded and reported but never applied — the operator
  sees what the policy *would* do before trusting it with the pool.

One policy ships, :class:`HysteresisPolicy`: a breach is either
overload signal (queue delay or shed rate) above its high threshold, or
both signals below the low ones, and it must persist for ``patience``
consecutive ticks before the pool moves — ``step`` servers out, or one
server in.  Acting resets both counters, so the next action needs fresh
evidence.  ``patience=1`` acts on every breach: the naive threshold
policy that "A Theory of Auto-Scaling for Resource Reservation" expects
to oscillate, reachable by a setting rather than a second class.

The policy holds while a drain is already in progress: draining
servers still honor existing reservations, so stacking more drains on
a transient signal would amplify, not damp, the oscillation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "AutoScaleConfig",
    "AutoScaler",
    "HysteresisPolicy",
    "ScaleDecision",
]


@dataclass(slots=True)
class ScaleDecision:
    """One tick's verdict: ``direction`` is ``up``, ``down`` or ``hold``."""

    direction: str
    count: int
    reason: str

    def as_dict(self) -> dict[str, Any]:
        return {"direction": self.direction, "count": self.count, "reason": self.reason}


HOLD = ScaleDecision("hold", 0, "signals in band")


@dataclass(slots=True)
class AutoScaleConfig:
    """The scaler's knobs (see ``docs/service.md``)."""

    interval: float = 5.0  # seconds between ticks (driver-level)
    min_servers: int = 1
    max_servers: int = 4096
    step: int = 1  # servers per scale-out action (and per-tick cap)
    high_delay: float = 0.5  # queue-delay EWMA (s) above which we scale out
    low_delay: float = 0.05  # queue-delay EWMA (s) below which we may scale in
    high_shed_rate: float = 0.05  # shed-rate EWMA above which we scale out
    patience: int = 3  # consecutive breaching ticks before acting (1 = at once)
    dry_run: bool = False

    def validate(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"tick interval must be positive, got {self.interval}")
        if not 1 <= self.min_servers <= self.max_servers:
            raise ValueError(
                f"need 1 <= min_servers <= max_servers, got "
                f"[{self.min_servers}, {self.max_servers}]"
            )
        if self.step < 1:
            raise ValueError(f"scale step must be at least 1, got {self.step}")
        if not 0 < self.low_delay < self.high_delay:
            raise ValueError(
                f"need 0 < low_delay < high_delay, got "
                f"({self.low_delay}, {self.high_delay})"
            )
        if not 0 < self.high_shed_rate <= 1:
            raise ValueError(
                f"shed-rate threshold must be in (0, 1], got {self.high_shed_rate}"
            )
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")


# ----------------------------------------------------------------------
# the policy (pure: (telemetry, pool) -> ScaleDecision)
# ----------------------------------------------------------------------


class HysteresisPolicy:
    """Threshold scaling gated by consecutive-breach counters."""

    def __init__(self, config: AutoScaleConfig) -> None:
        self.config = config
        self._up_ticks = 0
        self._down_ticks = 0

    def _threshold(self, telemetry: dict[str, Any], pool: dict[str, Any]) -> ScaleDecision:
        """This tick's breach, before the patience gate."""
        config = self.config
        delay = float(telemetry.get("queue_delay_ewma", 0.0))
        shed_rate = float(telemetry.get("shed_rate", 0.0))
        active = int(pool["active"])
        if int(pool["draining"]) > 0:
            return ScaleDecision("hold", 0, "drain in progress")
        if delay > config.high_delay or shed_rate > config.high_shed_rate:
            if active >= config.max_servers:
                return ScaleDecision("hold", 0, "overloaded but at max_servers")
            count = min(config.step, config.max_servers - active)
            return ScaleDecision(
                "up",
                count,
                f"queue_delay={delay:.4f}s shed_rate={shed_rate:.4f} above band",
            )
        if delay < config.low_delay and shed_rate == 0.0 and active > config.min_servers:
            return ScaleDecision(
                "down", 1, f"queue_delay={delay:.4f}s below band, no shedding"
            )
        return HOLD

    def decide(self, telemetry: dict[str, Any], pool: dict[str, Any]) -> ScaleDecision:
        decision = self._threshold(telemetry, pool)
        if decision.direction == "up":
            self._down_ticks = 0
            self._up_ticks += 1
            if self._up_ticks < self.config.patience:
                return ScaleDecision(
                    "hold",
                    0,
                    f"overload breach {self._up_ticks}/{self.config.patience}",
                )
        elif decision.direction == "down":
            self._up_ticks = 0
            self._down_ticks += 1
            if self._down_ticks < self.config.patience:
                return ScaleDecision(
                    "hold",
                    0,
                    f"underload breach {self._down_ticks}/{self.config.patience}",
                )
        else:
            self._up_ticks = 0
            self._down_ticks = 0
            return decision
        # acting resets both counters: the next action needs fresh evidence
        self._up_ticks = 0
        self._down_ticks = 0
        return decision


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------


@dataclass(slots=True)
class AutoScaler:
    """Turns policy decisions into admin messages (or dry-run records).

    The scaler never touches a scheduler itself: :meth:`plan` returns
    plain admin wire messages for the caller to route through whatever
    decision path it already trusts (the service actor's queue, a test's
    facade).  ``history`` keeps the last ``history_limit`` non-hold
    decisions for the status surface.
    """

    config: AutoScaleConfig
    policy: HysteresisPolicy = field(init=False)
    ticks: int = 0
    actions: int = 0
    history: list[dict[str, Any]] = field(default_factory=list)
    history_limit: int = 32

    def __post_init__(self) -> None:
        self.config.validate()
        self.policy = HysteresisPolicy(self.config)

    def plan(
        self, telemetry: dict[str, Any], pool: dict[str, Any]
    ) -> tuple[ScaleDecision, list[dict[str, Any]]]:
        """One tick: decide, then translate into admin messages.

        ``pool`` is a ``pool_status`` response.  Scale-out is one
        ``add_servers``; scale-in drains the highest active server(s).
        Independently of the decision, any already-drained draining
        server is removed — finishing a scale-in is not gated on the
        policy still wanting one.

        Every aid is minted from pool state, never from :attr:`ticks`:
        the aid table rides in the snapshot while this object restarts
        from zero, so a tick-numbered aid would come back ``replayed``
        — and change nothing — after a restart.
        """
        self.ticks += 1
        messages: list[dict[str, Any]] = []
        for entry in pool.get("drain_progress", []):
            if entry.get("drained"):
                messages.append(
                    {
                        "op": "remove",
                        "server": int(entry["server"]),
                        "aid": f"autoscale-remove-{entry['server']}",
                    }
                )
        decision = self.policy.decide(telemetry, pool)
        if decision.direction == "up":
            messages.append(
                {
                    "op": "add_servers",
                    "count": decision.count,
                    # ids ever used: grows with every applied add
                    "aid": f"autoscale-add-{pool['total']}",
                }
            )
        elif decision.direction == "down":
            statuses = pool.get("servers", [])
            targets = [s for s, st in enumerate(statuses) if st == "active"]
            for server in reversed(targets[-decision.count :]):
                messages.append(
                    {
                        "op": "drain",
                        "server": server,
                        "aid": f"autoscale-drain-{server}",  # a server drains once
                    }
                )
        if decision.direction != "hold" or messages:
            self.actions += len(messages)
            self.history.append(
                {
                    "tick": self.ticks,
                    "decision": decision.as_dict(),
                    "messages": [dict(m) for m in messages],
                    "dry_run": self.config.dry_run,
                }
            )
            del self.history[: -self.history_limit]
        if self.config.dry_run:
            return decision, []
        return decision, messages

    def summary(self) -> dict[str, Any]:
        return {
            "patience": self.config.patience,
            "interval": self.config.interval,
            "dry_run": self.config.dry_run,
            "ticks": self.ticks,
            "actions": self.actions,
            "recent": self.history[-5:],
        }
