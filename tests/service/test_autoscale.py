"""The auto-scaler: the one policy, the message-planning driver, dry-run,
and the live service loop applying mutations through the actor."""

from __future__ import annotations

import asyncio

import pytest

from repro.facade import CoAllocationScheduler
from repro.service.autoscale import (
    AutoScaleConfig,
    AutoScaler,
    HysteresisPolicy,
    ScaleDecision,
)

from repro.service.protocol import validate_payload
from repro.service.state import ServiceState

from .harness import SMALL, rpc, start_service


def _telemetry(delay: float = 0.0, shed_rate: float = 0.0) -> dict:
    return {"queue_delay_ewma": delay, "shed_rate": shed_rate}


def _pool(active: int, draining: int = 0, removed: int = 0, drained=()) -> dict:
    servers = (
        ["active"] * active + ["draining"] * draining + ["removed"] * removed
    )
    return {
        "active": active,
        "draining": draining,
        "removed": removed,
        "total": len(servers),
        "servers": servers,
        "drain_progress": [
            {"server": s, "drained": s in drained}
            for s in range(active, active + draining)
        ],
    }


#: patience 1: every breach acts on the tick it is seen (the naive
#: threshold policy, as a setting of the one policy)
CONFIG = AutoScaleConfig(
    min_servers=1, max_servers=8, step=2,
    high_delay=0.5, low_delay=0.05, high_shed_rate=0.05, patience=1,
)


def _decide(telemetry: dict, pool: dict) -> ScaleDecision:
    return HysteresisPolicy(CONFIG).decide(telemetry, pool)


class TestThresholdsAtPatienceOne:
    def test_scales_out_on_delay_breach(self):
        assert _decide(_telemetry(delay=1.0), _pool(4)) == ScaleDecision(
            "up", 2, "queue_delay=1.0000s shed_rate=0.0000 above band"
        )

    def test_scales_out_on_shed_breach_alone(self):
        assert _decide(_telemetry(delay=0.0, shed_rate=0.5), _pool(4)) == ScaleDecision(
            "up", 2, "queue_delay=0.0000s shed_rate=0.5000 above band"
        )

    def test_scale_out_capped_at_max_servers(self):
        assert _decide(_telemetry(delay=1.0), _pool(7)) == ScaleDecision(
            "up", 1, "queue_delay=1.0000s shed_rate=0.0000 above band"
        )
        assert _decide(_telemetry(delay=1.0), _pool(8)) == ScaleDecision(
            "hold", 0, "overloaded but at max_servers"
        )

    def test_scales_in_when_idle(self):
        assert _decide(_telemetry(delay=0.01), _pool(4)) == ScaleDecision(
            "down", 1, "queue_delay=0.0100s below band, no shedding"
        )

    def test_never_drains_below_min_servers(self):
        assert _decide(_telemetry(delay=0.0), _pool(1)) == ScaleDecision(
            "hold", 0, "signals in band"
        )

    def test_holds_while_a_drain_is_in_progress(self):
        assert _decide(_telemetry(delay=1.0), _pool(4, draining=1)) == ScaleDecision(
            "hold", 0, "drain in progress"
        )

    def test_in_band_signals_hold(self):
        assert _decide(_telemetry(delay=0.2), _pool(4)) == ScaleDecision(
            "hold", 0, "signals in band"
        )


class TestHysteresisPolicy:
    def test_acts_only_after_patience_consecutive_breaches(self):
        config = AutoScaleConfig(patience=3, max_servers=8)
        policy = HysteresisPolicy(config)
        assert policy.decide(_telemetry(delay=1.0), _pool(4)).direction == "hold"
        assert policy.decide(_telemetry(delay=1.0), _pool(4)).direction == "hold"
        assert policy.decide(_telemetry(delay=1.0), _pool(4)).direction == "up"

    def test_one_calm_tick_resets_the_counter(self):
        config = AutoScaleConfig(patience=2, max_servers=8)
        policy = HysteresisPolicy(config)
        assert policy.decide(_telemetry(delay=1.0), _pool(4)).direction == "hold"
        assert policy.decide(_telemetry(delay=0.2), _pool(4)).direction == "hold"
        assert policy.decide(_telemetry(delay=1.0), _pool(4)).direction == "hold"

    def test_acting_resets_both_counters(self):
        config = AutoScaleConfig(patience=2, max_servers=8)
        policy = HysteresisPolicy(config)
        policy.decide(_telemetry(delay=1.0), _pool(4))
        assert policy.decide(_telemetry(delay=1.0), _pool(4)).direction == "up"
        # fresh evidence needed before the next action
        assert policy.decide(_telemetry(delay=1.0), _pool(6)).direction == "hold"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0.0},
            {"min_servers": 0},
            {"min_servers": 5, "max_servers": 4},
            {"step": 0},
            {"low_delay": 0.5, "high_delay": 0.5},
            {"high_shed_rate": 0.0},
            {"high_shed_rate": 1.5},
            {"patience": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AutoScaleConfig(**kwargs).validate()


class TestDriver:
    def test_scale_out_plans_one_add_servers(self):
        scaler = AutoScaler(AutoScaleConfig(patience=1, step=2, max_servers=8))
        decision, messages = scaler.plan(_telemetry(delay=1.0), _pool(4))
        assert decision.direction == "up"
        assert messages == [{"op": "add_servers", "count": 2, "aid": "autoscale-add-4"}]

    def test_scale_in_drains_the_highest_active_server(self):
        scaler = AutoScaler(AutoScaleConfig(patience=1, min_servers=1))
        decision, messages = scaler.plan(_telemetry(delay=0.0), _pool(4))
        assert decision.direction == "down"
        assert [m["op"] for m in messages] == ["drain"]
        assert messages[0]["server"] == 3

    def test_drained_servers_are_removed_regardless_of_decision(self):
        scaler = AutoScaler(AutoScaleConfig(patience=1))
        pool = _pool(4, draining=1, drained={4})
        decision, messages = scaler.plan(_telemetry(delay=0.2), pool)
        assert decision.direction == "hold"  # drain in progress
        assert messages == [{"op": "remove", "server": 4, "aid": "autoscale-remove-4"}]

    def test_a_restarted_scaler_still_grows_a_restored_pool(self):
        """The aid table survives a restart and the scaler's tick count
        does not: aids minted from ticks came back as replays."""
        config = AutoScaleConfig(patience=1, step=1, max_servers=16)
        state = ServiceState(CoAllocationScheduler(n_servers=4, tau=10.0, q_slots=8))

        def overloaded_tick(scaler: AutoScaler, state: ServiceState) -> list[bool]:
            _, messages = scaler.plan(
                _telemetry(delay=1.0), state.scheduler.pool_status()
            )
            assert [m["op"] for m in messages] == ["add_servers"]
            return [state.apply(m["op"], m)[1] for m in messages]

        scaler = AutoScaler(config)
        assert overloaded_tick(scaler, state) == [False]
        assert overloaded_tick(scaler, state) == [False]
        assert state.scheduler.pool_status()["active"] == 6

        restored, _ = ServiceState.from_snapshot(state.export(log_hwm=2))
        assert overloaded_tick(AutoScaler(config), restored) == [False]
        assert restored.scheduler.pool_status()["active"] == 7

    def test_scale_in_aids_name_the_server_only(self):
        scaler = AutoScaler(AutoScaleConfig(patience=1, min_servers=1))
        scaler.ticks = 41
        _, messages = scaler.plan(_telemetry(delay=0.0), _pool(4))
        assert [m["aid"] for m in messages] == ["autoscale-drain-3"]

    def test_dry_run_records_history_but_applies_nothing(self):
        scaler = AutoScaler(
            AutoScaleConfig(patience=1, step=1, max_servers=8, dry_run=True)
        )
        decision, messages = scaler.plan(_telemetry(delay=1.0), _pool(4))
        assert decision.direction == "up"
        assert messages == []
        assert scaler.history[-1]["dry_run"]
        assert scaler.summary()["dry_run"]


def test_messages_queued_past_the_socket_are_valid():
    """The scaler's plans and the server's own ``pool_status`` and
    ``shutdown`` go straight onto the actor queue, so ``decode_line``
    never sees them: each must still pass the registry's strict check."""
    scaler = AutoScaler(AutoScaleConfig(patience=1, step=2, min_servers=1, max_servers=8))
    ticks = [
        (_telemetry(delay=1.0), _pool(4)),  # up
        (_telemetry(delay=0.0), _pool(6)),  # down
        (_telemetry(delay=0.2), _pool(5, draining=1, drained={5})),  # drained removal
    ]
    planned = [m for telemetry, pool in ticks for m in scaler.plan(telemetry, pool)[1]]
    assert [m["op"] for m in planned] == ["add_servers", "drain", "remove"]
    for message in planned:
        assert validate_payload(message["op"], message) == message

    async def queued_by_the_server():
        service = await start_service(
            **SMALL, autoscale=AutoScaleConfig(patience=1, interval=0.01, dry_run=True)
        )
        seen = []
        put = service._queue.put

        async def spy(item):
            seen.append(item[0])
            # checked here too: a stop() whose message the actor refuses
            # would never return
            validate_payload(item[0]["op"], item[0])
            await put(item)

        service._queue.put = spy
        try:
            while not seen:
                await asyncio.sleep(0.01)
        finally:
            await service.stop()
        return seen

    internal = asyncio.run(asyncio.wait_for(queued_by_the_server(), 10.0))
    assert {m["op"] for m in internal} == {"pool_status", "shutdown"}
    for message in internal:
        assert validate_payload(message["op"], message) == message


def test_autoscale_loop_grows_a_live_pool():
    """End to end: shed pressure -> the service's autoscale loop plans an
    add_servers and applies it through the actor queue."""

    async def scenario():
        service = await start_service(
            **SMALL,
            autoscale=AutoScaleConfig(
                patience=1, interval=0.05, max_servers=4, step=2,
                high_delay=0.5, low_delay=1e-6, high_shed_rate=0.01,
            ),
        )
        try:
            # manufacture overload signals directly: the loop reads the
            # admission telemetry, so a poisoned EWMA is indistinguishable
            # from real queue pressure
            service.admission.queue_delay_ewma = 2.0
            service.admission.shed_rate = 0.5
            for _ in range(80):
                await asyncio.sleep(0.05)
                pool = await rpc(service.port, {"op": "pool_status"})
                if pool["total"] == 4:
                    break
            assert pool["total"] == 4, pool
            status = await rpc(service.port, {"op": "status"})
            assert status["autoscale"]["actions"] >= 1
            assert status["autoscale"]["patience"] == 1
        finally:
            await service.stop()

    asyncio.run(scenario())
