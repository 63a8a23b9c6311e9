"""Backpressure: bounded admission, BUSY + retry_after, overload bursts."""

import asyncio
import json

import pytest

from repro.errors import BusyError
from repro.service.admission import AdmissionController
from repro.service.protocol import encode

from .harness import reserve_msg, start_service


class TestAdmissionController:
    def test_depth_bound_sheds(self):
        ctrl = AdmissionController(max_depth=3, max_delay=1e9)
        for _ in range(3):
            ctrl.admit()
        with pytest.raises(BusyError) as excinfo:
            ctrl.admit()
        assert ctrl.depth == 3 and ctrl.shed == 1
        assert excinfo.value.payload()["retry_after"] > 0

    def test_delay_budget_sheds_before_depth(self):
        # 1ms EWMA x 3 queued = 3ms expected wait > 2ms budget
        ctrl = AdmissionController(max_depth=1000, max_delay=0.002, initial_service=0.001)
        for _ in range(3):
            ctrl.admit()
        with pytest.raises(BusyError, match="delay budget") as excinfo:
            ctrl.admit()
        assert excinfo.value.retry_after >= ctrl.expected_wait() - 1e-9

    def test_release_folds_service_time_into_ewma(self):
        ctrl = AdmissionController(max_depth=10, ewma_alpha=0.5, initial_service=0.0)
        ctrl.admit()
        ctrl.release(0.010)
        assert ctrl.service_ewma == pytest.approx(0.005)
        ctrl.admit()
        ctrl.release(0.010)
        assert ctrl.service_ewma == pytest.approx(0.0075)

    def test_release_without_admit_is_a_bug(self):
        with pytest.raises(RuntimeError):
            AdmissionController().release()

    def test_shed_burst_does_not_poison_the_service_ewma(self):
        """Regression: a BUSY-shed request never entered service, so it
        must not be folded into the service-time average — a 10x shed
        burst used to drag the EWMA (and with it retry_after and the
        delay-budget gate) toward garbage."""
        ctrl = AdmissionController(max_depth=4, max_delay=1e9, ewma_alpha=0.3)
        # warm the EWMA with real served requests
        for _ in range(5):
            ctrl.admit()
            ctrl.release(0.010, queue_delay=0.002)
        service_before = ctrl.service_ewma
        delay_before = ctrl.queue_delay_ewma
        # fill the queue, then a 10x shed burst
        for _ in range(4):
            ctrl.admit()
        sheds = 0
        for _ in range(40):
            with pytest.raises(BusyError):
                ctrl.admit()
            sheds += 1
        assert sheds == 40
        assert ctrl.service_ewma == service_before
        assert ctrl.queue_delay_ewma == delay_before
        assert ctrl.shed_rate > 0.9  # the overload is visible to the autoscaler
        # served traffic afterwards still folds in normally
        ctrl.release(0.010, queue_delay=0.002)
        assert ctrl.service_ewma != service_before

    def test_telemetry_surfaces_autoscaler_signals(self):
        ctrl = AdmissionController(max_depth=2, max_delay=1e9, ewma_alpha=0.5)
        ctrl.admit()
        ctrl.release(0.020, queue_delay=0.010)
        telemetry = ctrl.telemetry()
        assert telemetry["queue_delay_ewma"] == pytest.approx(0.005)
        assert telemetry["admitted"] == 1
        assert telemetry["shed"] == 0
        assert 0.0 <= telemetry["shed_rate"] < 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_depth": 0},
            {"max_delay": 0.0},
            {"ewma_alpha": 1.5},
            {"retry_floor": 0.0},
            {"retry_jitter": -0.1},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionController(**kwargs)

    def test_retry_after_floored_when_ewma_is_cold(self):
        # a brand-new server with zero service history: the drain
        # estimate is exactly 0.0 and must not be answered verbatim
        ctrl = AdmissionController(max_depth=8, initial_service=0.0)
        assert ctrl.expected_wait() == 0.0
        assert ctrl.retry_after() >= ctrl.retry_floor > 0.0

    def test_shed_burst_never_yields_zero_retry_after(self):
        ctrl = AdmissionController(
            max_depth=4, max_delay=1e9, initial_service=0.0, jitter_seed=7
        )
        for _ in range(4):
            ctrl.admit()
        retry_afters = []
        for _ in range(200):
            with pytest.raises(BusyError) as excinfo:
                ctrl.admit()
            retry_afters.append(excinfo.value.retry_after)
        assert min(retry_afters) >= ctrl.retry_floor
        # jitter spreads the burst instead of answering one constant
        assert len(set(retry_afters)) > 1

    def test_retry_after_covers_the_drain_estimate(self):
        ctrl = AdmissionController(max_depth=1000, max_delay=1e9, initial_service=0.5)
        for _ in range(10):
            ctrl.admit()
        assert ctrl.retry_after() >= ctrl.expected_wait()

    def test_jitter_is_seed_deterministic(self):
        a = AdmissionController(jitter_seed=42)
        b = AdmissionController(jitter_seed=42)
        assert [a.retry_after() for _ in range(5)] == [b.retry_after() for _ in range(5)]


def test_slow_consumer_burst_sheds_and_bounds_queue():
    """10x overload against a stalled actor: depth stays at the bound,
    everything beyond it gets a typed BUSY with retry_after."""
    bound = 8
    burst = 10 * bound

    async def scenario():
        service = await start_service(max_queue=bound, max_delay=1e9)
        # the slowest possible consumer: stop the actor entirely
        service._actor_task.cancel()
        try:
            await service._actor_task
        except asyncio.CancelledError:
            pass

        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in range(burst)]
        for i, future in enumerate(futures):
            service._ingest(encode(reserve_msg(i, 0.0, 5.0, 1)), future)

        # the queue never exceeds its configured bound
        assert service._queue.qsize() == bound
        assert service.admission.depth == bound

        shed = [f for f in futures if f.done()]
        assert len(shed) == burst - bound
        for future in shed:
            response = json.loads(future.result())
            error = response["error"]
            assert response["ok"] is False
            assert error["code"] == "BUSY" and error["exit_code"] == 6
            assert error["retry_after"] > 0
        assert service.admission.shed == burst - bound
        assert service.metrics.shed == burst - bound

        # restart the consumer: the admitted prefix is served FIFO
        service._actor_task = asyncio.create_task(service._actor_loop())
        served = [json.loads(reply) for reply in await asyncio.gather(*futures[:bound])]
        assert [r["rid"] for r in served] == list(range(bound))
        assert all(r["ok"] for r in served)
        assert service.admission.depth == 0
        await service.stop()

    asyncio.run(scenario())


def test_busy_over_tcp_when_delay_budget_is_exhausted():
    """End to end: a server whose delay budget is already blown sheds on
    the wire.  The actor is stalled while a pipelined burst is ingested,
    so the outcome is exact, not a race: with a 1ns budget and a 0.5ms
    service-time prior, the first request is admitted (expected wait 0)
    and every later one must get BUSY."""

    async def scenario():
        service = await start_service(max_queue=4, max_delay=1e-9)
        service._actor_task.cancel()
        try:
            await service._actor_task
        except asyncio.CancelledError:
            pass

        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        n = 40
        for i in range(n):
            writer.write(encode(reserve_msg(i, 0.0, 1.0, 1)))
        await writer.drain()

        # yield to the connection handler until the whole burst has been
        # admitted or shed (no wall-clock: the data is already buffered,
        # so this settles in a bounded number of loop turns)
        for _ in range(10_000):
            if service.admission.depth + service.admission.shed >= n:
                break
            await asyncio.sleep(0)
        assert service.admission.depth + service.admission.shed == n

        # restart the consumer: the single admitted request gets served
        service._actor_task = asyncio.create_task(service._actor_loop())
        responses = []
        for _ in range(n):
            raw = await reader.readline()
            assert raw
            responses.append(json.loads(raw))
        writer.close()

        busy = [r for r in responses if (r.get("error") or {}).get("code") == "BUSY"]
        served = [r for r in responses if r.get("ok")]
        assert len(responses) == n  # every request gets exactly one response
        assert len(busy) == n - 1
        assert [r["rid"] for r in served] == [0]
        for response in busy:
            assert response["error"]["retry_after"] > 0
        assert service.admission.shed == n - 1
        await service.stop()

    asyncio.run(scenario())
