"""ReservoirWindow nearest-rank percentile semantics and edge cases."""

import pytest

from repro.service.metrics import ReservoirWindow, ServiceMetrics


class TestReservoirWindowPercentile:
    def test_empty_window_is_zero_not_an_index_error(self):
        window = ReservoirWindow()
        for p in (0, 50, 100):
            assert window.percentile(p) == 0.0

    def test_single_sample_answers_the_lone_sample_at_every_p(self):
        window = ReservoirWindow()
        window.observe(0.25)
        for p in (0, 1, 50, 99, 100):
            assert window.percentile(p) == pytest.approx(250.0)

    def test_nearest_rank_at_p0_p50_p100(self):
        window = ReservoirWindow()
        for seconds in (0.004, 0.001, 0.003, 0.002):  # sorted: 1, 2, 3, 4 ms
            window.observe(seconds)
        assert window.percentile(0) == pytest.approx(1.0)  # rank clamps to 1: min
        assert window.percentile(50) == pytest.approx(2.0)  # ceil(0.5 * 4) = rank 2
        assert window.percentile(100) == pytest.approx(4.0)  # rank n: max

    def test_nearest_rank_odd_window_median(self):
        window = ReservoirWindow()
        for seconds in (0.005, 0.001, 0.003, 0.002, 0.004):
            window.observe(seconds)
        assert window.percentile(50) == pytest.approx(3.0)  # ceil(2.5) = rank 3

    def test_out_of_range_p_rejected(self):
        window = ReservoirWindow()
        window.observe(0.001)
        with pytest.raises(ValueError):
            window.percentile(-1)
        with pytest.raises(ValueError):
            window.percentile(101)

    def test_window_is_bounded_but_count_is_total(self):
        window = ReservoirWindow(maxlen=4)
        for i in range(100):
            window.observe(float(i))
        assert window.count == 100
        # only the last 4 samples remain: min is 96 s -> 96000 ms
        assert window.percentile(0) == pytest.approx(96_000.0)
        assert window.percentile(100) == pytest.approx(99_000.0)


def test_service_metrics_summary_on_empty_windows():
    summary = ServiceMetrics().summary()
    assert summary["service_latency"]["p50_ms"] == 0.0
    assert summary["queue_wait"]["p99_ms"] == 0.0
    assert summary["service_latency"]["mean_ms"] == 0.0
