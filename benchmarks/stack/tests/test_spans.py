import pytest

from spans import Tracer, totals


def test_self_time_is_duration_minus_direct_children():
    spans = [
        ["request", 0.0, 10.0, -1, 0],
        ["decide", 1.0, 8.0, 0, 0],  # child of request
        ["search", 2.0, 4.0, 1, 0],  # grandchild: counts against decide only
        ["search", 5.0, 6.0, 1, 0],
        ["encode", 8.5, 9.0, 0, 0],  # no children: self == total
    ]
    t = totals(spans)
    assert t["request"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 7.0 - 0.5}
    assert t["decide"] == {"calls": 1, "total_s": 7.0, "self_s": 7.0 - 2.0 - 1.0}
    assert t["search"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert t["encode"] == {"calls": 1, "total_s": 0.5, "self_s": 0.5}
    assert sum(entry["self_s"] for entry in t.values()) == pytest.approx(10.0)


class _Layer:
    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


def test_wrappers_nest_and_are_removed():
    original_outer, original_inner = _Layer.outer, _Layer.inner
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.wrap(_Layer, "inner", "layer.inner")
    tracer.request = 42
    assert _Layer().outer(3) == 7
    tracer.unwrap_all()
    assert _Layer.outer is original_outer and _Layer.inner is original_inner
    (outer, inner) = tracer.spans
    assert outer[0] == "layer.outer" and outer[3] == -1 and outer[4] == 42
    assert inner[0] == "layer.inner" and inner[3] == 0 and inner[4] == 42
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    assert _Layer().outer(3) == 7 and len(tracer.spans) == 2


def test_a_wrapper_closes_its_span_when_the_call_raises():
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        tracer.call("boom", lambda: 1 / 0)
    assert tracer.spans[0][2] >= tracer.spans[0][1] > 0.0
    assert tracer.begin("next")[3] == -1  # nothing left open
