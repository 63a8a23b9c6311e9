"""Prometheus text exposition (format 0.0.4), stdlib only.

A tiny metric registry for the gateway's ``GET /metrics``: counters and
gauges with optional labels, plus a summary backed by the service's
bounded :class:`~repro.service.metrics.ReservoirWindow` so the exposed
``quantile`` series are the same nearest-rank reservoir percentiles the
TCP ``status`` op reports — one percentile implementation, two surfaces.
"""

from __future__ import annotations

import functools
from typing import Iterator

from ..service.metrics import ReservoirWindow

__all__ = ["Counter", "Gauge", "PromRegistry", "Summary"]

#: a series' labels as sorted ``(name, value)`` pairs
LabelKey = tuple[tuple[str, str], ...]


@functools.cache
def _label_key(**labels: str) -> LabelKey:
    """The key a metric files the series with these labels under.

    Sorted once per label set, not once per update.  The cache holds one
    entry per label set the metrics are given, which are the gateway's
    bounded vocabulary (its tenants, endpoints, reasons and quantiles).
    """
    return tuple(sorted(labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in labels)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return format(value, "g")


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text

    def header(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def samples(self) -> Iterator[str]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_Metric):
    """Monotone counter, optionally labelled (``inc(tenant="acme")``)."""

    kind = "counter"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(**labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(**labels), 0.0)

    def samples(self) -> Iterator[str]:
        if not self._values:
            yield f"{self.name} 0"
            return
        for key in sorted(self._values):
            yield f"{self.name}{_render_labels(key)} {_format_value(self._values[key])}"


class Gauge(_Metric):
    """Set-to-current-value metric, optionally labelled."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(**labels)] = float(value)

    def samples(self) -> Iterator[str]:
        if not self._values:
            yield f"{self.name} 0"
            return
        for key in sorted(self._values):
            yield f"{self.name}{_render_labels(key)} {_format_value(self._values[key])}"


class Summary(_Metric):
    """Reservoir-windowed summary: ``quantile`` series plus count and sum."""

    kind = "summary"

    def __init__(self, name: str, help_text: str, window: int = 4096) -> None:
        super().__init__(name, help_text)
        self._window = ReservoirWindow(window)

    def observe(self, seconds: float) -> None:
        self._window.observe(seconds)

    @property
    def count(self) -> int:
        return self._window.count

    def samples(self) -> Iterator[str]:
        for quantile in (0.5, 0.95, 0.99):
            millis = self._window.percentile(quantile * 100.0)
            yield (
                f'{self.name}{{quantile="{quantile:g}"}} '
                f"{_format_value(millis / 1000.0)}"
            )
        yield f"{self.name}_count {self._window.count}"
        yield f"{self.name}_sum {_format_value(self._window.total)}"


class PromRegistry:
    """Ordered metric registry; :meth:`render` is the ``/metrics`` body."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def counter(self, name: str, help_text: str) -> Counter:
        return self._register(Counter(name, help_text))

    def gauge(self, name: str, help_text: str) -> Gauge:
        return self._register(Gauge(name, help_text))

    def summary(self, name: str, help_text: str, window: int = 4096) -> Summary:
        return self._register(Summary(name, help_text, window))

    def _register(self, metric: _Metric) -> "_Metric | Counter | Gauge | Summary":
        if metric.name in self._metrics:
            raise ValueError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        return metric

    def render(self) -> str:
        lines: list[str] = []
        for metric in self._metrics.values():
            lines.extend(metric.header())
            lines.extend(metric.samples())
        return "\n".join(lines) + "\n"
