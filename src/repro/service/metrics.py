"""Per-request service telemetry.

The server records, for every operation that passes through the actor:
queue wait (admission to dequeue), service time (actor processing), and
the outcome class (accepted / rejected-by-reason / shed / malformed /
error).  Percentiles come from bounded sliding windows — a standing
server must not grow its telemetry without bound — and ``status``
responses render :meth:`ServiceMetrics.summary`, which the gateway's
``/metrics`` re-exports.
"""

from __future__ import annotations

import math
from collections import Counter, deque

__all__ = ["ReservoirWindow", "ServiceMetrics"]


class ReservoirWindow:
    """Bounded sample window with percentile queries (seconds in, ms out)."""

    def __init__(self, maxlen: int = 4096) -> None:
        self._samples: deque[float] = deque(maxlen=maxlen)
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        self._samples.append(seconds)
        self.count += 1
        self.total += seconds

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) over the window, milliseconds.

        Nearest-rank: the value at rank ``ceil(p/100 * n)`` (1-based),
        clamped to ``[1, n]`` so p=0 is the minimum, p=100 the maximum,
        a single-sample window always answers its lone sample, and an
        empty window answers 0.0 rather than indexing off the end.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        n = len(self._samples)
        if n == 0:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(n, max(1, math.ceil(p / 100.0 * n)))
        return ordered[rank - 1] * 1000.0

    def summary(self) -> dict[str, float]:
        mean_ms = (self.total / self.count * 1000.0) if self.count else 0.0
        return {
            "count": self.count,
            "mean_ms": round(mean_ms, 4),
            "p50_ms": round(self.percentile(50), 4),
            "p95_ms": round(self.percentile(95), 4),
            "p99_ms": round(self.percentile(99), 4),
        }


class ServiceMetrics:
    """Counters and latency windows for one server lifetime."""

    def __init__(self, window: int = 4096) -> None:
        self.service = ReservoirWindow(window)
        self.queue_wait = ReservoirWindow(window)
        self.ops: Counter[str] = Counter()
        self.accepted = 0
        self.rejected: Counter[str] = Counter()  # keyed by retry-policy reason
        self.replayed = 0  # duplicate rids answered from the decision log
        self.shed = 0
        self.malformed = 0
        self.errors = 0
        self.retries = 0  # scheduling attempts beyond the first, summed
        self.batches = 0
        self.batched_ops = 0
        self.max_batch = 0
        self.snapshots = 0

    # -- recording ------------------------------------------------------

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_ops += size
        if size > self.max_batch:
            self.max_batch = size

    def record_op(self, op: str, queue_wait: float, service: float) -> None:
        self.ops[op] += 1
        self.queue_wait.observe(queue_wait)
        self.service.observe(service)

    def record_accept(self, attempts: int) -> None:
        self.accepted += 1
        self.retries += max(0, attempts - 1)

    def record_reject(self, reason: str | None, attempts: int) -> None:
        self.rejected[reason or "unknown"] += 1
        self.retries += max(0, attempts - 1)

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict[str, object]:
        mean_batch = self.batched_ops / self.batches if self.batches else 0.0
        return {
            "ops": dict(self.ops),
            "accepted": self.accepted,
            "rejected": dict(self.rejected),
            "rejected_total": sum(self.rejected.values()),
            "replayed": self.replayed,
            "shed": self.shed,
            "malformed": self.malformed,
            "errors": self.errors,
            "retries": self.retries,
            "batches": self.batches,
            "mean_batch": round(mean_batch, 3),
            "max_batch": self.max_batch,
            "snapshots": self.snapshots,
            "service_latency": self.service.summary(),
            "queue_wait": self.queue_wait.summary(),
        }
