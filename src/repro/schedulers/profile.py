"""Scheduler profiles: availability bookkeeping and runtime profiling.

Two distinct meanings of "profile" live here:

* :class:`AvailabilityProfile` — a step function ``t -> free processors``
  over ``[now, ∞)``, the standard bookkeeping structure of backfilling
  batch schedulers: EASY uses it to compute the queue head's *shadow
  time*, conservative backfilling gives every queued job a reservation in
  it.  Represented as a list of ``[time, free]`` breakpoints, ``free``
  holding from its breakpoint until the next; the list always starts at
  the current time and ends with a breakpoint whose ``free`` persists
  forever.

* :func:`profile_call` / :class:`ProfileReport` — cProfile-based runtime
  attribution for the scheduling hot path, behind
  ``benchmarks/bench_hotpath.py --profile``.  When a future change slows
  replay down, the per-function cumulative times pin the regression to a
  code path instead of a wall-clock delta.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["AvailabilityProfile", "ProfileReport", "profile_call"]


@dataclass(slots=True)
class ProfileReport:
    """Outcome of one profiled call."""

    #: return value of the profiled function
    result: Any
    #: the raw profiler, for callers that want custom pstats queries
    profiler: cProfile.Profile

    def stats_text(self, sort: str = "cumulative", limit: int = 25) -> str:
        """The top ``limit`` entries of the pstats table as text."""
        buffer = io.StringIO()
        stats = pstats.Stats(self.profiler, stream=buffer)
        stats.strip_dirs().sort_stats(sort).print_stats(limit)
        return buffer.getvalue()

    def dump(self, path: str) -> None:
        """Write the binary profile for ``snakeviz``/``pstats`` post-mortems."""
        self.profiler.dump_stats(path)


def profile_call(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> ProfileReport:
    """Run ``fn(*args, **kwargs)`` under cProfile and return both outcomes."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    return ProfileReport(result=result, profiler=profiler)


class AvailabilityProfile:
    """Step function of free processors with reservation support."""

    def __init__(self, n_total: int, now: float = 0.0) -> None:
        if n_total <= 0:
            raise ValueError(f"need at least one processor, got {n_total}")
        self.n_total = n_total
        # breakpoints: parallel arrays, times strictly increasing
        self._times: list[float] = [float(now)]
        self._free: list[int] = [n_total]

    @property
    def now(self) -> float:
        return self._times[0]

    def free_at(self, t: float) -> int:
        """Free processors at time ``t`` (>= profile start)."""
        if t < self._times[0]:
            raise ValueError(f"{t} precedes profile start {self._times[0]}")
        return self._free[bisect_right(self._times, t) - 1]

    def _ensure_breakpoint(self, t: float) -> int:
        """Make ``t`` a breakpoint; returns its index."""
        idx = bisect_right(self._times, t) - 1
        if self._times[idx] == t:
            return idx
        self._times.insert(idx + 1, t)
        self._free.insert(idx + 1, self._free[idx])
        return idx + 1

    def reserve(self, start: float, end: float, n: int) -> None:
        """Subtract ``n`` processors over ``[start, end)``.

        Raises ``RuntimeError`` if that would drive any step negative —
        callers must check with :meth:`fits` or :meth:`earliest_fit`.
        """
        if not start < end:
            raise ValueError(f"reservation window [{start}, {end}) is empty")
        if start < self._times[0]:
            raise ValueError(f"reservation starts before profile start ({start})")
        lo = self._ensure_breakpoint(start)
        hi = self._ensure_breakpoint(end)
        for i in range(lo, hi):
            if self._free[i] < n:
                raise RuntimeError(
                    f"reserving {n} processors over [{start}, {end}) exceeds availability "
                    f"({self._free[i]} free at {self._times[i]})"
                )
        for i in range(lo, hi):
            self._free[i] -= n

    def fits(self, start: float, duration: float, n: int) -> bool:
        """True when ``n`` processors are free throughout ``[start, start+duration)``."""
        end = start + duration
        idx = bisect_right(self._times, start) - 1
        if idx < 0:
            return False
        while idx < len(self._times) and self._times[idx] < end:
            if self._free[idx] < n:
                return False
            idx += 1
        return True

    def earliest_fit(self, after: float, duration: float, n: int) -> float:
        """Earliest ``t >= after`` with ``n`` processors free for ``duration``.

        Always succeeds for ``n <= n_total`` because the profile's final
        step persists forever.
        """
        if n > self.n_total:
            raise ValueError(f"no fit possible: {n} > {self.n_total} processors")
        t = max(after, self._times[0])
        idx = bisect_right(self._times, t) - 1
        while True:
            # find the first step at/after t with enough processors
            while self._free[idx] < n:
                idx += 1
            start = max(t, self._times[idx])
            # check the window [start, start+duration)
            end = start + duration
            j = idx
            good = True
            while j < len(self._times) and self._times[j] < end:
                if self._free[j] < n:
                    good = False
                    break
                j += 1
            if good:
                return start
            idx = j  # restart the scan at the violating breakpoint

    def advance(self, now: float) -> None:
        """Drop history before ``now``; the profile then starts at ``now``."""
        if now < self._times[0]:
            raise ValueError(f"cannot move profile start backwards to {now}")
        idx = bisect_right(self._times, now) - 1
        if idx > 0:
            del self._times[:idx]
            del self._free[:idx]
        self._times[0] = now

    def steps(self) -> list[tuple[float, int]]:
        """A copy of the breakpoints, for inspection and tests."""
        return list(zip(self._times, self._free))

    def validate(self) -> None:
        """Invariants: increasing times, 0 <= free <= n_total."""
        for a, b in zip(self._times, self._times[1:]):
            assert a < b, f"breakpoints not increasing: {a} >= {b}"
        for t, f in zip(self._times, self._free):
            assert 0 <= f <= self.n_total, f"free count {f} out of range at {t}"
