"""One yardstick for the request path: ``python3 benchmarks/stack/run.py``.

``--workload W --seed N --seconds S --trace 0`` boots real ``repro serve``
(and ``repro gateway``) processes, drives them from this one process over
one connection — a ``solo`` phase with one request in flight, then a
``closed32`` phase with 32 pipelined — checks every reply against the
in-process reference, and prints the end-to-end metrics.  ``--trace 1``
instead prints the per-layer metrics: the same stream walked in-process
under spans, plus what the running processes report about themselves
(``status``, ``/metrics``, ``/proc``) in short wire phases and one
open-loop ``paced`` phase.  The last line of stdout is the result as one
JSON object.  Without ``--workload`` every workload runs once end to end
and once traced, and the set is written to ``--out`` for ``compare.py``.

Metric names, units and regression bounds live in ``BENCHMARK.json`` at
the repository root; the workloads and their sizes in ``streams.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from typing import Any, Callable

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
sys.path.insert(0, str(_ROOT / "src"))

from repro.core.slot_tree import backend_info  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import inproc  # noqa: E402
import spans  # noqa: E402
import wire  # noqa: E402
from streams import WINDOW, WORKLOADS, Workload, build_stream  # noqa: E402

OUT = _HERE / "out"
SPEC = json.loads((_ROOT / "BENCHMARK.json").read_text())

#: how a run's ``--seconds`` are shared between its phases
SOLO_SHARE, CLOSED_SHARE = 0.6, 0.4
TRACE_SHARES = {"inproc": 0.12, "solo": 0.12, "closed": 0.12, "paced": 0.25}

#: a phase that runs this many times its share of the seconds is cut short
OVERRUN = 2.5

#: an end-to-end phase runs this many times, each time on fresh processes and
#: on its own part of the seed's stream; the median is reported and every
#: repeat is kept
REPEATS = 3

#: a closed-loop phase runs in this many chunks, a calibration between them
CHUNKS = 10


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, ceil(p / 100.0 * len(ordered)))) - 1]


def environment() -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "kernel_backend": backend_info(),
        "commit": commit or "unknown",
    }


@dataclass
class Clock:
    """What one wire phase took on one clock: as measured, or at reference speed."""

    wall_s: float = 0.0
    cpu_s: float = 0.0  # user+sys CPU of every system process
    latencies: list[float] = field(default_factory=list)


@dataclass
class Measured:
    """One wire phase on its own fresh processes."""

    count: int  # operations the phase set out to send
    phase: wire.Phase = field(default_factory=wire.Phase)  # the chunks' phases merged
    raw: Clock = field(default_factory=Clock)
    # chunk by chunk, divided by how much slower than the reference box the
    # CPU ran around the chunk (see calibrate.py)
    ref: Clock = field(default_factory=Clock)
    cpu_s: list[float] = field(default_factory=list)  # raw, per process (serve, gateway)
    status: dict[str, Any] = field(default_factory=dict)  # right after the last request
    gateway_metrics: str = ""  # the gateway's /metrics body ("" without a gateway)
    rss_mb: float = 0.0  # summed peak RSS of the processes
    error: str = ""  # the boot or transport error that ended the phase early


def median(values: list[float]) -> float:
    """0.0 only when no repeat of the phase survived, which the run reports as failed."""
    return statistics.median(values) if values else 0.0


class Run:
    """One workload, one seed: phases on fresh processes, then the checks."""

    def __init__(self, w: Workload, seed: int, seconds: float, repeats: int = REPEATS) -> None:
        self.w = w
        self.http = w.transport == "http"
        self.seed = seed
        self.seconds = seconds
        self.repeats = repeats
        self.work = OUT / f"work-{w.name}-{os.getpid()}"
        self.setups_raw: list[float] = []  # spawn → first status reply, per boot
        self.setups_ref: list[float] = []  # the same at reference speed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stream: list[dict[str, Any]] = []
        self.payloads: list[bytes] = []
        self.unchecked: list[tuple[str, Measured]] = []
        #: --trace 0: per metric, every repeat at reference speed and as measured
        self.repeat_values: dict[str, list[float]] = {}
        self.raw_values: dict[str, list[float]] = {}

    def build(self, count: int, part: int = 0) -> None:
        self.stream = build_stream(self.w, self.seed, count, part)
        self.payloads = [wire.payload(m, self.http) for m in self.stream]

    def wire_phase(
        self,
        label: str,
        drive: Callable[[wire.Connection, list[bytes], float], wire.Phase],
        count: int,
        share: float,
        chunks: int = CHUNKS,
    ) -> Measured:
        """Boot, ``drive`` the first ``count`` payloads in ``chunks``, scrape, stop.

        A boot that fails or a connection that dies ends the phase there: the
        error is kept, :meth:`check` counts every operation of the phase
        failed, and the run goes on to print its result.
        """
        measured = Measured(count)
        self.unchecked.append((label, measured))
        deadline = OVERRUN * share * self.seconds
        slowdown = calibrate.slowdown()
        sut = None
        try:
            sut = wire.Sut(self.http, self.work / label)
            now = calibrate.slowdown()
            self.setups_raw.append(sut.setup_s)
            self.setups_ref.append(sut.setup_s / ((slowdown + now) / 2))
            slowdown = now
            cpu_start = cpu = sut.cpu_seconds()
            phase, raw, ref = measured.phase, measured.raw, measured.ref
            step = ceil(count / chunks)
            for start in range(0, count, step):
                chunk = self.payloads[start : min(count, start + step)]
                part = drive(sut.connection, chunk, deadline - phase.wall_s)
                cpu_now, now = sut.cpu_seconds(), calibrate.slowdown()
                factor = (slowdown + now) / 2
                spent = sum(cpu_now) - sum(cpu)
                raw.cpu_s += spent
                ref.wall_s += part.wall_s / factor
                ref.cpu_s += spent / factor
                ref.latencies += [latency / factor for latency in part.latencies]
                cpu, slowdown = cpu_now, now
                phase.extend(part)
                if part.sent < len(chunk):
                    break  # over the time cap
            raw.wall_s, raw.latencies = phase.wall_s, phase.latencies
            measured.cpu_s = [b - a for a, b in zip(cpu_start, cpu)]
            measured.status = sut.connection.status()
            measured.gateway_metrics = sut.gateway_metrics() if self.http else ""
        except (OSError, RuntimeError) as error:  # transport error, timeout, failed boot
            measured.error = f"{type(error).__name__}: {error}"
        finally:
            if sut is not None:
                measured.rss_mb = sut.stop()
        print(
            f"{self.w.name} {label}: {len(measured.phase.replies)} replies in "
            f"{measured.phase.wall_s:.2f} s ({measured.ref.wall_s:.2f} s at reference speed)",
            file=sys.stderr,
        )
        return measured

    def check(self, reference: list[str | None]) -> None:
        """Check the phases run on the current stream since the last check."""
        unchecked, self.unchecked = self.unchecked, []
        for label, measured in unchecked:
            if measured.error:
                self.attempted += measured.count
                self.failed += measured.count
                self.problems.append(f"{label}: {measured.error}")
                continue
            stream = self.stream[: measured.phase.sent]
            replies = [json.loads(body) for body in measured.phase.replies]
            failed, problems = checks.check_phase(
                label, stream, replies, reference, measured.status
            )
            self.attempted += len(stream)
            self.failed += failed
            self.problems += problems

    def solo(self, share: float, label: str = "solo") -> Measured:
        count = max(1, int(share * self.seconds * self.w.solo_per_s))
        return self.wire_phase(label, wire.solo, count, share)

    def closed(self, share: float, label: str = "closed32") -> Measured:
        count = max(WINDOW, int(share * self.seconds * self.w.closed_per_s))
        return self.wire_phase(
            label, lambda c, chunk, cap: wire.closed(c, chunk, cap, WINDOW), count, share
        )

    # -- --trace 0: the end-to-end metrics --------------------------------

    def end_to_end(self) -> dict[str, float]:
        w, seconds = self.w, self.seconds
        solo_share, closed_share = SOLO_SHARE / self.repeats, CLOSED_SHARE / self.repeats
        count = int(seconds * max(solo_share * w.solo_per_s, closed_share * w.closed_per_s))
        # Each repeat replays its own part of the seed's stream, so the median
        # over the repeats also evens out what one stream happens to hold (on
        # wide-tcp solo_p99_ms is the 20th slowest of 1950 requests, and moved
        # 5.6-7.6 ms from seed to seed when all repeats shared one stream).
        # solo and closed32 take turns, so a phase's repeats are spread over the run.
        solos, closeds = [], []
        for i in range(self.repeats):
            self.build(count + WINDOW, part=i)
            solos.append(self.solo(solo_share, f"solo#{i + 1}"))
            closeds.append(self.closed(closed_share, f"closed32#{i + 1}"))
            self.check(inproc.replay(self.stream, self.http).verdicts)
        solos = [m for m in solos if not m.error]
        closeds = [m for m in closeds if not m.error]
        if solos and len(solos[0].phase.latencies) < 1000:
            print(
                f"note: solo_p99_ms from {len(solos[0].phase.latencies)} samples "
                "(fewer than 10 beyond it)", file=sys.stderr,
            )

        def timings(clock: str, setups: list[float]) -> dict[str, list[float]]:
            solo_clocks = [getattr(m, clock) for m in solos]
            closed_clocks = [(len(m.phase.replies), getattr(m, clock)) for m in closeds]
            return {
                "throughput_rps": [n / c.wall_s for n, c in closed_clocks],
                "solo_p50_ms": [percentile(c.latencies, 50) * 1e3 for c in solo_clocks],
                "solo_p99_ms": [percentile(c.latencies, 99) * 1e3 for c in solo_clocks],
                "server_cpu_ms_per_op": [c.cpu_s / n * 1e3 for n, c in closed_clocks],
                "rss_peak_mb": [m.rss_mb for m in closeds],
                "setup_s": setups,
            }

        # the timing metrics are reported at reference speed: see calibrate.py
        self.repeat_values = timings("ref", self.setups_ref)
        self.raw_values = timings("raw", self.setups_raw)
        return {name: median(values) for name, values in self.repeat_values.items()}

    # -- --trace 1: the per-layer metrics ----------------------------------

    def per_layer(self) -> dict[str, float]:
        w, seconds = self.w, self.seconds
        shares = TRACE_SHARES
        # the in-process replay is also the reference, so it covers every wire prefix
        n = int(seconds * max(
            shares["inproc"] * w.traced_per_s, shares["solo"] * w.solo_per_s,
            shares["closed"] * w.closed_per_s, shares["paced"] * w.paced_rps,
        )) + WINDOW
        self.build(n)

        # in-process: untraced first (also the verdict reference), then traced
        plain = inproc.replay(self.stream, self.http, self.work / "log-untraced")
        tracer = spans.Tracer()
        traced = inproc.replay(self.stream, self.http, self.work / "log-traced", tracer)
        if traced.verdicts != plain.verdicts:
            self.problems.append("traced replay changed a verdict")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{w.name}.jsonl")
        spent = spans.totals(tracer.spans)

        def us(*names: str, key: str = "total_s") -> float:
            return sum(spent[name][key] for name in names if name in spent) / n * 1e6

        ops = traced.scheduler.counter.snapshot()
        reserves = list(traced.decided.values())
        attempts = sum(
            e["attempts"] if e["ok"] else e["error"]["attempts"] for e in reserves
        )
        log_bytes = sum(p.stat().st_size for p in (self.work / "log-traced").iterdir())
        snapshot = inproc.snapshot_costs(traced, self.work / "snapshot.json")
        follow_s, records = inproc.follower_apply_seconds(self.work / "log-traced")
        m = {
            "trace.overhead_ratio": traced.wall_s / plain.wall_s,
            "trace.request_us": us("request"),
            "trace.untraced_request_us": plain.wall_s / n * 1e6,
            "protocol.decode_us": us("protocol.decode_line", "protocol.validate_payload"),
            "protocol.encode_us": us("protocol.encode"),
            "protocol.resp_bytes_per_op": traced.reply_bytes / n,
            "admission.admit_release_us": us("admission.admit", "admission.release"),
            "declog.decide_self_us": us("declog.decide", key="self_s"),
            "declog.append_us": us("declog.append"),
            "declog.bytes_per_record": log_bytes / records,
            "coalloc.retry_self_us": us("coalloc.schedule_detailed", key="self_s"),
            "coalloc.attempts_per_reserve": attempts / len(reserves),
            "coalloc.accepts_per_attempt": sum(e["ok"] for e in reserves) / attempts,
            "calendar.find_feasible_us": us("calendar.find_feasible"),
            "calendar.find_feasible_calls_per_op": spent["calendar.find_feasible"]["calls"] / n,
            "slot_tree.phase1_us": us("slot_tree.phase1"),
            "slot_tree.phase2_us": us("slot_tree.phase2"),
            "calendar.allocate_us": us("calendar.allocate"),
            "slot_tree.apply_batch_us": us("slot_tree.apply_batch"),
            "slot_tree.bulk_load_us": us("slot_tree.bulk_load"),
            "calendar.advance_us": us("calendar.advance"),
            "calendar.release_us": us("calendar.release"),
            "calendar.range_search_us": us("calendar.range_search"),
            "slot_tree.range_search_us": us("slot_tree.range_search"),
            "opcount.node_visit_per_op": ops.get("node_visit", 0) / n,
            "opcount.secondary_probe_per_op": ops.get("secondary_probe", 0) / n,
            "opcount.insert_remove_per_op": (ops.get("insert", 0) + ops.get("remove", 0)) / n,
            "opcount.rebuild_per_op": ops.get("rebuild", 0) / n,
            "http.read_request_us": us("http.read_request"),
            "http.json_response_us": us("http.json_response"),
            "snapshot.export_us": snapshot["export_s"] * 1e6,
            "snapshot.write_s": snapshot["write_s"],
            "snapshot.restore_s": snapshot["restore_s"],
            "snapshot.bytes": snapshot["bytes"],
            "follower.apply_us_per_record": follow_s / records * 1e6,
        }

        # the wire: what the running processes say about themselves
        solo = self.solo(shares["solo"])
        closed = self.closed(shares["closed"])
        paced = self.wire_phase(
            "paced", lambda c, chunk, cap: wire.paced(c, chunk, w.paced_rps),
            int(shares["paced"] * seconds * w.paced_rps), shares["paced"], chunks=1,
        )
        self.check(plain.verdicts)
        if not (solo.error or closed.error or paced.error):
            m.update(self.wire_layers(solo, closed, paced.phase))
        return m

    def wire_layers(self, solo: Measured, closed: Measured, paced: wire.Phase) -> dict[str, float]:
        status, served = closed.status, closed.status["metrics"]
        solo_served = solo.status["metrics"]
        done = len(closed.phase.replies)

        def gateway_quantile_ms(quantile: str) -> float:
            prefix = f'repro_gateway_request_seconds{{quantile="{quantile}"}} '
            for line in closed.gateway_metrics.splitlines():
                if line.startswith(prefix):
                    return float(line[len(prefix):]) * 1e3
            return 0.0  # no gateway on this workload

        return {
            "wire.residual_p50_ms": percentile(solo.phase.latencies, 50) * 1e3
            - solo_served["queue_wait"]["p50_ms"]
            - solo_served["service_latency"]["p50_ms"],
            "server.queue_wait_p50_ms": served["queue_wait"]["p50_ms"],
            "server.queue_wait_p99_ms": served["queue_wait"]["p99_ms"],
            "server.service_p50_ms": served["service_latency"]["p50_ms"],
            "server.service_p99_ms": served["service_latency"]["p99_ms"],
            "server.mean_batch": served["mean_batch"],
            "server.max_batch": served["max_batch"],
            "server.cpu_util": closed.cpu_s[0] / closed.phase.wall_s,
            "admission.shed": status["admission"]["shed"],
            "admission.queue_delay_ewma_ms": status["admission"]["queue_delay_ewma_ms"],
            "declog.hwm": status["log"]["hwm"],
            "declog.segments": status["log"]["segments"],
            "gateway.cpu_ms_per_op": sum(closed.cpu_s[1:]) / done * 1e3,
            "gateway.request_p50_ms": gateway_quantile_ms("0.5"),
            "gateway.request_p99_ms": gateway_quantile_ms("0.99"),
            "wire.paced_rate_rps": self.w.paced_rps,
            "wire.paced_p50_ms": percentile(paced.latencies, 50) * 1e3,
            "wire.paced_p99_ms": percentile(paced.latencies, 99) * 1e3,
            "wire.paced_gen_late_p99_ms": percentile(paced.late, 99) * 1e3,
            "wire.paced_backlog_end": paced.backlog_end,
        }


def run_one(
    w: Workload, seed: int, seconds: float, trace: bool, repeats: int = REPEATS
) -> tuple[dict[str, Any], Run]:
    """One run: the result object the last line of stdout carries, and the run."""
    run = Run(w, seed, seconds, repeats)
    try:
        values = run.per_layer() if trace else run.end_to_end()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        # a metric whose phase died reads 0.0; the run is then not correct
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    return result, run


def print_metrics(result: dict[str, Any], run: Run) -> None:
    """Every metric by name with its unit; end to end, also each repeat and the raw median."""
    for name, metric in result["metrics"].items():
        line = f"{name} {metric['value']} {metric['unit']}"
        if name in run.repeat_values:
            repeats = " ".join(f"{value:.6g}" for value in run.repeat_values[name])
            line += f"  repeats {repeats}  raw {median(run.raw_values[name]):.6g}"
        print(line)


def run_set(seed: int, seconds: float, repeats: int, out: Path) -> bool:
    """Every workload once end to end and once traced, written to ``out``."""
    results: dict[str, Any] = {}
    correct = True
    for name, w in WORKLOADS.items():
        result, run = run_one(w, seed, seconds, trace=False, repeats=repeats)
        print(f"-- {name}")
        print_metrics(result, run)
        traced, _ = run_one(w, seed, seconds, trace=True)
        correct &= result["correct"] and traced["correct"]
        results[name] = {
            "why": w.why,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "failed_share": result["failed"] / result["attempted"],
            "median": {k: v["value"] for k, v in result["metrics"].items()},
            "repeats": run.repeat_values,
            "raw": run.raw_values,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(
            f"failed_share {results[name]['failed_share']}  traced correct {traced['correct']}",
            flush=True,
        )
    document = {
        "env": environment(),
        "seed": seed,
        "seconds": seconds,
        "correct": correct,
        "workloads": results,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}")
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "results.json")
    parser.add_argument(
        "--quick", action="store_true", help="smoke run: a tenth of the seconds, one repeat"
    )
    args = parser.parse_args(argv)
    # The client and the processes it starts share one CPU: see "One CPU" in
    # the README for what that costs and what the alternative measured.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    seconds, repeats = (args.seconds / 10, 1) if args.quick else (args.seconds, REPEATS)
    if args.workload is None:
        return 0 if run_set(args.seed, seconds, repeats, args.out) else 1
    print(f"env {json.dumps(environment())}")
    result, run = run_one(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), repeats)
    print_metrics(result, run)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
