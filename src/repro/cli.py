"""Command-line interface.

Installed as ``repro`` (see ``pyproject.toml``); also runnable as
``python -m repro.cli``.  Subcommands:

``repro experiment <artifact>``
    Regenerate one paper artifact (``table1``, ``table2``, ``fig3`` …
    ``fig7``) or ``all``, at a chosen scale.  ``--parallel N`` fans the
    distinct simulations out over worker processes; ``--cache-dir``
    persists results across runs in the content-addressed store.

``repro cache info|clear``
    Inspect or empty the on-disk result store.

``repro simulate``
    Replay one workload through one scheduler and print the summary —
    the quickest way to poke at a what-if (load, ρ, reclamation…).

``repro generate``
    Synthesize a workload and write it as an SWF file, so other tools
    (or a colleague's scheduler) can consume it.

``repro swf-info``
    Summarize an SWF file: jobs, processors, duration/size statistics.

``repro check``
    Domain-aware static analysis over the source tree: the AST lint
    rules (``RA001``…``RA003``, ``RA008``, ``RA009``, and the async rules
    ``RA202``/``RA204``).  Exits non-zero on any finding; ``--format
    json`` emits the machine-readable report CI uploads as an artifact.

``repro serve``
    Run the online co-allocation server: a live calendar behind a
    single-writer asyncio actor, speaking NDJSON over TCP (``reserve``,
    ``probe``, ``cancel``, ``status``, ``snapshot``, ``shutdown``) with
    bounded admission, micro-batching, and checksummed snapshot/restore.
    See ``docs/service.md``.  Load comes from ``benchmarks/stack/run.py``
    and ledger-checked replay from ``repro fuzz --chaos``; there is no
    load-generating subcommand.

``repro fuzz``
    Differential-oracle fuzzing: replay seeded request streams against
    both the production scheduler and an obviously-correct reference
    implementation, comparing every decision and the full calendar
    state; ``--shrink`` delta-debugs any divergence to a minimal repro,
    ``--inject`` self-tests the detector against a deliberately broken
    Phase-2 selection, and ``--chaos`` drives real server subprocesses
    through the two fault plans that need one (``front-door`` through a
    gateway, ``kill-promote`` onto a follower).  See ``docs/testing.md``.

``repro reserve``
    One-shot client: submit a single reservation to a running server.
    Exit codes are the shared :class:`repro.errors.ErrorCode` enum — 0
    granted, 2 malformed request, 3 rejected after the ``R_max`` retry
    policy, 6 load-shed (``BUSY``).

``repro gateway``
    The production front door: an asyncio HTTP/1.1 server translating
    JSON endpoints (``POST /v1/reserve|probe|cancel``, ``GET
    /v1/status``) onto the TCP service, with bearer-token tenancy,
    per-tenant token-bucket rate limits, ``/healthz`` and Prometheus
    ``/metrics``.  See ``docs/gateway.md``.

``repro follow``
    A warm-standby follower: tails the primary's decision log
    (``log_tail``) to maintain a replica calendar, verifying every
    replayed verdict, and exposes a control port for ``follower_status``
    and ``promote``.

``repro promote``
    Failover client: tell a follower to stop tailing and serve its
    replayed state as a primary.  Prints the promoted service's port,
    replication cursor and accepted checksum.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ErrorCode

__all__ = ["main", "build_parser"]

_ARTIFACTS = ("table1", "fig3", "fig4", "fig5", "table2", "fig6", "fig7", "all")
_SCHEDULERS = ("online", "easy", "conservative", "fcfs")
_WORKLOADS = ("CTC", "KTH", "HPC2N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPDC'09 resource co-allocation reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("artifact", choices=_ARTIFACTS)
    exp.add_argument("--scale", choices=("smoke", "default", "full"), default="default")
    exp.add_argument(
        "--parallel",
        type=int,
        default=0,
        metavar="N",
        help="fan the distinct simulations out over N worker processes "
        "(0 = sequential in-process execution)",
    )
    exp.add_argument(
        "--cache-dir",
        default=None,
        help="persist simulation results here (omitted = in-memory cache only)",
    )

    sim = sub.add_parser("simulate", help="replay a workload through a scheduler")
    sim.add_argument("--workload", choices=_WORKLOADS, default="KTH")
    sim.add_argument("--scheduler", choices=_SCHEDULERS, default="online")
    sim.add_argument("--jobs", type=int, default=2000)
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--load", type=float, default=None, help="offered-load override")
    sim.add_argument("--rho", type=float, default=0.0, help="advance-reservation fraction")
    sim.add_argument(
        "--inaccurate-estimates",
        action="store_true",
        help="give jobs actual runtimes below their estimates",
    )
    sim.add_argument(
        "--reclaim",
        action="store_true",
        help="online scheduler releases unused reservation tails",
    )

    gen = sub.add_parser("generate", help="synthesize a workload as SWF")
    gen.add_argument("--workload", choices=_WORKLOADS, default="KTH")
    gen.add_argument("--jobs", type=int, default=2000)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--load", type=float, default=None)
    gen.add_argument("--out", required=True, help="output SWF path")

    info = sub.add_parser("swf-info", help="summarize an SWF file")
    info.add_argument("path")

    cache = sub.add_parser("cache", help="inspect or clear the result store")
    cache.add_argument("action", choices=("info", "clear"))
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="store location (omitted = no disk tier)",
    )

    chk = sub.add_parser("check", help="domain-aware static lint of the source tree")
    chk.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    chk.add_argument("--format", choices=("text", "json"), default="text")
    chk.add_argument("--out", default=None, help="also write the JSON report to this path")

    srv = sub.add_parser("serve", help="run the online co-allocation server")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    srv.add_argument("--servers", type=int, default=64, help="system size N")
    srv.add_argument("--tau", type=float, default=900.0, help="slot length τ (s)")
    srv.add_argument("--q-slots", type=int, default=96, help="slots Q in the horizon")
    srv.add_argument("--delta-t", type=float, default=None, help="retry increment Δt")
    srv.add_argument("--r-max", type=int, default=None, help="max scheduling attempts")
    srv.add_argument(
        "--snapshot-path",
        default=None,
        help="snapshot file; restored at boot if present, written on shutdown",
    )
    srv.add_argument(
        "--max-queue", type=int, default=1024, help="admission queue depth bound"
    )
    srv.add_argument(
        "--max-delay",
        type=float,
        default=5.0,
        help="admission delay budget (s): shed once expected queue wait exceeds it",
    )
    srv.add_argument(
        "--max-batch", type=int, default=64, help="actor micro-batch size bound"
    )
    srv.add_argument(
        "--log-dir",
        default=None,
        help="decision-log directory for follower replication "
        "(None disables the log and the log_tail op)",
    )
    srv.add_argument(
        "--autoscale",
        action="store_true",
        help="enable telemetry-driven auto-scaling (off by default)",
    )
    srv.add_argument(
        "--autoscale-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="seconds between autoscaler ticks",
    )
    srv.add_argument(
        "--autoscale-min",
        type=int,
        default=1,
        metavar="N",
        help="never drain below this many active servers",
    )
    srv.add_argument(
        "--autoscale-max",
        type=int,
        default=4096,
        metavar="N",
        help="never grow past this many active servers",
    )
    srv.add_argument(
        "--autoscale-step",
        type=int,
        default=1,
        metavar="N",
        help="servers added (and per-tick scale-in cap) per action",
    )
    srv.add_argument(
        "--autoscale-high-delay",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="queue-delay EWMA above which the pool scales out",
    )
    srv.add_argument(
        "--autoscale-low-delay",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="queue-delay EWMA below which the pool may scale in",
    )
    srv.add_argument(
        "--autoscale-high-shed",
        type=float,
        default=0.05,
        metavar="RATE",
        help="shed-rate EWMA above which the pool scales out",
    )
    srv.add_argument(
        "--autoscale-patience",
        type=int,
        default=3,
        metavar="TICKS",
        help="consecutive breaching ticks before acting (1 = on every breach)",
    )
    srv.add_argument(
        "--autoscale-dry-run",
        action="store_true",
        help="log what the autoscaler would do without touching the pool",
    )

    fz = sub.add_parser(
        "fuzz",
        help="differential-oracle fuzzing and deterministic fault injection",
    )
    fz.add_argument("--ops", type=int, default=2000, help="operations per stream")
    fz.add_argument(
        "--seed",
        default="0",
        help="comma-separated list of stream seeds (e.g. 0,1,2)",
    )
    fz.add_argument(
        "--profile",
        default="dense",
        help="comma-separated workload profiles, or 'all' "
        "(dense, sparse, ties, fine-grid — see repro.verify.genstream)",
    )
    fz.add_argument(
        "--chaos",
        action="store_true",
        help="drive a real `repro serve` subprocess through deterministic "
        "fault plans instead of the in-process differ",
    )
    fz.add_argument(
        "--plan",
        default="all",
        choices=("all", "front-door", "kill-promote"),
        help="chaos plan: front-door replays through a repro gateway over "
        "HTTP, kill-promote SIGKILLs the primary and promotes a log-tailing "
        "follower; all = both",
    )
    fz.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug any divergence to a 1-minimal repro trace",
    )
    fz.add_argument(
        "--inject",
        choices=("reverse-tiebreak", "latest-ending", "skip-past-feasible"),
        default=None,
        help="self-test: break the production Phase-2 selection (or, with "
        "skip-past-feasible, the retry ladder's infeasibility certificate) "
        "and require the differ to catch it (exit 0 = bug caught)",
    )
    fz.add_argument(
        "--scale-events",
        action="store_true",
        help="interleave runtime pool mutations (add_servers/drain/remove/"
        "pool_status) into the generated streams",
    )
    fz.add_argument("--trace", default=None, help="replay this trace file instead of generating")
    fz.add_argument("--out", default=None, help="write the JSON report here")
    fz.add_argument(
        "--emit-test",
        default=None,
        help="write a ready-to-paste failing pytest here on (shrunk) divergence",
    )

    rsv = sub.add_parser("reserve", help="submit one reservation to a running server")
    rsv.add_argument("--host", default="127.0.0.1")
    rsv.add_argument("--port", type=int, required=True)
    rsv.add_argument("--rid", type=int, default=0)
    rsv.add_argument("--start", type=float, required=True, help="earliest start s_r")
    rsv.add_argument("--duration", type=float, required=True, help="temporal size l_r")
    rsv.add_argument("--nodes", type=int, required=True, help="spatial size n_r")
    rsv.add_argument("--deadline", type=float, default=None)

    gw = sub.add_parser("gateway", help="run the HTTP/JSON front door")
    gw.add_argument("--host", default="127.0.0.1")
    gw.add_argument("--port", type=int, default=0, help="HTTP port (0 = ephemeral)")
    gw.add_argument("--backend-host", default="127.0.0.1")
    gw.add_argument(
        "--backend-port", type=int, required=True, help="the TCP service to front"
    )
    gw.add_argument(
        "--token-file",
        default=None,
        help="token:tenant lines; omitted = open mode (every caller is "
        "tenant 'anonymous')",
    )
    gw.add_argument(
        "--rate", type=float, default=1000.0, help="token-bucket refill per tenant (req/s)"
    )
    gw.add_argument(
        "--burst", type=float, default=2000.0, help="token-bucket capacity per tenant"
    )

    fol = sub.add_parser("follow", help="run a warm-standby decision-log follower")
    fol.add_argument("--host", default="127.0.0.1")
    fol.add_argument("--port", type=int, default=0, help="control port (0 = ephemeral)")
    fol.add_argument("--primary-host", default="127.0.0.1")
    fol.add_argument(
        "--primary-port", type=int, required=True, help="the primary's TCP port"
    )
    fol.add_argument("--follower-id", default="follower-1")
    fol.add_argument(
        "--poll-interval", type=float, default=0.25, help="seconds between empty polls"
    )
    fol.add_argument(
        "--bootstrap-snapshot",
        default=None,
        help="primary snapshot to bootstrap from (omitted = fresh, from the "
        "primary's status geometry; requires an uncompacted log)",
    )
    fol.add_argument(
        "--snapshot-path",
        default=None,
        help="snapshot file for the service started on promotion",
    )
    fol.add_argument(
        "--log-dir",
        default=None,
        help="decision-log directory for the service started on promotion",
    )

    pro = sub.add_parser("promote", help="promote a follower to serving primary")
    pro.add_argument("--host", default="127.0.0.1")
    pro.add_argument("--port", type=int, required=True, help="the follower's control port")
    pro.add_argument(
        "--promote-port",
        type=int,
        default=0,
        help="TCP port for the promoted service (0 = ephemeral)",
    )

    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import SCALES, configure_default_store, run_all
    from .experiments.parallel import ARTIFACTS, enumerate_runs, warm_store

    config = SCALES[args.scale]
    store = configure_default_store(args.cache_dir) if args.cache_dir else None

    wanted = list(ARTIFACTS) if args.artifact == "all" else [args.artifact]
    if args.parallel > 0:
        # warm the store for every distinct run first; rendering below
        # then consumes cached results only
        report = warm_store(
            enumerate_runs(wanted, config),
            workers=args.parallel,
            store=store,
            progress=lambda line: print(line, file=sys.stderr),
        )
        for failure in report.failures:
            print(f"run failed: {failure.label}: {failure.error}", file=sys.stderr)
        if report.failures:
            return 1

    if args.artifact == "all":
        print(run_all(config))
    else:
        print(ARTIFACTS[args.artifact].run(config))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .experiments.store import ResultStore

    store = ResultStore(args.cache_dir)
    if args.action == "info":
        print(json.dumps(store.info(), indent=2))
        return 0
    if store.cache_dir is None:
        print("cache: no cache dir configured (pass --cache-dir); nothing to clear")
        return 0
    removed = store.clear()
    print(f"cache: removed {removed} entries from {store.cache_dir}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .metrics.stats import summarize
    from .schedulers import (
        ConservativeBackfillScheduler,
        EasyBackfillScheduler,
        FCFSScheduler,
        OnlineScheduler,
    )
    from .sim.driver import run_simulation
    from .workloads.archive import WORKLOADS, generate_workload
    from .workloads.models import EstimateAccuracy
    from .workloads.reservations import with_advance_reservations

    accuracy = EstimateAccuracy() if args.inaccurate_estimates else None
    requests = generate_workload(
        args.workload,
        n_jobs=args.jobs,
        seed=args.seed,
        offered_load=args.load,
        accuracy=accuracy,
    )
    if args.rho > 0.0:
        requests = with_advance_reservations(requests, args.rho, seed=args.seed)
    n_servers = WORKLOADS[args.workload].n_servers
    if args.scheduler == "online":
        scheduler = OnlineScheduler(
            n_servers=n_servers, tau=900.0, q_slots=288, reclaim_early=args.reclaim
        )
    else:
        factory = {
            "easy": EasyBackfillScheduler,
            "conservative": ConservativeBackfillScheduler,
            "fcfs": FCFSScheduler,
        }[args.scheduler]
        scheduler = factory(n_servers)
    result = run_simulation(scheduler, requests)
    s = summarize(result.records)
    print(f"workload:     {args.workload} ({args.jobs} jobs, seed {args.seed}, rho {args.rho:g})")
    print(f"scheduler:    {result.scheduler}{' +reclaim' if args.reclaim else ''}")
    print(f"accepted:     {s.accepted}/{s.jobs} ({s.acceptance_rate:.1%})")
    print(f"waiting time: mean {s.mean_wait:.2f} h, median {s.median_wait:.2f} h, "
          f"max {s.max_wait:.1f} h")
    print(f"penalty P^l:  mean {s.mean_penalty:.2f}")
    print(f"attempts:     mean {s.mean_attempts:.2f}")
    print(f"utilization:  {result.utilization:.1%}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .workloads.archive import WORKLOADS, generate_workload
    from .workloads.swf import SWFJob, write_swf

    requests = generate_workload(
        args.workload, n_jobs=args.jobs, seed=args.seed, offered_load=args.load
    )
    jobs = [
        SWFJob(
            job_number=r.rid + 1,
            submit_time=r.qr,
            wait_time=-1.0,
            run_time=r.runtime,
            allocated_processors=r.nr,
            requested_processors=r.nr,
            requested_time=r.lr,
        )
        for r in requests
    ]
    metadata = {
        "Computer": f"repro synthetic {args.workload}",
        "MaxProcs": str(WORKLOADS[args.workload].n_servers),
        "MaxJobs": str(len(jobs)),
        "Seed": str(args.seed),
    }
    write_swf(jobs, args.out, metadata=metadata)
    print(f"wrote {len(jobs)} jobs to {args.out}")
    return 0


def _cmd_swf_info(args: argparse.Namespace) -> int:
    # numpy stays out of module scope: `repro serve`/`gateway` never need it
    import numpy as np

    from .workloads.swf import read_swf, swf_to_requests

    jobs, meta = read_swf(args.path)
    requests = swf_to_requests(jobs)
    if meta:
        for key, value in meta.items():
            print(f"; {key}: {value}")
    print(f"jobs:        {len(jobs)} ({len(requests)} usable)")
    if requests:
        durations = np.array([r.lr for r in requests]) / 3600.0
        sizes = np.array([r.nr for r in requests])
        span = (requests[-1].qr - requests[0].qr) / 86400.0
        print(f"span:        {span:.1f} days")
        print(f"duration:    mean {durations.mean():.2f} h, median "
              f"{np.median(durations):.2f} h, max {durations.max():.1f} h")
        print(f"size:        mean {sizes.mean():.1f}, median {np.median(sizes):.0f}, "
              f"max {sizes.max()}")
        print(f"< 2 h jobs:  {(durations < 2.0).mean():.1%}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .analysis.lint import lint_paths

    missing = [path for path in args.paths if not Path(path).exists()]
    for path in missing:
        print(f"check: no such file or directory: {path}", file=sys.stderr)
    if missing:
        return int(ErrorCode.MALFORMED)
    # default: the installed package itself, wherever it lives
    lint_report = lint_paths(args.paths or [str(Path(__file__).resolve().parent)])
    report = {"lint": lint_report.to_json(), "ok": lint_report.ok}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(lint_report.to_text())
    return 0 if lint_report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .errors import ReproError
    from .service.server import ServiceConfig, serve_forever
    from .service.snapshot import SnapshotError

    autoscale = None
    if args.autoscale:
        from .service.autoscale import AutoScaleConfig

        autoscale = AutoScaleConfig(
            interval=args.autoscale_interval,
            min_servers=args.autoscale_min,
            max_servers=args.autoscale_max,
            step=args.autoscale_step,
            high_delay=args.autoscale_high_delay,
            low_delay=args.autoscale_low_delay,
            high_shed_rate=args.autoscale_high_shed,
            patience=args.autoscale_patience,
            dry_run=args.autoscale_dry_run,
        )
        try:
            autoscale.validate()
        except ValueError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return int(ErrorCode.MALFORMED)

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        n_servers=args.servers,
        tau=args.tau,
        q_slots=args.q_slots,
        delta_t=args.delta_t,
        r_max=args.r_max,
        snapshot_path=args.snapshot_path,
        max_queue=args.max_queue,
        max_delay=args.max_delay,
        max_batch=args.max_batch,
        log_dir=args.log_dir,
        autoscale=autoscale,
    )
    try:
        asyncio.run(serve_forever(config))
    except KeyboardInterrupt:
        # the serve_forever cancellation path already snapshots on the
        # graceful stop, so ^C is a clean exit
        pass
    except SnapshotError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return int(ErrorCode.MALFORMED)
    except ReproError as exc:
        # a log that cannot continue the snapshot, or a failed commit
        print(f"serve: {exc}", file=sys.stderr)
        return int(exc.code)
    return int(ErrorCode.OK)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from .verify.chaos import PLANS, ChaosPlan, run_chaos
    from .verify.differ import (
        emit_pytest,
        load_trace,
        run_stream,
        shrink_stream,
    )
    from .verify.genstream import PROFILES, generate_stream

    try:
        seeds = [int(s) for s in str(args.seed).split(",") if s.strip() != ""]
    except ValueError:
        print(f"fuzz: bad --seed list {args.seed!r}", file=sys.stderr)
        return int(ErrorCode.MALFORMED)
    profile_names = (
        list(PROFILES) if args.profile == "all" else args.profile.split(",")
    )
    unknown = [p for p in profile_names if p not in PROFILES]
    if unknown:
        print(
            f"fuzz: unknown profile(s) {', '.join(unknown)} "
            f"(have: {', '.join(PROFILES)})",
            file=sys.stderr,
        )
        return int(ErrorCode.MALFORMED)

    if args.trace:
        streams = [load_trace(args.trace)]
    else:
        streams = [
            generate_stream(profile, seed, args.ops, scale_events=args.scale_events)
            for profile in profile_names
            for seed in seeds
        ]

    report: dict[str, object] = {
        "mode": "chaos" if args.chaos else "differential",
        "ops": args.ops,
        "seeds": seeds,
        "profiles": profile_names,
        "inject": args.inject,
        "scale_events": args.scale_events,
        "runs": [],
    }
    runs: list[dict[str, object]] = report["runs"]  # type: ignore[assignment]
    divergences = 0
    failures = 0

    if args.chaos:
        for stream in streams:
            for kind in PLANS if args.plan == "all" else (args.plan,):
                plan = ChaosPlan(kind)
                chaos_report = run_chaos(stream, plan)
                runs.append(chaos_report)
                verdict = "ok" if chaos_report["passed"] else "FAILED"
                if not chaos_report["passed"]:
                    failures += 1
                print(
                    f"fuzz --chaos [{stream.profile}/seed={stream.seed}] "
                    f"plan={plan.kind}: {chaos_report['ops']} ops, "
                    f"{chaos_report['accepted']} accepted, "
                    f"{chaos_report['restarts']} restart(s), "
                    f"{len(chaos_report['ledger_violations'])} ledger violation(s), "
                    f"checksum {chaos_report['checksums']['service_shutdown']} — {verdict}"
                )
    else:
        for stream in streams:
            result = run_stream(
                stream,
                inject=args.inject,
            )
            entry: dict[str, object] = {
                "profile": stream.profile,
                "seed": stream.seed,
                **result.to_dict(),
            }
            label = f"[{stream.profile}/seed={stream.seed}]"
            if result.divergence is None:
                print(
                    f"fuzz {label}: {result.ops_run} ops, "
                    f"{result.accepted} accepted, {result.rejected} rejected, "
                    f"{result.cancelled} cancelled, {result.probes} probes, "
                    f"{result.restores} restores — no divergence"
                )
            else:
                divergences += 1
                print(f"fuzz {label}: DIVERGENCE at op {result.divergence.index}")
                print(result.divergence.describe())
                if args.shrink:
                    shrunk = shrink_stream(stream, inject=args.inject)
                    assert shrunk is not None
                    entry["shrunk"] = shrunk.to_dict()
                    print(
                        f"fuzz {label}: shrunk to {len(shrunk.stream.ops)} op(s) "
                        f"in {shrunk.evaluations} evaluation(s)"
                    )
                    test_source = emit_pytest(shrunk)
                    entry["pytest"] = test_source
                    if args.emit_test:
                        with open(args.emit_test, "w", encoding="utf-8") as fh:
                            fh.write(test_source)
                        print(f"fuzz {label}: failing test -> {args.emit_test}")
            runs.append(entry)

    report["divergences"] = divergences
    report["failures"] = failures
    if args.inject and not args.chaos:
        # self-test semantics: the injected bug must be caught in every run
        caught = divergences == len(streams)
        report["injection_caught"] = caught
        print(
            f"fuzz --inject {args.inject}: "
            f"{'caught in every run' if caught else 'MISSED in at least one run'}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"fuzz: report -> {args.out}")

    if args.inject and not args.chaos:
        return int(ErrorCode.OK) if report["injection_caught"] else int(ErrorCode.INTERNAL)
    if divergences or failures:
        return int(ErrorCode.INTERNAL)
    return int(ErrorCode.OK)


def _one_shot(host: str, port: int, message: dict) -> int:
    """One exchange with a running server: print the reply, return its exit code."""
    import asyncio
    import json

    from .service.client import ServiceClient

    async def exchange() -> dict:
        client = ServiceClient(host, port)
        try:
            return await client.rpc(message)
        finally:
            client.close()

    response = asyncio.run(exchange())
    print(json.dumps(response, indent=2, sort_keys=True))
    if response.get("ok"):
        return int(ErrorCode.OK)
    return int((response.get("error") or {}).get("exit_code", ErrorCode.INTERNAL))


def _cmd_reserve(args: argparse.Namespace) -> int:
    if args.duration <= 0 or args.nodes <= 0:
        print(
            f"reserve: malformed request (duration {args.duration}, nodes {args.nodes})",
            file=sys.stderr,
        )
        return int(ErrorCode.MALFORMED)
    message = {
        "op": "reserve",
        "rid": args.rid,
        "sr": args.start,
        "lr": args.duration,
        "nr": args.nodes,
    }
    if args.deadline is not None:
        message["deadline"] = args.deadline
    return _one_shot(args.host, args.port, message)


def _cmd_gateway(args: argparse.Namespace) -> int:
    import asyncio

    from .gateway import GatewayConfig, serve_gateway

    config = GatewayConfig(
        host=args.host,
        port=args.port,
        backend_host=args.backend_host,
        backend_port=args.backend_port,
        token_file=args.token_file,
        rate=args.rate,
        burst=args.burst,
    )
    try:
        asyncio.run(serve_gateway(config))
    except KeyboardInterrupt:
        pass
    return int(ErrorCode.OK)


def _cmd_follow(args: argparse.Namespace) -> int:
    import asyncio

    from .errors import ReproError
    from .gateway import FollowerConfig, serve_follower
    from .service.snapshot import SnapshotError

    config = FollowerConfig(
        host=args.host,
        port=args.port,
        primary_host=args.primary_host,
        primary_port=args.primary_port,
        follower_id=args.follower_id,
        poll_interval=args.poll_interval,
        bootstrap_snapshot=args.bootstrap_snapshot,
        snapshot_path=args.snapshot_path,
        log_dir=args.log_dir,
    )
    try:
        asyncio.run(serve_follower(config))
    except KeyboardInterrupt:
        pass
    except SnapshotError as exc:
        print(f"follow: {exc}", file=sys.stderr)
        return int(ErrorCode.MALFORMED)
    except ReproError as exc:
        # a --primary-port that is not a primary's
        print(f"follow: {exc}", file=sys.stderr)
        return int(exc.code)
    return int(ErrorCode.OK)


def _cmd_promote(args: argparse.Namespace) -> int:
    message: dict = {"op": "promote"}
    if args.promote_port:
        message["port"] = args.promote_port
    return _one_shot(args.host, args.port, message)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "experiment": _cmd_experiment,
        "simulate": _cmd_simulate,
        "generate": _cmd_generate,
        "swf-info": _cmd_swf_info,
        "check": _cmd_check,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "fuzz": _cmd_fuzz,
        "reserve": _cmd_reserve,
        "gateway": _cmd_gateway,
        "follow": _cmd_follow,
        "promote": _cmd_promote,
    }
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
