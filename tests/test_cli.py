"""Tests for the command-line interface."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_artifacts(self):
        args = build_parser().parse_args(["experiment", "table1", "--scale", "smoke"])
        assert args.artifact == "table1" and args.scale == "smoke"

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.workload == "KTH" and args.scheduler == "online"
        assert args.rho == 0.0 and not args.reclaim

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "all", "--all"],
            ["profile", "--sort", "tottime"],
            ["check", "--audit", "--audit-tau", "60"],
            ["check", "--audit", "--audit-q-slots", "8"],
            ["check", "--audit", "--audit-stride", "10"],
            ["serve", "--log-segment-bytes", "256"],
            ["serve", "--log-cursor-ttl", "60"],
            ["serve", "--autoscale", "target"],
            ["profile"],
            ["follow", "--primary-port", "1", "--batch-limit", "16"],
            ["follow", "--primary-port", "1", "--promote-port", "9"],
        ],
    )
    def test_removed_options_are_usage_errors(self, argv, capsys):
        """Settings no caller sets are constants (DESIGN.md §19): the
        parser refuses them rather than ignoring them (a removed
        subcommand is an invalid choice)."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        removed_command = argv[0] == "profile"
        expected = "invalid choice: 'profile'" if removed_command else "unrecognized arguments"
        assert expected in capsys.readouterr().err

    def test_autoscale_is_an_on_off_flag(self):
        assert build_parser().parse_args(["serve", "--autoscale"]).autoscale is True
        assert build_parser().parse_args(["serve"]).autoscale is False


class TestSimulate(object):
    def test_online_summary(self, capsys):
        rc = main(["simulate", "--jobs", "120", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scheduler:    online" in out
        assert "waiting time" in out and "utilization" in out

    def test_batch_summary(self, capsys):
        rc = main(["simulate", "--scheduler", "easy", "--jobs", "120"])
        assert rc == 0
        assert "easy" in capsys.readouterr().out

    def test_rho_and_reclaim_flags(self, capsys):
        rc = main(
            ["simulate", "--jobs", "100", "--rho", "0.5",
             "--inaccurate-estimates", "--reclaim"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "rho 0.5" in out and "+reclaim" in out


class TestGenerateAndInfo:
    def test_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "kth.swf"
        rc = main(["generate", "--jobs", "150", "--out", str(out_file)])
        assert rc == 0 and out_file.exists()
        capsys.readouterr()
        rc = main(["swf-info", str(out_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "jobs:        150 (150 usable)" in out
        assert "Computer: repro synthetic KTH" in out

    def test_generated_swf_feeds_simulator(self, tmp_path):
        from repro.schedulers import OnlineScheduler
        from repro.sim.driver import run_simulation
        from repro.workloads.swf import read_swf, swf_to_requests

        out_file = tmp_path / "ctc.swf"
        main(["generate", "--workload", "CTC", "--jobs", "100", "--out", str(out_file)])
        jobs, _ = read_swf(out_file)
        requests = swf_to_requests(jobs)
        result = run_simulation(OnlineScheduler(n_servers=512, tau=900.0, q_slots=96), requests)
        assert len(result.records) == 100


class TestExperimentCommand:
    def test_table1_smoke(self, capsys):
        rc = main(["experiment", "table1", "--scale", "smoke"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 1" in out and "CTC" in out

    def test_artifact_or_all_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment"])
        assert excinfo.value.code == 2
        assert "required: artifact" in capsys.readouterr().err

    def test_all_positional_accepted(self):
        args = build_parser().parse_args(["experiment", "all", "--parallel", "4"])
        assert args.artifact == "all" and args.parallel == 4

    @pytest.mark.slow
    def test_parallel_with_cache_dir(self, tmp_path, capsys):
        import repro.experiments.store as store_mod

        old = store_mod._default_store
        try:
            rc = main(
                ["experiment", "table2", "--scale", "smoke", "--parallel", "2",
                 "--cache-dir", str(tmp_path)]
            )
        finally:
            store_mod._default_store = old
        captured = capsys.readouterr()
        assert rc == 0
        assert "Table 2" in captured.out
        assert "done in" in captured.err  # progress lines on stderr
        assert list(tmp_path.glob("*.json.gz"))  # disk tier populated


class TestCacheCommand:
    def test_info_empty_dir(self, tmp_path, capsys):
        rc = main(["cache", "info", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert '"disk_entries": 0' in out and str(tmp_path) in out

    def test_clear_round_trip(self, tmp_path, capsys):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.store import ResultStore, RunSpec

        store = ResultStore(tmp_path)
        store.get_or_compute(
            RunSpec.normalized("KTH", "online", ExperimentConfig(n_jobs=100, seed=3))
        )
        rc = main(["cache", "clear", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0 and "removed 1 entries" in out
        assert not list(tmp_path.glob("*.json.gz"))

    def test_clear_without_dir_is_noop(self, capsys):
        rc = main(["cache", "clear"])
        assert rc == 0
        assert "no cache dir configured" in capsys.readouterr().out


class TestServiceParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 0 and args.servers == 64
        assert args.max_queue == 1024 and args.max_batch == 64
        assert args.snapshot_path is None and args.log_dir is None

    def test_loadgen_subcommand_is_gone(self, capsys):
        """benchmarks/stack owns load, the chaos plans own replay (DESIGN §10)."""
        with pytest.raises(SystemExit) as excinfo:
            main(["loadgen", "--port", "9"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'loadgen'" in capsys.readouterr().err

    def test_reserve_requires_shape(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reserve", "--port", "9"])
        args = build_parser().parse_args(
            ["reserve", "--port", "9", "--start", "0", "--duration", "60", "--nodes", "2"]
        )
        assert args.duration == 60.0 and args.nodes == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--shards", "4"],
            ["fuzz", "--shards", "2"],
            ["fuzz", "--chaos", "--plan", "kill-shard"],
            # the plans and the knob that went (DESIGN.md §28)
            ["fuzz", "--chaos", "--plan", "kill-restart"],
            ["fuzz", "--chaos", "--plan", "duplicate"],
            ["fuzz", "--chaos", "--plan", "reorder"],
            ["fuzz", "--chaos", "--plan", "scale-events"],
            ["serve", "--metrics-interval", "30"],
        ],
    )
    def test_shard_tier_options_are_argparse_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestBootSnapshotErrors:
    """A snapshot the build refuses is one line on stderr and exit 2
    (``MALFORMED``), not a traceback — for the server and the follower."""

    @pytest.fixture()
    def v1_snapshot(self, tmp_path):
        from repro.service.snapshot import SNAPSHOT_FORMAT, state_checksum

        state = {"scheduler": {}}
        path = tmp_path / "old.snap"
        path.write_text(json.dumps({
            "format": SNAPSHOT_FORMAT,
            "version": 1,
            "sha256": state_checksum(state),
            "state": state,
        }))
        return path

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--snapshot-path"],
            ["follow", "--primary-port", "1", "--bootstrap-snapshot"],
        ],
    )
    def test_refused_snapshot_is_one_line_and_exit_2(self, argv, v1_snapshot, capsys):
        rc = main([*argv, str(v1_snapshot)])
        captured = capsys.readouterr()
        assert rc == 2
        (line,) = captured.err.splitlines()
        assert line.startswith(f"{argv[0]}: snapshot {v1_snapshot} has version 1")
        assert "listening on" not in captured.out

    def test_a_port_that_is_not_a_primary_is_one_line_and_exit_2(self, capsys):
        """``--primary-port`` naming a follower's control port: ``status``
        is refused ``MALFORMED`` there, so ``follow`` stops with one line
        and exit 2 instead of retrying it in silence."""
        from repro.service.protocol import (
            FOLLOWER_OPS,
            ProtocolError,
            decode_line,
            encode,
            error_response,
        )

        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def control_port():
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as stream:
                for raw in stream:
                    try:
                        decode_line(raw, ops=FOLLOWER_OPS)
                    except ProtocolError as exc:
                        stream.write(encode(error_response({}, exc)))
                        stream.flush()

        result = {}
        server = threading.Thread(target=control_port, daemon=True)
        server.start()
        follow = threading.Thread(
            target=lambda: result.update(rc=main(["follow", "--primary-port", str(port)])),
            daemon=True,
        )
        follow.start()
        follow.join(timeout=10)
        listener.close()
        assert "rc" in result, "follow kept retrying a port that is not a primary"
        server.join(timeout=10)
        assert not server.is_alive(), "follow left its connection open"
        captured = capsys.readouterr()
        assert result["rc"] == 2
        (line,) = captured.err.splitlines()
        assert line.startswith(f"follow: 127.0.0.1:{port} is not a primary")
        assert "listening on" not in captured.out


class TestBootRefusals:
    """A log that cannot continue the snapshot, and a failed commit's
    stop, are one line on stderr and a non-zero exit, not a traceback."""

    SERVE = ["serve", "--servers", "2", "--tau", "10", "--q-slots", "4"]

    #: seconds a refused boot may take; one that serves instead is stopped
    #: then and fails with ``TimeoutError`` rather than serving forever
    BOOT_SECONDS = 5.0

    def _serve(self, log_dir, capsys, monkeypatch):
        import asyncio

        from repro.service import server

        serve_forever = server.serve_forever

        async def bounded(config):
            await asyncio.wait_for(serve_forever(config), self.BOOT_SECONDS)

        monkeypatch.setattr(server, "serve_forever", bounded)
        rc = main([*self.SERVE, "--log-dir", str(log_dir)])
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert rc == 1 and line.startswith("serve: ")
        return line, captured.out

    def test_a_log_gap_refuses_the_boot(self, tmp_path, capsys, monkeypatch):
        from repro.service.declog import DecisionLog

        log = DecisionLog(tmp_path, segment_bytes=128)
        for rid in range(1, 9):
            log.append("cancel", {"rid": rid}, {"ok": False})
        log.flush()
        log.compact(8)
        log.close()
        line, out = self._serve(tmp_path, capsys, monkeypatch)
        assert f"starts after hwm {log.base}, past the snapshot's hwm 0" in line
        assert "listening on" not in out

    def test_a_diverging_replay_refuses_the_boot(self, tmp_path, capsys, monkeypatch):
        from repro.service.declog import DecisionLog

        log = DecisionLog(tmp_path)
        log.append("cancel", {"rid": 1}, {"ok": True})  # nothing to cancel: a lie
        log.close()
        line, out = self._serve(tmp_path, capsys, monkeypatch)
        assert "from the snapshot's hwm 0 to hwm 1: record 1 (cancel rid=1 aid=None)" in line
        assert "listening on" not in out

    @pytest.mark.parametrize(
        "damage, refusal",
        [
            ((b'"message":', b'"message";'), "record 1 is not a JSON record"),
            ((b'"kind":', b'"kine":'), "the record after cursor 0 is not a log record"),
        ],
    )
    def test_a_record_damaged_behind_its_head_refuses_the_boot(
        self, tmp_path, capsys, monkeypatch, damage, refusal
    ):
        from repro.service.declog import DecisionLog

        log = DecisionLog(tmp_path)
        log.append("cancel", {"rid": 1}, {"ok": False})
        log.close()
        (segment,) = tmp_path.glob("seg-*.log")
        raw = segment.read_bytes()
        assert raw.count(damage[0]) == 1
        segment.write_bytes(raw.replace(*damage))  # one byte; the frame head intact
        line, out = self._serve(tmp_path, capsys, monkeypatch)
        assert f"from the snapshot's hwm 0 to hwm 1: {refusal}" in line
        assert "listening on" not in out

    def test_a_failed_commit_stops_the_server(self, tmp_path, capsys, monkeypatch):
        import asyncio

        from repro.service.declog import DecisionLog
        from repro.service.protocol import encode
        from repro.service.server import ReservationService

        def full_disk(self, chunk):
            if chunk:
                raise OSError(28, "No space left on device")

        start = ReservationService.start

        async def start_and_reserve(self):
            await start(self)  # then a client's first write arrives
            message = {"op": "reserve", "rid": 1, "sr": 0, "lr": 5, "nr": 1}
            self._ingest(encode(message), asyncio.get_running_loop().create_future())

        monkeypatch.setattr(DecisionLog, "_write", full_disk)
        monkeypatch.setattr(ReservationService, "start", start_and_reserve)
        line, out = self._serve(tmp_path, capsys, monkeypatch)
        assert "commit after hwm 0 failed" in line and "No space left" in line
        assert "listening on" in out


class TestReserveExitCodes:
    def test_malformed_is_exit_2_without_contacting_a_server(self, capsys):
        rc = main(
            ["reserve", "--port", "1", "--start", "0", "--duration", "-5", "--nodes", "2"]
        )
        assert rc == 2
        assert "malformed" in capsys.readouterr().err


def test_serving_processes_import_neither_numpy_nor_networkx():
    """`repro serve` / `repro gateway` pay for what they import on every
    boot (numpy alone: ≈12 MB of `rss_peak_mb` and ≈50 ms of `setup_s`
    per process on `benchmarks/stack`): the CLI, the server and the
    gateway must load without the simulation stack's libraries."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = (
        "import sys\n"
        "import repro.cli, repro.service.server, repro.gateway.app\n"
        "print(sorted({'numpy', 'networkx'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src_dir),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


@pytest.fixture()
def served():
    """A tiny `repro serve` subprocess on an ephemeral port (N=2, horizon 40)."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--servers", "2", "--tau", "10", "--q-slots", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    line = proc.stdout.readline()
    assert "listening on" in line, line
    port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
    try:
        yield port
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=10)


class TestServiceEndToEnd:
    def test_reserve_ok_then_rejected_exit_codes(self, served, capsys):
        rc = main(
            ["reserve", "--port", str(served), "--rid", "1",
             "--start", "0", "--duration", "40", "--nodes", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["ok"] is True

        # the horizon is now full: a well-formed request gets exit code 3
        rc = main(
            ["reserve", "--port", str(served), "--rid", "2",
             "--start", "0", "--duration", "40", "--nodes", "2"]
        )
        response = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert response["error"]["code"] == "REJECTED"
