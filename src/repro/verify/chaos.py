"""Deterministic fault plans for the TCP reservation service.

Each plan replays one generated stream against a real ``repro serve``
subprocess over a single strictly request/response connection (one op in
flight at a time, so the decision order is known), injects one fault
class, and then holds the service to three simultaneous standards:

* the client-side :class:`~repro.service.loadgen.ShadowLedger` records
  every accepted reservation and must finish violation-free;
* every verdict the service ever produced must match the
  :class:`~repro.verify.oracle.ReferenceScheduler` replaying the same
  logical op order in-process (through the differ's
  :class:`~repro.verify.differ.OracleDriver`, wire mapping and verdict
  normal form — this module adds only the transport and the faults);
* the final snapshot's per-server idle periods, uids included, and the
  service's ``accepted_checksum`` must equal the oracle's.

Plans
-----

``kill-restart``
    ``snapshot`` after op *s*, SIGKILL after op *k* > *s*, restart from
    the snapshot, resend ops *s+1..k* (they were decided after the
    snapshot, so the restored server re-decides them — the verdicts must
    be identical), then finish the stream.
``duplicate``
    Every n-th reserve is sent twice back-to-back; the second response
    must carry the recorded verdict with ``replayed: true`` (the
    rid-keyed exactly-once decision log).
``reorder``
    The op list is deterministically shuffled within fixed-size windows
    before sending — an at-least-once client's retry storm.  The oracle
    replays the *same* shuffled order, so verdicts must still agree.
``front-door`` (explicit ``--plan front-door``)
    The whole stream is replayed through a real ``repro gateway``
    subprocess as HTTP/JSON instead of raw NDJSON — the gateway passes
    backend bodies through verbatim, so the identical oracle/ledger/
    checksum standards apply to the HTTP surface with zero adaptation.
``scale-events`` (explicit ``--plan scale-events``)
    The stream's pool mutations (``add_servers``/``drain``/``remove``,
    generated with ``--scale-events``) run through the live service.
    Every mutation carries a deterministic ``aid`` and is sent *twice*
    back-to-back — the duplicate must answer the recorded verdict with
    ``replayed: true`` (the aid-keyed exactly-once admin table).  The
    service is snapshotted after op *s* and SIGKILLed **mid-drain**: the
    kill lands right after the first ``drain`` past the snapshot, the
    pool membership is captured (``pool_status``), and the restart from
    the snapshot must re-decide ops *s+1..k* identically *and* restore
    byte-equal pool membership.  The final snapshot's pool must match
    the oracle's, on top of the usual ledger/verdict/checksum standards.
``kill-promote`` (explicit ``--plan kill-promote``)
    The primary runs with ``--log-dir`` and a ``repro follow``
    subprocess tails its decision log.  After op *k* the primary is
    SIGKILLed — **no snapshot was ever taken** — and the follower is
    promoted (``promote`` on its control port).  Ops possibly lost past
    the follower's replication cursor are resent (the promoted service
    re-decides or replays them; verdicts must match the pre-kill ones),
    then the stream finishes against the promoted service, which must
    end with the same accepted checksum as the uninterrupted oracle.

Everything is driven by ``(stream, plan)``; no wall-clock dependence
(the service clock is virtual), no randomness outside the plan seed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, IO

from ..service.declog import ADMIN_KINDS
from ..service.loadgen import ShadowLedger
from ..service.protocol import encode
from ..service.snapshot import read_snapshot
from ..service.state import accepted_checksum
from .differ import OracleDriver, _jsonable, _normalize, _wire
from .genstream import Stream

__all__ = ["ChaosPlan", "default_plans", "run_chaos"]

_READY = re.compile(r"listening on [0-9.]+:(\d+)")
_RPC_TIMEOUT = 30.0


@dataclass
class ChaosPlan:
    """One deterministic fault schedule."""

    kind: str  # kill-restart | duplicate | reorder | scale-events | front-door | kill-promote
    snapshot_at: int | None = None  # kill-*: snapshot after this op index
    kill_at: int | None = None  # kill-*: SIGKILL after this op index
    duplicate_every: int = 5  # duplicate: resend every n-th reserve
    reorder_window: int = 4  # reorder: shuffle window size
    seed: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "snapshot_at": self.snapshot_at,
            "kill_at": self.kill_at,
            "duplicate_every": self.duplicate_every,
            "reorder_window": self.reorder_window,
            "seed": self.seed,
        }


def default_plans(kind: str | None = None) -> list[ChaosPlan]:
    plans = [
        ChaosPlan(kind="kill-restart"),
        ChaosPlan(kind="duplicate"),
        ChaosPlan(kind="reorder"),
    ]
    if kind is None or kind == "all":
        return plans
    if kind in ("front-door", "kill-promote", "scale-events"):
        # explicit-only plans: they spawn extra subprocesses (gateway /
        # follower) or need a specially generated stream (scale events),
        # so "all" does not imply them
        return [ChaosPlan(kind=kind)]
    matched = [p for p in plans if p.kind == kind]
    if not matched:
        raise ValueError(f"unknown chaos plan {kind!r}")
    return matched


# ----------------------------------------------------------------------
# service subprocess plumbing
# ----------------------------------------------------------------------


def _src_root() -> str:
    # .../src/repro/verify/chaos.py -> .../src
    return str(Path(__file__).resolve().parents[2])


def _spawn_ready(cmd: list[str]) -> tuple[subprocess.Popen, int]:
    """Launch a repro subcommand and parse the port off its ready line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _src_root() + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True
    )
    assert proc.stdout is not None
    while True:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{' '.join(cmd[3:5])} exited early (rc={proc.poll()})")
        match = _READY.search(line)
        if match:
            return proc, int(match.group(1))


def _start_server(
    config: dict[str, Any],
    snapshot_path: str,
    extra: list[str] | None = None,
) -> tuple[subprocess.Popen, int]:
    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--servers",
        str(config["n_servers"]),
        "--tau",
        str(config["tau"]),
        "--q-slots",
        str(config["q_slots"]),
        "--snapshot-path",
        snapshot_path,
    ]
    if config.get("delta_t") is not None:
        cmd += ["--delta-t", str(config["delta_t"])]
    if config.get("r_max") is not None:
        cmd += ["--r-max", str(config["r_max"])]
    if extra:
        cmd += extra
    return _spawn_ready(cmd)


def _start_follower(
    primary_port: int, snapshot_path: str, work: str
) -> tuple[subprocess.Popen, int]:
    """A ``repro follow`` subprocess tailing the primary's decision log."""
    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "follow",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--primary-host",
        "127.0.0.1",
        "--primary-port",
        str(primary_port),
        "--poll-interval",
        "0.05",
        "--snapshot-path",
        snapshot_path,
        "--log-dir",
        str(Path(work) / "follower-log"),
    ]
    return _spawn_ready(cmd)


def _start_gateway(backend_port: int) -> tuple[subprocess.Popen, int]:
    """A ``repro gateway`` subprocess fronting the service over HTTP.

    The edge rate limit is set far above any replay rate: this plan
    tests decision identity through the HTTP surface, not the limiter
    (the limiter has its own unit tests).
    """
    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "gateway",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--backend-host",
        "127.0.0.1",
        "--backend-port",
        str(backend_port),
        "--rate",
        "1000000",
        "--burst",
        "1000000",
    ]
    return _spawn_ready(cmd)


class _Client:
    """Blocking one-op-at-a-time NDJSON client."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=_RPC_TIMEOUT)
        self.file: IO[bytes] = self.sock.makefile("rwb")

    def rpc(self, message: dict[str, Any]) -> dict[str, Any]:
        self.file.write(encode(message))
        self.file.flush()
        raw = self.file.readline()
        if not raw:
            raise ConnectionError(f"no response to {message.get('op')}")
        return json.loads(raw)

    def close(self) -> None:
        try:
            self.file.close()
            self.sock.close()
        except OSError:
            pass


class _HttpClient:
    """Blocking one-op-at-a-time HTTP client for the gateway front door.

    Same ``rpc(message) -> body`` surface as :class:`_Client`: the
    gateway passes backend JSON bodies through verbatim, so callers
    cannot tell the two transports apart.
    """

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=_RPC_TIMEOUT)

    def rpc(self, message: dict[str, Any]) -> dict[str, Any]:
        op = message["op"]
        if op == "pool_status":
            self.conn.request("GET", "/v1/admin/pool")
            response = self.conn.getresponse()
            return json.loads(response.read().decode("utf-8"))
        if op in ADMIN_KINDS:
            path = "/v1/admin/scale"
            payload = {k: v for k, v in message.items() if k != "op"}
            payload["action"] = op
        else:
            path = f"/v1/{op}"
            payload = message
        body = json.dumps(payload).encode("utf-8")
        self.conn.request(
            "POST",
            path,
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self.conn.getresponse()
        return json.loads(response.read().decode("utf-8"))

    def close(self) -> None:
        self.conn.close()


def _wait_follower_hwm(ctl: _Client, min_hwm: int, timeout: float = 10.0) -> int:
    """Poll ``follower_status`` until the cursor reaches ``min_hwm``.

    Best-effort with a deadline: the invariant under test holds for any
    cursor (lost records are resent), catching up just makes the run
    exercise real replication instead of an empty promote.
    """
    deadline = time.monotonic() + timeout
    while True:
        status = ctl.rpc({"op": "follower_status"})
        hwm = int(status["hwm"])
        if hwm >= min_hwm or time.monotonic() > deadline:
            return hwm
        time.sleep(0.05)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


def run_chaos(
    stream: Stream, plan: ChaosPlan, work_dir: str | None = None
) -> dict[str, Any]:
    """Execute one (stream, plan) pair; returns the JSON-ready report.

    ``report["passed"]`` is the overall verdict: no ledger violations, no
    verdict divergence from the oracle, identical replayed verdicts
    across the kill/restart, ``replayed`` flags on duplicates, equal
    final state and checksums.
    """
    ops = [op for op in stream.ops if op["kind"] != "restore"]
    if plan.kind == "reorder":
        rng = random.Random(f"repro-chaos:{plan.seed}")
        ops = list(ops)
        window = max(2, plan.reorder_window)
        for base in range(0, len(ops), window):
            block = ops[base : base + window]
            rng.shuffle(block)
            ops[base : base + window] = block
    snapshot_at = kill_at = None
    if plan.kind in ("kill-restart", "scale-events"):
        snapshot_at = plan.snapshot_at if plan.snapshot_at is not None else len(ops) // 3
        if plan.kill_at is not None:
            kill_at = plan.kill_at
        elif plan.kind == "scale-events":
            # SIGKILL *mid-drain*: right after the first drain verdict past
            # the snapshot, while the pool still carries the draining state
            kill_at = next(
                (
                    i
                    for i, op in enumerate(ops)
                    if i > snapshot_at and op["kind"] == "drain"
                ),
                (2 * len(ops)) // 3,
            )
        else:
            kill_at = (2 * len(ops)) // 3
        if not 0 <= snapshot_at < kill_at < len(ops):
            raise ValueError(
                f"{plan.kind} plan needs 0 <= snapshot_at < kill_at < {len(ops)}, "
                f"got snapshot_at={snapshot_at} kill_at={kill_at}"
            )
    elif plan.kind == "kill-promote":
        kill_at = plan.kill_at if plan.kill_at is not None else (2 * len(ops)) // 3
        if not 0 <= kill_at < len(ops):
            raise ValueError(
                f"kill-promote plan needs 0 <= kill_at < {len(ops)}, got {kill_at}"
            )

    owns_dir = work_dir is None
    work = work_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    snapshot_path = str(Path(work) / "chaos-snapshot.json")
    ledger = ShadowLedger()
    verdicts: list[dict[str, Any]] = []
    replay_mismatches: list[dict[str, Any]] = []
    duplicate_checks = 0
    duplicate_mismatches: list[dict[str, Any]] = []
    restarts = 0
    reserve_count = 0
    scale_ops = 0
    pool_restore_mismatch: dict[str, Any] | None = None
    follower_proc = gateway_proc = None
    promote_info: dict[str, Any] | None = None
    # kill-promote: log_index[h-1] = index of the op that wrote decision-log
    # record h (fresh reserves and every cancel append one record; probes
    # and rid replays do not), so a promote at cursor h tells us exactly
    # which ops may have been lost and must be resent
    log_index: list[int] = []
    logged_rids: set[int] = set()

    extra = ["--log-dir", str(Path(work) / "primary-log")] if plan.kind == "kill-promote" else None
    proc, port = _start_server(stream.config, snapshot_path, extra=extra)
    if plan.kind == "kill-promote":
        follower_proc, follower_ctl_port = _start_follower(port, snapshot_path, work)
    client: Any
    if plan.kind == "front-door":
        gateway_proc, gateway_port = _start_gateway(port)
        client = _HttpClient(gateway_port)
    else:
        client = _Client(port)
    try:
        for index, op in enumerate(ops):
            verdict = _normalize(op, client.rpc(_wire(op, index)))
            verdicts.append(verdict)
            if op["kind"] in ADMIN_KINDS or op["kind"] == "pool_status":
                scale_ops += 1
            if plan.kind == "scale-events" and op["kind"] in ADMIN_KINDS:
                # every pool mutation is sent twice: the duplicate carries
                # the same aid and must answer the recorded verdict
                duplicate_checks += 1
                dup_response = client.rpc(_wire(op, index))
                dup = _normalize(op, dup_response)
                if _jsonable(dup) != _jsonable(verdict) or not dup_response.get(
                    "replayed"
                ):
                    duplicate_mismatches.append(
                        {"index": index, "first": verdict, "duplicate": dup,
                         "replayed": dup_response.get("replayed")}
                    )
            if op["kind"] == "cancel" and verdict["ok"]:
                # an acknowledged cancel frees the window: later accepts
                # may legitimately reuse it without double-booking
                ledger.release(int(op["rid"]))
            if op["kind"] == "reserve":
                reserve_count += 1
                if verdict["ok"]:
                    ledger.record(
                        int(op["rid"]),
                        float(op["sr"]),
                        float(verdict["start"]),
                        float(verdict["end"]),
                        [int(s) for s in verdict["servers"]],
                    )
                if plan.kind == "duplicate" and reserve_count % plan.duplicate_every == 0:
                    duplicate_checks += 1
                    dup_response = client.rpc(_wire(op))
                    dup = _normalize(op, dup_response)
                    if _jsonable(dup) != _jsonable(verdict) or (
                        verdict["ok"] and not dup_response.get("replayed")
                    ):
                        duplicate_mismatches.append(
                            {"index": index, "first": verdict, "duplicate": dup,
                             "replayed": dup_response.get("replayed")}
                        )
            if plan.kind == "kill-promote":
                if (
                    op["kind"] == "cancel"
                    or op["kind"] in ADMIN_KINDS
                    or (op["kind"] == "reserve" and int(op["rid"]) not in logged_rids)
                ):
                    if op["kind"] == "reserve":
                        logged_rids.add(int(op["rid"]))
                    log_index.append(index)
                if index == kill_at:
                    assert follower_proc is not None
                    ctl = _Client(follower_ctl_port)
                    if log_index:
                        _wait_follower_hwm(ctl, min_hwm=1)
                    client.close()
                    proc.send_signal(signal.SIGKILL)
                    proc.wait(timeout=30)
                    promote_info = ctl.rpc({"op": "promote"})
                    ctl.close()
                    if not promote_info.get("ok"):
                        raise RuntimeError(f"promote failed: {promote_info!r}")
                    restarts += 1
                    client = _Client(int(promote_info["port"]))
                    hwm = int(promote_info["hwm"])
                    assert hwm <= len(log_index), (hwm, len(log_index))
                    # records past the follower's replication cursor died
                    # with the primary (there is NO snapshot in this plan);
                    # resend the ops behind them — already-replicated rids
                    # answer the recorded verdict, lost decisions are
                    # re-decided and must match the pre-kill ones bit for bit
                    resend_from = log_index[hwm - 1] + 1 if hwm else 0
                    for j in range(resend_from, kill_at + 1):
                        replayed = _normalize(ops[j], client.rpc(_wire(ops[j], j)))
                        if _jsonable(replayed) != _jsonable(verdicts[j]):
                            replay_mismatches.append(
                                {"index": j, "before_kill": verdicts[j],
                                 "after_promote": replayed}
                            )
            if plan.kind in ("kill-restart", "scale-events"):
                if index == snapshot_at:
                    client.rpc({"op": "snapshot"})
                if index == kill_at:
                    pool_before = None
                    if plan.kind == "scale-events":
                        pool_before = _normalize(
                            {"kind": "pool_status"},
                            client.rpc({"op": "pool_status"}),
                        )
                    client.close()
                    proc.send_signal(signal.SIGKILL)
                    proc.wait(timeout=30)
                    proc, port = _start_server(stream.config, snapshot_path)
                    restarts += 1
                    client = _Client(port)
                    # ops decided after the snapshot died with the process;
                    # the restored server must re-decide them identically
                    assert snapshot_at is not None and kill_at is not None
                    for j in range(snapshot_at + 1, kill_at + 1):
                        replayed = _normalize(ops[j], client.rpc(_wire(ops[j], j)))
                        if _jsonable(replayed) != _jsonable(verdicts[j]):
                            replay_mismatches.append(
                                {"index": j, "before_kill": verdicts[j],
                                 "after_restart": replayed}
                            )
                    if plan.kind == "scale-events":
                        # the restart + replay must land on the exact pool
                        # membership (and drain progress) the kill interrupted
                        pool_after = _normalize(
                            {"kind": "pool_status"},
                            client.rpc({"op": "pool_status"}),
                        )
                        if _jsonable(pool_after) != _jsonable(pool_before):
                            pool_restore_mismatch = {
                                "index": index,
                                "before_kill": pool_before,
                                "after_restart": pool_after,
                            }
        # the end-of-run status/shutdown exchange is a TCP control-plane
        # conversation: the gateway deliberately exposes no shutdown
        end_client = _Client(port) if plan.kind == "front-door" else client
        status = end_client.rpc({"op": "status"})
        shutdown = end_client.rpc({"op": "shutdown"})
        end_client.close()
        if end_client is not client:
            client.close()
        if plan.kind == "kill-promote":
            # the follower process exits once its promoted service stops
            assert follower_proc is not None
            follower_proc.wait(timeout=30)
        else:
            proc.wait(timeout=30)
    finally:
        for child in (proc, follower_proc, gateway_proc):
            if child is not None and child.poll() is None:
                child.kill()
                child.wait(timeout=30)

    # oracle replay over the same logical order, and checksum mirror
    driver = OracleDriver(stream.config)
    oracle = driver.oracle
    verdict_divergences: list[dict[str, Any]] = []
    for index, op in enumerate(ops):
        expected = driver.apply(op)
        if _jsonable(expected) != _jsonable(verdicts[index]):
            verdict_divergences.append(
                {"index": index, "op": op, "service": verdicts[index],
                 "oracle": expected}
            )
    oracle_checksum = accepted_checksum(driver.decided)

    final_state = read_snapshot(snapshot_path)
    final_periods = [
        [(float(st), None if et is None else float(et), uid) for st, et, uid in periods]
        for periods in final_state["scheduler"]["calendar"]["periods"]
    ]
    state_equal = final_periods == oracle.export_intervals()
    final_pool = final_state["scheduler"]["calendar"].get("pool")
    pool_equal = final_pool == oracle.pool_status()["servers"]

    checksums = {
        "service_status": status.get("accepted_checksum"),
        "service_shutdown": shutdown.get("accepted_checksum"),
        "ledger": ledger.checksum(),
        "oracle": oracle_checksum,
    }
    passed = (
        not ledger.violations
        and not verdict_divergences
        and not replay_mismatches
        and not duplicate_mismatches
        and pool_restore_mismatch is None
        and state_equal
        and pool_equal
        and len(set(checksums.values())) == 1
    )
    report = {
        "plan": plan.to_dict(),
        "profile": stream.profile,
        "seed": stream.seed,
        "ops": len(ops),
        "reserves": reserve_count,
        "scale_ops": scale_ops,
        "accepted": len(ledger.entries),
        "restarts": restarts,
        "promote": promote_info,
        "duplicate_checks": duplicate_checks,
        "ledger_violations": ledger.violations,
        "verdict_divergences": verdict_divergences[:20],
        "verdict_divergences_total": len(verdict_divergences),
        "replay_mismatches": replay_mismatches[:20],
        "duplicate_mismatches": duplicate_mismatches[:20],
        "pool_restore_mismatch": pool_restore_mismatch,
        "checksums": checksums,
        "state_equal": state_equal,
        "pool_equal": pool_equal,
        "passed": passed,
    }
    if owns_dir:
        shutil.rmtree(work, ignore_errors=True)
    return report
