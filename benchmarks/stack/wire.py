"""The wire side: boot the real processes, drive them over one connection.

:class:`Sut` starts ``repro serve`` (and ``repro gateway`` for an HTTP
workload) as subprocesses, the way ``bench_service.py``/``bench_gateway.py``
do, and reads what an outsider can: per-process CPU from ``/proc``, the
``status`` op, the gateway's ``/metrics``, and peak RSS from ``/proc`` too.
The three phase drivers (:func:`solo`, :func:`closed`, :func:`paced`) use
one blocking socket from this one process.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import repro
from repro.service.protocol import encode

from streams import N_SERVERS, Q_SLOTS, TAU

_READY = re.compile(r"listening on [0-9.]+:(\d+)")
_CONTENT_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.IGNORECASE)
_CLK_TCK = os.sysconf("SC_CLK_TCK")
# A fixed trim threshold for glibc malloc.  Left to adapt at run time, whether
# the gateway hands its freed heap top back to the kernel and faults it in
# again on every request (3.9 minor faults and +50 % gateway CPU per request,
# against 0.002 faults) was decided by the exact heap layout at boot - which
# the length of the checkout's path in PYTHONPATH, or one more variable in the
# environment, flips.  That is a property of where the benchmark was unpacked,
# not of the commit under test.
_ENV = dict(
    os.environ,
    PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
    MALLOC_TRIM_THRESHOLD_=str(64 << 20),
)


def http_post(message: dict[str, Any]) -> bytes:
    """The wire message as one keep-alive ``POST /v1/<op>``."""
    body = json.dumps(message, separators=(",", ":")).encode()
    return (
        f"POST /v1/{message['op']} HTTP/1.1\r\nhost: bench\r\n"
        f"content-type: application/json\r\ncontent-length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


def payload(message: dict[str, Any], http: bool) -> bytes:
    """What the client writes to its socket for one message."""
    return http_post(message) if http else encode(message)


class Connection:
    """One client socket plus reply framing (NDJSON lines or HTTP bodies)."""

    def __init__(self, port: int, http: bool) -> None:
        self.http = http
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    def receive(self) -> list[bytes]:
        """Block for more bytes; return the reply bodies now complete."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        buffer = self._buffer
        buffer += data
        if not self.http:
            *lines, rest = bytes(buffer).split(b"\n")
            self._buffer = bytearray(rest)
            return lines
        bodies = []
        while True:
            head_end = buffer.find(b"\r\n\r\n")
            if head_end < 0:
                break
            length = int(_CONTENT_LENGTH.search(buffer, 0, head_end).group(1))
            body_end = head_end + 4 + length
            if len(buffer) < body_end:
                break
            bodies.append(bytes(buffer[head_end + 4 : body_end]))
            del buffer[:body_end]
        return bodies

    def rpc(self, payload: bytes) -> dict[str, Any]:
        """One request, one reply; nothing else may be in flight."""
        self.sock.sendall(payload)
        while True:
            bodies = self.receive()
            if bodies:
                return json.loads(bodies[0])

    def status(self) -> dict[str, Any]:
        if self.http:
            return self.rpc(b"GET /v1/status HTTP/1.1\r\nhost: bench\r\n\r\n")
        return self.rpc(encode({"op": "status"}))

    def close(self) -> None:
        self.sock.close()


class Sut:
    """The system under test: fresh processes, an open client connection.

    ``setup_s`` is spawn → first ``status`` reply on the client's
    connection (through the gateway for an HTTP workload).
    """

    def __init__(self, http: bool, work_dir: Path) -> None:
        self.processes: list[subprocess.Popen] = []
        self.gateway_port = 0
        self.connection: Connection | None = None
        spawned = perf_counter()
        try:
            # always with a decision log (flushed, not fsynced), as deployed
            self.serve_port = self._spawn(
                "serve", "--servers", str(N_SERVERS), "--tau", str(TAU),
                "--q-slots", str(Q_SLOTS), "--log-dir", str(work_dir / "declog"),
            )
            if http:
                # the edge limiter opened wide, as bench_gateway.py does:
                # a replay must never be 429'd into divergence
                self.gateway_port = self._spawn(
                    "gateway", "--backend-port", str(self.serve_port),
                    "--rate", "1000000", "--burst", "1000000",
                )
            self.connection = Connection(self.gateway_port or self.serve_port, http)
            self.connection.status()
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - spawned

    def _spawn(self, *args: str) -> int:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=_ENV, text=True,
        )
        self.processes.append(process)
        line = process.stdout.readline()
        match = _READY.search(line)
        if match is None:
            raise RuntimeError(f"repro {args[0]} failed to boot: {line!r}")
        return int(match.group(1))

    def cpu_seconds(self) -> list[float]:
        """user+sys CPU seconds so far, per process (serve, then gateway)."""
        out = []
        for process in self.processes:
            stat = Path(f"/proc/{process.pid}/stat").read_text()
            fields = stat[stat.rindex(")") + 2 :].split()
            out.append((int(fields[11]) + int(fields[12])) / _CLK_TCK)
        return out

    def gateway_metrics(self) -> str:
        url = f"http://127.0.0.1:{self.gateway_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.read().decode()

    def stop(self) -> float:
        """Stop every process, wait for each; returns their summed peak RSS, MB.

        The peak is ``VmHWM`` read while the process still runs, not
        ``ru_maxrss`` from ``wait4``: on ``exec`` Linux folds the spawning
        process's own high-water mark into the child's ``ru_maxrss``, which
        would report this client's memory as the server's.
        """
        if self.connection is not None:
            self.connection.close()
        rss_kb = 0
        for process in reversed(self.processes):
            if process.poll() is None:
                status = Path(f"/proc/{process.pid}/status").read_text()
                rss_kb += int(status[status.index("VmHWM:") + 6 :].split(None, 1)[0])
                process.send_signal(signal.SIGTERM)
                process.wait()
            process.stdout.close()
        self.processes = []
        return rss_kb / 1024.0


@dataclass
class Phase:
    """What one phase saw: raw reply bodies in order, and its clocks."""

    replies: list[bytes] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # seconds, one per reply
    wall_s: float = 0.0  # first send → last reply
    sent: int = 0
    late: list[float] = field(default_factory=list)  # paced: send − due, seconds
    backlog_end: int = 0  # paced: unanswered at the last send

    def extend(self, part: "Phase") -> None:
        """Append a later stretch of the same phase on the same connection."""
        self.replies += part.replies
        self.latencies += part.latencies
        self.late += part.late
        self.wall_s += part.wall_s
        self.sent += part.sent
        self.backlog_end = part.backlog_end


def solo(connection: Connection, payloads: list[bytes], cap_s: float) -> Phase:
    """Closed loop, one request in flight: a caller waiting for its reply."""
    phase = Phase()
    sock, receive = connection.sock, connection.receive
    started = perf_counter()
    for payload in payloads:
        sent_at = perf_counter()
        if sent_at - started > cap_s:
            break
        sock.sendall(payload)
        phase.sent += 1
        bodies = receive()
        while not bodies:
            bodies = receive()
        phase.latencies.append(perf_counter() - sent_at)
        phase.replies += bodies
    phase.wall_s = perf_counter() - started
    return phase


def closed(connection: Connection, payloads: list[bytes], cap_s: float, window: int) -> Phase:
    """Closed loop, ``window`` requests pipelined in flight on the connection."""
    phase = Phase()
    sock, receive, replies = connection.sock, connection.receive, phase.replies
    total = len(payloads)
    started = perf_counter()
    sock.sendall(b"".join(payloads[:window]))
    phase.sent = min(window, total)
    while len(replies) < phase.sent:
        replies += receive()
        if phase.sent < total and perf_counter() - started > cap_s:
            total = phase.sent  # over the time cap: drain what is in flight
        upto = min(total, len(replies) + window)
        if upto > phase.sent:
            sock.sendall(b"".join(payloads[phase.sent : upto]))
            phase.sent = upto
    phase.wall_s = perf_counter() - started
    return phase


def paced(connection: Connection, payloads: list[bytes], rate: float) -> Phase:
    """Open loop at a constant ``rate``; each request is timed from when it was due."""
    phase = Phase()
    sock, replies = connection.sock, phase.replies
    total = len(payloads)
    started = perf_counter()
    while len(replies) < total:
        now = perf_counter()
        due_count = min(total, int((now - started) * rate) + 1)
        if due_count > phase.sent:
            sock.sendall(b"".join(payloads[phase.sent : due_count]))
            sent_at = perf_counter()
            phase.late += [
                sent_at - (started + i / rate) for i in range(phase.sent, due_count)
            ]
            phase.sent = due_count
            if phase.sent == total:
                phase.backlog_end = total - len(replies)
        if phase.sent < total:
            wait = max(0.0, started + phase.sent / rate - perf_counter())
        else:
            wait = sock.gettimeout()
        if select.select([sock], [], [], wait)[0]:
            for body in connection.receive():
                phase.latencies.append(perf_counter() - (started + len(replies) / rate))
                replies.append(body)
        elif phase.sent == total:
            raise TimeoutError(f"{total - len(replies)} paced replies never came")
    phase.wall_s = perf_counter() - started
    return phase
