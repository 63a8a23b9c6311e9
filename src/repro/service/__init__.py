"""`repro serve` — an online co-allocation server, and its client.

The paper's algorithm is explicitly *online*: requests arrive one at a
time and must be answered in ``O((log N)^2)``.  This package wraps the
co-allocator in the deployment shape that claim implies — a standing
reservation daemon speaking newline-delimited JSON over TCP:

* :mod:`~repro.service.protocol` — the wire format (``reserve`` /
  ``probe`` / ``cancel`` / ``status`` / ``snapshot`` / ``shutdown``);
* :mod:`~repro.service.server` — the asyncio server; a **single-writer
  actor loop** owns the calendar, everything else only passes messages;
* :mod:`~repro.service.admission` — bounded admission queue with
  load-shedding backpressure (typed ``BUSY`` + ``retry_after``);
* :mod:`~repro.service.batching` — micro-batching of queued requests
  between event-loop ticks;
* :mod:`~repro.service.snapshot` — versioned, checksummed calendar
  snapshots so a restarted server resumes its reservations;
* :mod:`~repro.service.metrics` — per-request latency/queue/shed
  telemetry surfaced via ``status`` and periodic log lines;
* :mod:`~repro.service.client` — :class:`ServiceClient`, the one
  request/reply exchange the gateway, the follower and the CLI share;
* :mod:`~repro.service.loadgen` — the :class:`ShadowLedger` with which
  the chaos plans and ``benchmarks/stack`` re-verify every accepted
  reservation (no double-booking, ``start >= s_r``).

See ``docs/service.md`` for the protocol spec and operational knobs.
"""

from .admission import AdmissionController
from .metrics import ServiceMetrics
from .protocol import PROTOCOL_VERSION, ProtocolError, decode_line, encode
from .server import ReservationService, ServiceConfig
from .snapshot import SNAPSHOT_VERSION, SnapshotError, read_snapshot, write_snapshot

__all__ = [
    "AdmissionController",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReservationService",
    "SNAPSHOT_VERSION",
    "ServiceConfig",
    "ServiceMetrics",
    "SnapshotError",
    "decode_line",
    "encode",
    "read_snapshot",
    "write_snapshot",
]
