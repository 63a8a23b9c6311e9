"""The asyncio HTTP/JSON gateway behind ``repro gateway``.

A production front door for the TCP reservation service: JSON-over-HTTP
endpoints (``POST /v1/reserve|probe|cancel``, ``GET /v1/status``),
bearer-token tenancy with per-tenant token buckets
(:mod:`repro.gateway.auth`), liveness at ``GET /healthz`` and Prometheus
text exposition at ``GET /metrics`` — all stdlib asyncio, no framework.

Request validation is *derived from* the wire registry
(:func:`repro.service.protocol.validate_payload`): the HTTP surface has
no second schema to drift from the NDJSON one.  Responses pass the
backend's JSON body through **verbatim** — the reply line's own bytes,
minus the newline; the HTTP layer only adds the status code and headers
— so every checksum/ledger tool that reads TCP responses reads gateway
responses unchanged.

Both hops are pipelined (HTTP/1.1 pipelining in front, FIFO NDJSON
behind): a connection's reader submits each request to the backend
without waiting for the reply, and its writer answers strictly in
request order, so many exchanges share the one backend connection and
the service's actor sees batches instead of one request at a time.

Status mapping: ``ok`` and domain *rejections* are 200 (a reject is a
successful decision, not a transport failure); ``MALFORMED`` 400,
``NOT_FOUND`` 404, ``CONFLICT`` 409, ``BUSY`` 429 (with ``Retry-After``
rendered from the admission controller's own ``retry_after`` — one
back-off source, never two), ``SHUTTING_DOWN`` 503, anything else 500; a dead
backend is 502.  The gateway's own token-bucket limit is also 429,
rendered through the same :func:`~repro.gateway.http.format_retry_after`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, NamedTuple

from ..errors import BusyError, error_payload
from ..service.batching import ready_runs
from ..service.client import ServiceClient
from ..service.protocol import READ_CHUNK_BYTES, ProtocolError, validate_payload
from .auth import TenantLimiter, TokenTable
from .http import (
    MAX_BODY_BYTES,
    HttpError,
    HttpRequest,
    RequestBuffer,
    format_retry_after,
    json_body,
    response_bytes,
)
from .prom import PromRegistry

__all__ = ["GatewayConfig", "Gateway", "serve_gateway"]

#: error code -> HTTP status for proxied backend errors
_STATUS_FOR = {
    "MALFORMED": 400,
    "NOT_FOUND": 404,
    "CONFLICT": 409,
    "REJECTED": 200,  # a domain verdict, not a transport failure
    "BUSY": 429,
    "SHUTTING_DOWN": 503,
    "INTERNAL": 500,
}

#: the data-plane ops POSTable under /v1/ (rate-limited per tenant), by route
_DATA_ROUTES = {f"/v1/{op}": op for op in ("reserve", "probe", "cancel")}

#: pool mutations accepted by POST /v1/admin/scale (authenticated but not
#: rate-limited: an operator shrinking an overloaded pool must get through)
_SCALE_ACTIONS = ("add_servers", "drain", "remove")

#: endpoint label echoed in /v1/admin/scale edge errors raised before the
#: action — the actual wire op — is known; deliberately not a wire op
_SCALE_LABEL = "scale"

#: requests one HTTP connection may have read and not yet answered; its
#: reader stops there until the writer has flushed some.  A constant, not
#: a knob: it is the actor's ``max_batch`` — deep enough for one
#: connection to fill a batch, and a client that never reads its
#: responses costs this many held replies, not its whole backlog.
PIPELINE_DEPTH = 64


class _Reply(NamedTuple):
    """One response minus what the connection decides (``Connection:``)."""

    status: int
    body: bytes
    headers: tuple[tuple[str, str], ...] = ()
    content_type: str = "application/json"


@dataclass(slots=True)
class _Exchange:
    """A request submitted to the backend: who asked, and the reply line to come."""

    op: str
    tenant: str
    message: dict[str, Any]
    line: asyncio.Future[bytes]


@dataclass(slots=True)
class _Pending:
    """One request read off an HTTP connection and not yet answered on it."""

    started: float  # perf_counter() when the request was parsed
    keep_alive: bool
    answer: _Reply | _Exchange

    def waits_on(self) -> asyncio.Future[bytes] | None:
        answer = self.answer
        return answer.line if isinstance(answer, _Exchange) else None


@dataclass(slots=True)
class GatewayConfig:
    """Operational knobs for one gateway instance (see ``docs/gateway.md``)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the chosen port is printed on boot
    backend_host: str = "127.0.0.1"
    backend_port: int = 0  # the TCP reservation service to front
    token_file: str | None = None  # token:tenant lines; None = open mode
    rate: float = 1000.0  # tokens/second refill per tenant
    burst: float = 2000.0  # bucket capacity per tenant
    status_timeout: float = 2.0  # budget for the backend status probe in /metrics


class Gateway:
    """One HTTP front door over one pipelined TCP backend connection."""

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        if config.token_file:
            self.tokens = TokenTable.from_file(Path(config.token_file))
        else:
            self.tokens = TokenTable()
        self.limiter = TenantLimiter(config.rate, config.burst)
        self._server: asyncio.base_events.Server | None = None
        #: the single backend connection, shared by every HTTP client;
        #: replies come back in submission order, whoever submitted
        self._backend = ServiceClient(config.backend_host, config.backend_port)
        #: the request-reading task of each open HTTP connection
        self._readers: set[asyncio.Task[None]] = set()

        self.registry = PromRegistry()
        self.requests_total = self.registry.counter(
            "repro_gateway_requests_total", "Requests by tenant and endpoint"
        )
        self.rejects_total = self.registry.counter(
            "repro_gateway_rejects_total",
            "Requests refused at the edge, by tenant and reason",
        )
        self.replayed_total = self.registry.counter(
            "repro_gateway_replayed_total",
            "Duplicate rids answered from the backend decision log",
        )
        self.latency = self.registry.summary(
            "repro_gateway_request_seconds",
            "Gateway request latency, parsed to rendered (reservoir percentiles), seconds",
        )
        self.backend_up = self.registry.gauge(
            "repro_gateway_backend_up", "1 when the backend TCP service answers"
        )
        self.backend_inflight = self.registry.gauge(
            "repro_gateway_backend_inflight",
            "Requests submitted to the backend and not yet answered (sampled)",
        )
        self.service_gauges = {
            name: self.registry.gauge(f"repro_service_{name}", help_text)
            for name, help_text in (
                ("accepted_total", "Backend accepted reservations (sampled)"),
                ("rejected_total", "Backend rejected reservations (sampled)"),
                ("shed_total", "Backend admission sheds (sampled)"),
                ("replayed_total", "Backend decision-log replays (sampled)"),
                ("decided", "Backend decision-table size (sampled)"),
                ("service_latency_ms", "Backend actor service latency, by quantile"),
                ("pool_servers", "Backend pool membership by state (sampled)"),
                ("queue_delay_ewma_ms", "Backend admission queue-delay EWMA (sampled)"),
                ("shed_rate", "Backend admission shed-rate EWMA (sampled)"),
            )
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "gateway not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_BODY_BYTES,
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
        # no further requests are read; each open connection answers what
        # it already owes, then closes
        for reading in list(self._readers):
            reading.cancel()
        if self._server is not None:
            await self._server.wait_closed()
        self._backend.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One HTTP connection: a task that reads, this one that answers.

        The reader submits each request to the backend without waiting;
        responses leave strictly in request order, everything already
        answered in one ``write``.  The reader holds a slot per request
        read and not yet flushed, so it stops at :data:`PIPELINE_DEPTH`.
        """
        writer.transport.max_size = READ_CHUNK_BYTES
        responses: asyncio.Queue[_Pending | None] = asyncio.Queue()
        slots = asyncio.Semaphore(PIPELINE_DEPTH)
        reading = asyncio.create_task(self._read_requests(reader, responses, slots))
        self._readers.add(reading)
        try:
            async for run in ready_runs(responses, _Pending.waits_on):
                chunks = []
                for pending in run:
                    answer = pending.answer
                    if isinstance(answer, _Exchange):
                        line = answer.line
                        if line.done() and not line.cancelled() and not line.exception():
                            answer = self._reply_for(answer, line.result())
                        else:
                            answer = await self._settle(answer)
                    self.latency.observe(perf_counter() - pending.started)
                    status, body, headers, content_type = answer
                    chunks.append(
                        response_bytes(
                            status, body, content_type, headers, pending.keep_alive
                        )
                    )
                writer.write(b"".join(chunks))
                await writer.drain()
                for _ in run:
                    slots.release()
        except (ConnectionError, OSError):
            pass  # client went away; nothing to answer
        finally:
            self._readers.discard(reading)
            reading.cancel()
            writer.close()

    async def _read_requests(
        self,
        reader: asyncio.StreamReader,
        responses: asyncio.Queue[_Pending | None],
        slots: asyncio.Semaphore,
    ) -> None:
        """Parse requests until EOF, a framing error or a last request.

        A read takes whatever the socket holds, and every request it
        completes is parsed from the connection's own buffer without a
        further wait.  A request holds its slot from before it is parsed.
        """
        framing = RequestBuffer()
        try:
            while True:
                await slots.acquire()
                try:
                    request = framing.next_request()
                    while request is None:
                        chunk = await reader.read(READ_CHUNK_BYTES)
                        if not chunk:
                            framing.eof()
                            return  # clean EOF between requests
                        framing.feed(chunk)
                        request = framing.next_request()
                except HttpError as exc:
                    # framing is not recoverable mid-stream: answer and close
                    error = _error_reply(exc.status, exc.message)
                    responses.put_nowait(_Pending(perf_counter(), False, error))
                    break
                started = perf_counter()
                if request.path == "/metrics" and request.method == "GET":
                    answer: _Reply | _Exchange = await self._handle_metrics()
                else:
                    answer = self._dispatch(request)
                responses.put_nowait(_Pending(started, request.keep_alive, answer))
                if not request.keep_alive:
                    break
        except (ConnectionError, OSError):
            pass  # client went away; the writer answers what it can
        finally:
            responses.put_nowait(None)

    def _dispatch(self, request: HttpRequest) -> _Reply | _Exchange:
        op = _DATA_ROUTES.get(request.path)
        if op is not None:
            if request.method != "POST":
                return _error_reply(405, f"{op} is POST-only")
            return self._handle_op(request, op, rate_limited=True)
        if request.path == "/healthz":
            if request.method != "GET":
                return _error_reply(405, "healthz is GET-only")
            return _json_reply(200, {"ok": True, "backend": self._backend.connected})
        if request.path == "/metrics":
            return _error_reply(405, "metrics is GET-only")
        if request.path == "/v1/status":
            if request.method != "GET":
                return _error_reply(405, "status is GET-only")
            return self._handle_op(request, "status", rate_limited=False)
        if request.path == "/v1/admin/pool":
            if request.method != "GET":
                return _error_reply(405, "pool is GET-only")
            return self._handle_op(request, "pool_status", rate_limited=False)
        if request.path == "/v1/admin/scale":
            if request.method != "POST":
                return _error_reply(405, "scale is POST-only")
            return self._handle_op(request, _SCALE_LABEL, rate_limited=False)
        return _error_reply(404, f"no route for {request.path!r}")

    # ------------------------------------------------------------------
    # the data plane
    # ------------------------------------------------------------------

    def _handle_op(
        self, request: HttpRequest, op: str, rate_limited: bool
    ) -> _Reply | _Exchange:
        """Authenticate → limit → validate → submit, for every endpoint.

        Answers what the edge can answer itself; otherwise the request is
        on its way to the backend when this returns and :meth:`_settle`
        renders the reply.  ``POST /v1/admin/scale`` arrives as ``op ==
        "scale"`` and names its wire op in the body; once that is
        resolved it is the standard path, so validation still derives
        from the registry and the backend's JSON verdict passes through
        verbatim.
        """
        tenant = self.tokens.authenticate(request.headers.get("authorization"))
        if tenant is None:
            self.rejects_total.inc(tenant="unknown", reason="unauthorized")
            return _json_reply(
                401,
                {"ok": False, "op": op, "error": _edge_error("unauthorized")},
                (("WWW-Authenticate", 'Bearer realm="repro"'),),
            )
        endpoint = op
        body: dict[str, Any] | None = None
        if op == _SCALE_LABEL:
            try:
                op, body = _scale_op(request)
            except (ProtocolError, HttpError) as exc:
                return self._malformed(tenant, op, exc)
            endpoint = f"scale:{op}"
        self.requests_total.inc(tenant=tenant, endpoint=endpoint)
        if rate_limited:
            retry_after = self.limiter.acquire(tenant)
            if retry_after > 0.0:
                self.rejects_total.inc(tenant=tenant, reason="rate_limited")
                busy = BusyError(
                    f"tenant {tenant!r} exceeded {self.limiter.rate:g} req/s",
                    retry_after=retry_after,
                )
                return _json_reply(
                    429,
                    {"ok": False, "op": op, "error": busy.payload()},
                    (("Retry-After", format_retry_after(retry_after)),),
                )
        try:
            message = validate_payload(op, request.json() if body is None else body)
        except (ProtocolError, HttpError) as exc:
            return self._malformed(tenant, op, exc)
        try:
            return _Exchange(op, tenant, message, self._backend.submit(message))
        except ValueError as exc:
            # the message cannot be put on the wire: ``seq`` is passed
            # through unchecked and NaN is not JSON
            return self._malformed(tenant, op, ProtocolError(str(exc)))

    def _malformed(
        self, tenant: str, op: str, exc: ProtocolError | HttpError
    ) -> _Reply:
        self.rejects_total.inc(tenant=tenant, reason="malformed")
        # same MALFORMED payload the TCP front door would answer, so
        # response classification is transport-independent
        if isinstance(exc, HttpError):
            exc = ProtocolError(exc.message)
        return _json_reply(400, {"ok": False, "op": op, "error": error_payload(exc)})

    async def _settle(self, exchange: _Exchange) -> _Reply:
        """The backend's reply to ``exchange`` out as HTTP, once it has come."""
        try:
            line = await self._reply_line(exchange)
        except (ConnectionError, ValueError) as exc:
            return self._backend_down(exchange, exc)
        return self._reply_for(exchange, line)

    def _reply_for(self, exchange: _Exchange, line: bytes) -> _Reply:
        """The backend's reply line as HTTP, body verbatim.

        Only a reply that may be an error or a replay is decoded.  Every
        backend reply has a top-level ``ok`` and is written compact
        (``protocol.WIRE_ENCODER``, or assembled equal to it), so an
        error holds ``"ok":false`` and a replay ``"replayed":true``; a
        line holding ``"ok":true`` and neither is a plain success.  The
        test can only over-approximate: a ``seq`` that nests those keys
        costs a decode, never a wrong status.
        """
        if b'"ok":true' in line and b'"ok":false' not in line and b'"replayed":true' not in line:
            self.backend_up.set(1)
            return _Reply(200, line[:-1])
        try:
            response = json.loads(line)
        except ValueError as exc:
            return self._backend_down(exchange, exc)
        self.backend_up.set(1)
        body = line[:-1]  # ``protocol.encode`` and ``json_body`` agree byte for byte
        tenant = exchange.tenant
        if response.get("ok"):
            if response.get("replayed"):
                self.replayed_total.inc(tenant=tenant)
            return _Reply(200, body)
        error = response.get("error") or {}
        status = _STATUS_FOR.get(error.get("code"), 500)
        headers: tuple[tuple[str, str], ...] = ()
        if status == 429:
            # the admission controller's own estimate: the body carries
            # it verbatim, the header is the same number through the one
            # formatter — never a second back-off source
            self.rejects_total.inc(tenant=tenant, reason="busy")
            retry_after = error.get("retry_after")
            if retry_after is not None:
                headers = (("Retry-After", format_retry_after(float(retry_after))),)
        return _Reply(status, body, headers)

    def _backend_down(self, exchange: _Exchange, exc: Exception) -> _Reply:
        """The 502 for an exchange that got no usable reply."""
        self.rejects_total.inc(tenant=exchange.tenant, reason="backend_down")
        self.backend_up.set(0)
        return _json_reply(
            502,
            {
                "ok": False,
                "op": exchange.op,
                "error": _edge_error("backend_down", str(exc)),
            },
        )

    async def _reply_line(self, exchange: _Exchange) -> bytes:
        """The reply to one submitted request, resent once if its connection died.

        A lost connection fails every exchange in flight on it
        (:class:`~repro.service.client.ServiceClient`; the next submit
        reopens).  Most ops are then resent, once: ``reserve`` is
        rid-keyed exactly-once (the resend returns the recorded verdict
        instead of double-applying) and ``probe``/``status`` are
        read-only.  ``cancel`` is the exception — the backend re-decides
        a resent cancel, so a first attempt that applied but lost its
        reply would come back ``NOT_FOUND``; rather than launder a cancel
        that actually succeeded into a 404, the gateway surfaces the
        transport error (502) and leaves the retry decision to the
        caller, who knows the outcome is ambiguous.  Pool mutations are
        retriable only when they carry an ``aid`` (the backend's
        admin-idempotency key); without one a resent ``add_servers``
        would grow the pool twice.

        A connection's writer settles its exchanges one at a time in
        request order, so its resends reach the fresh backend connection
        in the order the requests came.
        """
        try:
            return await exchange.line
        except ConnectionError:
            message = exchange.message
            op = message.get("op")
            if op == "cancel" or (op in _SCALE_ACTIONS and message.get("aid") is None):
                raise
        return await self._backend.submit(exchange.message)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    async def _handle_metrics(self) -> _Reply:
        """Render the registry, refreshing service-level gauges first."""
        message = {"op": "status"}
        probe = _Exchange("status", "", message, self._backend.submit(message))
        try:
            # on a timeout the probe is abandoned, not the connection: its
            # late reply is dropped when it arrives
            status = json.loads(
                await asyncio.wait_for(
                    self._reply_line(probe), timeout=self.config.status_timeout
                )
            )
        except (ConnectionError, ValueError, asyncio.TimeoutError):
            self.backend_up.set(0)
        else:
            self.backend_up.set(1)
            metrics = status.get("metrics", {})
            gauges = self.service_gauges
            gauges["accepted_total"].set(metrics.get("accepted", 0))
            gauges["rejected_total"].set(metrics.get("rejected_total", 0))
            gauges["shed_total"].set(metrics.get("shed", 0))
            gauges["replayed_total"].set(metrics.get("replayed", 0))
            gauges["decided"].set(status.get("decided", 0))
            pool = status.get("pool", {})
            for state in ("active", "draining", "removed", "total"):
                gauges["pool_servers"].set(pool.get(state, 0), state=state)
            admission = status.get("admission", {})
            gauges["queue_delay_ewma_ms"].set(admission.get("queue_delay_ewma_ms", 0.0))
            gauges["shed_rate"].set(admission.get("shed_rate", 0.0))
            latency = metrics.get("service_latency", {})
            for quantile in ("50", "95", "99"):
                gauges["service_latency_ms"].set(
                    latency.get(f"p{quantile}_ms", 0.0), quantile=f"0.{quantile}"
                )
        self.backend_inflight.set(self._backend.inflight)
        return _Reply(
            200,
            self.registry.render().encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )


def _scale_op(request: HttpRequest) -> tuple[str, dict[str, Any]]:
    """The wire op a ``/v1/admin/scale`` body names, and the body without it."""
    body = dict(request.json())
    action = body.pop("action", None)
    if action not in _SCALE_ACTIONS:
        raise ProtocolError(
            f"scale action must be one of {', '.join(_SCALE_ACTIONS)}, got {action!r}"
        )
    return action, body


def _edge_error(reason: str, detail: str = "") -> dict[str, Any]:
    """An error payload minted at the gateway (not proxied from the backend)."""
    messages = {
        "unauthorized": "missing or unknown bearer token",
        "backend_down": f"backend unavailable: {detail}" if detail else "backend unavailable",
    }
    codes = {"unauthorized": 401, "backend_down": 502}
    return {
        "code": reason.upper(),
        "http_status": codes[reason],
        "message": messages[reason],
    }


def _json_reply(
    status: int,
    payload: dict[str, Any],
    headers: tuple[tuple[str, str], ...] = (),
) -> _Reply:
    return _Reply(status, json_body(payload), headers)


def _error_reply(status: int, message: str) -> _Reply:
    return _json_reply(
        status,
        {"ok": False, "error": {"code": "HTTP", "http_status": status, "message": message}},
    )


async def serve_gateway(config: GatewayConfig, ready_line: bool = True) -> None:
    """Boot a gateway and serve until cancelled."""
    gateway = Gateway(config)
    await gateway.start()
    if ready_line:
        mode = "open (no tokens)" if gateway.tokens.open_mode else "bearer-token"
        print(
            f"repro gateway: listening on {config.host}:{gateway.port} -> "
            f"backend {config.backend_host}:{config.backend_port} "
            f"(auth: {mode}, rate: {config.rate:g}/s burst {config.burst:g})",
            flush=True,
        )
    try:
        await asyncio.Event().wait()
    except asyncio.CancelledError:
        await gateway.stop()
        raise
