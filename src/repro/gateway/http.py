"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

Just enough of RFC 9112 for a JSON API front door: request-line +
headers + ``Content-Length`` bodies, keep-alive by default for HTTP/1.1
and on request for HTTP/1.0, explicit caps on header and body sizes.  No chunked transfer coding (answered
with 411 — every stdlib and curl client sends ``Content-Length`` for
small JSON bodies), no trailers, no upgrade.

The parser is deliberately strict where it is cheap to be: an
over-long request line, too many headers, or an oversized body each get
their own status code instead of a generic 400, because the gateway's
callers are programs and precise errors shorten debugging loops.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Any

from ..service.protocol import WIRE_ENCODER

__all__ = [
    "HttpError",
    "HttpRequest",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "RequestBuffer",
    "format_retry_after",
    "http_request",
    "json_body",
    "json_response",
    "read_request",
    "response_bytes",
]

#: cap on the request line plus all headers
MAX_HEADER_BYTES = 16 << 10

#: cap on one request body (a reserve is ~100 bytes; 64 KiB is generous)
MAX_BODY_BYTES = 64 << 10

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that cannot be served; carries the HTTP status to answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(slots=True)
class HttpRequest:
    """One parsed request: method, split target, lower-cased headers, body."""

    method: str
    path: str
    query: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def json(self) -> dict[str, Any]:
        """The body as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}") from exc
        except RecursionError:
            # a body under the size cap can nest deeper than the parser recurses
            raise HttpError(400, "body is not valid JSON: nested too deeply") from None
        if not isinstance(payload, dict):
            raise HttpError(
                400, f"body must be a JSON object, got {type(payload).__name__}"
            )
        return payload

    @property
    def keep_alive(self) -> bool:
        """Whether the connection outlives this request's response.

        HTTP/1.1 persists unless told ``Connection: close``; an HTTP/1.0
        client waits for the close to know the response is over unless
        it asked for ``Connection: keep-alive``.
        """
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


def _parse_head(head: bytes | bytearray, max_body: int) -> tuple[HttpRequest, int]:
    """The request a head (its closing blank line included) opens, and its body length.

    The one grammar of a request head, for :func:`read_request` and
    :class:`RequestBuffer` alike; raises :class:`HttpError` on anything
    it cannot frame.
    """
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(431, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    path, _, query = target.partition("?")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding"):
        raise HttpError(411, "chunked bodies unsupported: send Content-Length")
    length = 0
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HttpError(400, "Content-Length is not an integer") from exc
        if length < 0:
            raise HttpError(400, "Content-Length is negative")
        if length > max_body:
            raise HttpError(413, f"body exceeds {max_body} bytes")
    elif method in ("POST", "PUT", "PATCH"):
        raise HttpError(411, "a request body requires Content-Length")
    return HttpRequest(method, path, query, headers, b"", version), length


async def read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY_BYTES
) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on a clean EOF.

    Raises :class:`HttpError` on malformed framing — the caller answers
    it and closes (framing errors are not recoverable mid-stream).  The
    gateway frames a connection through :class:`RequestBuffer` instead,
    every complete request of a read in one pass; this is the same
    grammar one request at a time.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise HttpError(400, "connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(431, "request head exceeds the header cap") from exc
    request, length = _parse_head(head, max_body)
    if length:
        try:
            request.body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "connection closed mid-body") from exc
    return request


class RequestBuffer:
    """The bytes one connection has sent, framed into requests.

    :meth:`feed` appends what a read returned, and :meth:`next_request`
    takes the next complete request off the front, so every request a
    read completes is parsed without another wait on the socket.  The
    errors and their statuses are :func:`read_request`'s: a head that
    cannot end within :data:`MAX_HEADER_BYTES` is 431 as soon as that
    many bytes have come without its end, and :meth:`eof` is a 400 when
    it leaves a request half sent.
    """

    __slots__ = ("_data", "_scanned", "_head")

    def __init__(self) -> None:
        self._data = bytearray()
        #: how far ``_data`` is known to hold no complete head
        self._scanned = 0
        #: a request whose head is parsed and whose body has not all come
        self._head: tuple[HttpRequest, int, int] | None = None

    def feed(self, chunk: bytes) -> None:
        self._data += chunk

    def next_request(self) -> HttpRequest | None:
        """The next complete request, or ``None`` until more bytes come."""
        data = self._data
        if self._head is None:
            end = data.find(b"\r\n\r\n", self._scanned)
            if end < 0:
                if len(data) >= MAX_HEADER_BYTES:
                    raise HttpError(431, f"request head exceeds {MAX_HEADER_BYTES} bytes")
                self._scanned = max(0, len(data) - 3)
                return None
            start = end + 4
            request, length = _parse_head(data[:start], MAX_BODY_BYTES)
            self._head = (request, start, start + length)
        request, start, stop = self._head
        if len(data) < stop:
            return None
        request.body = bytes(data[start:stop])
        del data[:stop]
        self._head = None
        self._scanned = 0
        return request

    def eof(self) -> None:
        """The peer has closed: a 400 if a request is left half sent."""
        if self._head is not None:
            raise HttpError(400, "connection closed mid-body")
        if self._data:
            raise HttpError(400, "connection closed mid-request")


def format_retry_after(retry_after: float) -> str:
    """The one rendering of a back-off hint for ``Retry-After`` headers.

    Both 429 paths — the gateway's own token-bucket limiter and a
    proxied ``BUSY`` from the admission controller — go through here,
    so the header can never disagree with the JSON body's
    ``retry_after`` beyond this single formatting rule: RFC 9110 allows
    only integer delta-seconds (or an HTTP-date), so the header is the
    estimate rounded *up* to a whole second, floored at 1 (a 0 would
    invite an immediate retry).  Clients that want the sub-second
    estimate read the JSON body's ``retry_after``, which keeps the
    precise float.
    """
    return str(max(1, math.ceil(retry_after)))


@functools.cache
def _head_parts(status: int, content_type: str, keep_alive: bool) -> tuple[bytes, bytes]:
    """A response head around its ``Content-Length`` value, rendered once."""
    reason = _REASONS.get(status, "Unknown")
    before = f"HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: "
    after = f"\r\nConnection: {'keep-alive' if keep_alive else 'close'}"
    return before.encode("latin-1"), after.encode("latin-1")


def response_bytes(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: tuple[tuple[str, str], ...] = (),
    keep_alive: bool = True,
) -> bytes:
    """Render one full HTTP/1.1 response.

    The head is the same per (status, content type, keep-alive) but for
    ``Content-Length``, so only that value and any ``extra_headers`` are
    formatted per response.
    """
    before, after = _head_parts(status, content_type, keep_alive)
    if extra_headers:
        extra = "".join(f"\r\n{name}: {value}" for name, value in extra_headers)
        after += extra.encode("latin-1")
    return b"%s%d%s\r\n\r\n%s" % (before, len(body), after, body)


def json_body(payload: dict[str, Any]) -> bytes:
    """A JSON response body: byte for byte ``protocol.encode`` minus the newline."""
    return WIRE_ENCODER.encode(payload).encode("utf-8")


def json_response(
    status: int,
    payload: dict[str, Any],
    extra_headers: tuple[tuple[str, str], ...] = (),
    keep_alive: bool = True,
) -> bytes:
    return response_bytes(
        status, json_body(payload), extra_headers=extra_headers, keep_alive=keep_alive
    )


async def http_request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    body: dict[str, Any] | None = None,
    headers: tuple[tuple[str, str], ...] = (),
) -> tuple[int, dict[str, str], dict[str, Any]]:
    """One client request/response exchange on an open keep-alive stream.

    The client the gateway's tests drive it with: returns ``(status,
    headers, json-body)``.  Raises :class:`ConnectionError` mid-exchange if the
    server goes away (callers reconnect and resend).
    """
    payload = b""
    if body is not None:
        payload = WIRE_ENCODER.encode(body).encode("utf-8")
    head = [f"{method} {path} HTTP/1.1", "Host: repro"]
    head.extend(f"{name}: {value}" for name, value in headers)
    if body is not None:
        head.append("Content-Type: application/json")
    head.append(f"Content-Length: {len(payload)}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload)
    await writer.drain()
    try:
        raw_head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("server closed mid-response") from exc
    lines = raw_head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    response_headers: dict[str, str] = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            response_headers[name.strip().lower()] = value.strip()
    length = int(response_headers.get("content-length", "0"))
    raw_body = await reader.readexactly(length) if length else b""
    parsed: dict[str, Any] = json.loads(raw_body.decode("utf-8")) if raw_body else {}
    return status, response_headers, parsed
