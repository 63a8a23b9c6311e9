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


async def read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY_BYTES
) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on a clean EOF.

    Raises :class:`HttpError` on malformed framing — the caller answers
    it and closes (framing errors are not recoverable mid-stream).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests
        raise HttpError(400, "connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(431, "request head exceeds the header cap") from exc
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
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HttpError(400, "Content-Length is not an integer") from exc
        if length < 0:
            raise HttpError(400, "Content-Length is negative")
        if length > max_body:
            raise HttpError(413, f"body exceeds {max_body} bytes")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise HttpError(400, "connection closed mid-body") from exc
    elif method in ("POST", "PUT", "PATCH"):
        raise HttpError(411, "a request body requires Content-Length")
    return HttpRequest(
        method=method, path=path, query=query, headers=headers, body=body, version=version
    )


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


def response_bytes(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: tuple[tuple[str, str], ...] = (),
    keep_alive: bool = True,
) -> bytes:
    """Render one full HTTP/1.1 response."""
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


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
