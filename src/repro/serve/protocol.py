"""Wire protocol of the simulation service: HTTP/1.1 + JSON bodies.

The daemon speaks a deliberately tiny, curl-compatible subset of
HTTP/1.1 over a local socket — a Unix domain socket by default, TCP on
request. Each connection carries one request and one response
(``Connection: close``); bodies are UTF-8 JSON documents.

This module holds the pieces both ends share:

* :func:`parse_address` / :func:`format_address` — the one address
  syntax every CLI flag uses (``unix:/path/to.sock`` or ``host:port``),
* :func:`read_request` — asyncio-side request parser (server),
* :func:`response_bytes` / :func:`error_bytes` — response formatting,
* request size limits, so a confused client cannot balloon the daemon.

The HTTP subset: request line + headers + ``Content-Length``-framed
body. No chunked encoding, no keep-alive, no TLS — this is a loopback
service (see ``docs/serving.md`` for the trust model).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any
from urllib.parse import parse_qs, urlsplit

#: Upper bound on a request body (a submit carrying a few thousand
#: design points stays far below this).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Upper bound on the request line + headers block.
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 410: "Gone",
    413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class ProtocolError(ValueError):
    """A request that cannot be parsed or exceeds the size limits."""


# ----------------------------------------------------------------------
# Addresses
# ----------------------------------------------------------------------
def parse_address(address: str) -> tuple[str, Any]:
    """Parse a server address into ``("unix", path)`` or
    ``("tcp", (host, port))``.

    Accepted spellings::

        unix:/run/repro/serve.sock      tcp:127.0.0.1:8731
        /absolute/path.sock             127.0.0.1:8731
    """
    address = address.strip()
    if not address:
        raise ValueError("empty server address")
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ValueError(f"no socket path in {address!r}")
        return "unix", path
    if address.startswith("tcp:"):
        address = address[len("tcp:"):]
    elif address.startswith("/"):
        return "unix", address
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"bad server address {address!r}; expected unix:/path, "
            f"/path, or host:port")
    try:
        return "tcp", (host, int(port))
    except ValueError:
        raise ValueError(f"bad port in server address {address!r}") \
            from None


def format_address(kind: str, target: Any) -> str:
    if kind == "unix":
        return f"unix:{target}"
    host, port = target
    return f"{host}:{port}"


# ----------------------------------------------------------------------
# Server-side request parsing (asyncio streams)
# ----------------------------------------------------------------------
class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "body")

    def __init__(self, method: str, path: str,
                 query: dict[str, str], body: bytes):
        self.method = method
        self.path = path
        self.query = query
        self.body = body

    def json(self) -> Any:
        """Decode the body as JSON (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"request body is not JSON: {error}") \
                from None


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request; ``None`` on a cleanly closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # connection closed between requests
        raise ProtocolError("truncated request head") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError("request head exceeds limit") from None
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError("request head exceeds limit")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"bad request line {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    split = urlsplit(target)
    query = {key: values[-1]
             for key, values in parse_qs(split.query).items()}

    length = 0
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                raise ProtocolError(f"bad Content-Length {value!r}") \
                    from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(f"body of {length} bytes exceeds limit")
    body = await reader.readexactly(length) if length else b""
    return Request(method, split.path, query, body)


# ----------------------------------------------------------------------
# Response formatting (both sides)
# ----------------------------------------------------------------------
def response_bytes(status: int, document: Any) -> bytes:
    """Serialise one JSON response with framing headers."""
    body = json.dumps(document).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1") + body


def error_bytes(status: int, message: str) -> bytes:
    return response_bytes(status, {"error": message})
