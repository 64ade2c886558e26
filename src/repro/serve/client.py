"""Thin blocking client for the simulation service.

Stdlib-only (``http.client`` + a Unix-socket transport); no asyncio on
the client side. Used by the ``campaign submit/status/fetch``
subcommands and the serve tests, and importable by anything else
that wants to talk to a running daemon::

    from repro.serve.client import ServeClient
    client = ServeClient("unix:/tmp/serve/serve.sock")
    job_id = client.submit(points, priority=1)
    client.wait(job_id)
    rows = client.result(job_id)        # results.csv row documents
    results = client.result(job_id, full=True)   # list[SystemResult]

``wait()`` polls; with ``tolerate_disconnects=True`` it rides out a
server restart (connection errors count against the overall deadline,
not as failures), which is what lets a campaign survive a daemon
SIGTERM + resume without the client noticing anything but latency.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import socket
import time
from typing import Any, Iterator

from ..exec.serialize import result_from_dict
from ..sim.runner import DesignPoint
from .protocol import parse_address


def _now() -> float:
    """Monotonic clock for poll deadlines.

    The only clock the client reads; it bounds how long ``wait*()``
    polls and never appears in a request, result, or cache key.
    """
    # repro: allow(determinism) — poll-deadline clock, never in payloads
    return time.monotonic()


def _sleep(seconds: float) -> None:
    """Poll-interval sleep (indirected so tests can fake the clock)."""
    time.sleep(seconds)


def poll_jitter(token: str, attempt: int) -> float:
    """Deterministic jitter factor in ``[0.75, 1.25]``.

    Seeded from ``(token, attempt)`` via sha256 — independent of
    ``repro.rng`` (no simulation stream is perturbed by polling) and of
    the host (no entropy read), yet different tokens desynchronise, so
    a thousand clients waiting on jobs submitted together do not
    stampede the daemon in lockstep.
    """
    digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
    return 0.75 + 0.5 * int.from_bytes(digest[:4], "big") / 0xFFFFFFFF


def poll_delays(token: str, base_s: float,
                cap_s: float) -> Iterator[float]:
    """Jittered exponential-backoff delays: ``base_s`` doubling up to
    ``cap_s``, each scaled by :func:`poll_jitter`.

    The cap bounds total poll traffic: a job that takes wall time ``T``
    costs ``O(log2(cap_s / base_s) + T / cap_s)`` status requests
    instead of the ``T / base_s`` a fixed interval would issue.
    """
    attempt = 0
    while True:
        delay = min(base_s * (2 ** min(attempt, 30)), cap_s)
        yield delay * poll_jitter(token, attempt)
        attempt += 1


class ServeError(RuntimeError):
    """The server answered with an error status."""

    def __init__(self, status: int, payload: Any):
        self.status = status
        self.payload = payload
        message = payload.get("error") if isinstance(payload, dict) \
            else str(payload)
        super().__init__(f"HTTP {status}: {message}")


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` transport over an ``AF_UNIX`` socket."""

    def __init__(self, path: str, timeout: float):
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout)
            sock.connect(self._path)
        except BaseException:
            sock.close()
            raise
        self.sock = sock


def _point_fields(point: Any) -> dict[str, Any]:
    if isinstance(point, DesignPoint):
        return point.as_dict()
    if isinstance(point, dict):
        return point
    raise TypeError(f"expected DesignPoint or dict, got "
                    f"{type(point).__name__}")


class ServeClient:
    """One server address; connections are opened per request."""

    def __init__(self, address: str, timeout_s: float = 30.0):
        self.address = address
        self.kind, self.target = parse_address(address)
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    def request(self, method: str, path: str,
                body: Any | None = None) -> tuple[int, Any]:
        """One round trip; returns ``(status, decoded_json)``.

        Raises ``OSError``/``http.client.HTTPException`` subclasses on
        transport failures (server down, socket missing, mid-restart).
        """
        status, _, raw = self.request_raw(method, path, body)
        return status, json.loads(raw) if raw else {}

    def request_raw(self, method: str, path: str,
                    body: Any | None = None) -> tuple[int, str, bytes]:
        """One round trip without decoding; returns
        ``(status, content_type, raw_body)``."""
        if self.kind == "unix":
            conn: http.client.HTTPConnection = _UnixHTTPConnection(
                self.target, self.timeout_s)
        else:
            host, port = self.target
            conn = http.client.HTTPConnection(host, port,
                                              timeout=self.timeout_s)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode()
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            content_type = response.getheader("Content-Type", "")
            return response.status, content_type, raw
        finally:
            conn.close()

    def _call(self, method: str, path: str,
              body: Any | None = None) -> Any:
        status, document = self.request(method, path, body)
        if status >= 400:
            raise ServeError(status, document)
        return document

    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self._call("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        return self._call("GET", "/stats")

    def submit(self, points: list[Any], priority: int = 0,
               timeout_s: float | None = None) -> str:
        """Submit a job; returns its id once the server journaled it."""
        body: dict[str, Any] = {
            "points": [_point_fields(p) for p in points],
            "priority": priority,
        }
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._call("POST", "/submit", body)["id"]

    def status(self, job_id: str | None = None) -> dict[str, Any]:
        path = "/status" if job_id is None else f"/status?id={job_id}"
        return self._call("GET", path)

    def result(self, job_id: str, full: bool = False) -> list[Any]:
        """Results of a done job, in submitted point order.

        By default one compact row document per point
        (:func:`~repro.exec.serialize.result_row`: what ``results.csv``
        needs); ``full=True`` fetches the cache-schema documents and
        rebuilds full ``SystemResult`` objects. Raises
        :class:`ServeError`: 409 while the job is not done, 410 when a
        point's cache entry is gone or unreadable (no partial results).
        """
        if not full:
            return self._call("GET", f"/result?id={job_id}")["results"]
        document = self._call("GET", f"/result?id={job_id}&full=1")
        return [result_from_dict(fields) for fields in document["results"]]

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._call("POST", "/cancel", {"id": job_id})

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to drain and exit (same as SIGTERM)."""
        return self._call("POST", "/shutdown", {})

    # ------------------------------------------------------------------
    def wait_ready(self, timeout_s: float = 30.0,
                   poll_s: float = 0.05) -> dict[str, Any]:
        """Block until ``/healthz`` answers (server finished booting)."""
        deadline = _now() + timeout_s
        while True:
            try:
                return self.healthz()
            except (OSError, http.client.HTTPException) as error:
                if _now() >= deadline:
                    raise TimeoutError(
                        f"server at {self.address} not ready after "
                        f"{timeout_s:g}s ({error})") from None
                _sleep(poll_s)

    def wait(self, job_id: str, timeout_s: float = 600.0,
             poll_s: float = 0.1, max_poll_s: float = 5.0,
             tolerate_disconnects: bool = False) -> dict[str, Any]:
        """Poll until the job reaches a terminal state; returns it.

        Polling backs off exponentially from ``poll_s`` to
        ``max_poll_s`` with deterministic seeded jitter (see
        :func:`poll_delays`), capping total poll traffic per job at
        roughly ``timeout_s / max_poll_s`` requests while keeping
        short-job latency near ``poll_s``. No sleep is longer than a
        (jittered) quarter of the time waited so far, floored at
        ``poll_s``, so a job that finished is seen within about 25% of
        its runtime rather than up to a whole backoff step late. With
        ``tolerate_disconnects`` transport errors (the server is
        restarting) are retried until ``timeout_s`` runs out.
        """
        from .jobs import TERMINAL
        if max_poll_s < poll_s:
            max_poll_s = poll_s
        start = _now()
        deadline = start + timeout_s
        delays = poll_delays(job_id, poll_s, max_poll_s)
        attempt = 0
        while True:
            try:
                document = self.status(job_id)
                if document["state"] in TERMINAL:
                    return document
            except (OSError, http.client.HTTPException) as error:
                if not tolerate_disconnects:
                    raise
                if _now() >= deadline:
                    raise TimeoutError(
                        f"{job_id}: server unreachable past deadline "
                        f"({error})") from None
            now = _now()
            if now >= deadline:
                raise TimeoutError(
                    f"{job_id} not finished after {timeout_s:g}s")
            ceiling = max(poll_s, (now - start) / 4) \
                * poll_jitter(job_id, attempt)
            _sleep(min(next(delays), ceiling, deadline - now))
            attempt += 1
