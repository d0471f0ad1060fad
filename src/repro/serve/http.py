"""The wire half of ``repro serve``: a stdlib asyncio HTTP/1.1 server.

Deliberately minimal — one short-lived connection per request
(``Connection: close``), no TLS, no chunked encoding — because the
protocol surface is five routes:

==========================  ===========================================
``GET /healthz``            liveness: ``{"status": "ok"}``
``GET /statsz``             serve counters + per-tier store telemetry
``GET /v1/figure/<cmd>``    run a figure; params in the query string
``POST /v1/figure``         run a figure; ``{"command", "params"}`` body
``POST /v1/admin/drain``    graceful drain; returns the drain report
==========================  ===========================================

Every response body is ``json.dumps(document, sort_keys=True)`` — a
pure function of the document — so concurrent identical requests
(which coalesce onto one computation, see
:class:`~repro.serve.service.SimulationService`) receive byte-identical
bytes, and a served figure diffs clean against a local ``repro.api``
run of the same command.  Validation failures are HTTP 400 with a
machine-readable ``{"error": ...}``; computation failures are 500.

The resilience surface (``docs/serve.md``): ``?timeout=`` (or a
``timeout`` body field) sets a per-request deadline — exceeding it is
HTTP 504, while the shared computation finishes and lands in the
cache; admission-control refusals (queue full, tenant over quota,
draining) are HTTP 503 with a ``Retry-After`` header; the optional
``X-Repro-Tenant`` header attributes the request to a tenant for the
fairness counters in ``/statsz``.

:class:`ServerThread` runs the whole loop on a daemon thread for tests
and embedders; the CLI runs :func:`ReproServer.serve_forever` on the
main thread.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import math
import threading
import urllib.parse
from typing import Any, Dict, Optional, Tuple

from .service import DeadlineExceeded, RequestError, Shed, SimulationService

logger = logging.getLogger("repro.serve")

#: Header naming the tenant a request is accounted to (fairness
#: counters in ``/statsz``); absent means the anonymous bucket.
TENANT_HEADER = "x-repro-tenant"

#: Refuse request bodies beyond this (the whole API fits in a line).
MAX_BODY_BYTES = 1 << 20
#: Cap on the request line + headers block.
MAX_HEADER_BYTES = 64 << 10


def _encode_body(document: Any) -> bytes:
    """The deterministic wire encoding of a response document."""
    return json.dumps(document, sort_keys=True).encode("utf-8")


def _response(status: int, body: bytes,
              content_type: str = "application/json",
              extra_headers: Optional[Dict[str, str]] = None) -> bytes:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               405: "Method Not Allowed", 500: "Internal Server Error",
               413: "Payload Too Large", 503: "Service Unavailable",
               504: "Gateway Timeout"}
    head = (f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n")
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    head += "Connection: close\r\n\r\n"
    return head.encode("ascii") + body


class ReproServer:
    """One service, one listening socket, five routes."""

    def __init__(self, service: Optional[SimulationService] = None,
                 host: str = "127.0.0.1", port: int = 8787) -> None:
        self.service = service if service is not None else SimulationService()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._drained: Optional[asyncio.Event] = None
        #: Open connections: each handler task and its writer.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; with ``port=0`` the kernel picks a
        free port, published back via :attr:`port`."""
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self) -> Dict[str, Any]:
        """Graceful shutdown: drain the service (stop admissions,
        settle in-flight work), then release :meth:`serve_forever`,
        which lets every open connection (this one included) finish
        before it returns."""
        report = await self.service.drain()
        if self._drained is not None:
            self._drained.set()
        return report

    async def serve_forever(self) -> None:
        """Accept until drained, then close the listening socket and
        let open connections finish; a cancel returns at once."""
        if self._server is None:
            await self.start()
        assert self._server is not None and self._drained is not None
        try:
            await self._drained.wait()
        except asyncio.CancelledError:
            return
        self._server.close()
        await self._finish_connections()

    async def _finish_connections(self) -> None:
        """Wait for the open connections' handlers, bounded by the
        service's drain timeout.  A figure request read now answers
        503 with ``Retry-After`` (the service is draining).  Connections
        still open at the bound are aborted, which ends their handlers
        without cancelling them mid-read."""
        loop = asyncio.get_running_loop()
        timeout = self.service.drain_timeout
        deadline = None if timeout is None else loop.time() + timeout
        while self._connections:
            remaining = None if deadline is None else deadline - loop.time()
            if remaining is not None and remaining <= 0:
                break
            await asyncio.wait(list(self._connections), timeout=remaining)
        for writer in list(self._connections.values()):
            writer.transport.abort()
        if self._connections:
            await asyncio.wait(list(self._connections))

    # -- request handling ----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            try:
                payload = await self._respond(reader)
            except Exception as exc:  # the handler must never kill the loop
                payload = _response(500, _encode_body(
                    {"error": f"internal error: {exc!r}"}))
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                with contextlib.suppress(Exception):
                    writer.close()
                    await writer.wait_closed()
        finally:
            del self._connections[task]

    async def _read_request(
            self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        head = await reader.readuntil(b"\r\n\r\n")
        if len(head) > MAX_HEADER_BYTES:
            raise RequestError("header block too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise RequestError(f"malformed request line: {lines[0]!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _TooLarge()
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _respond(self, reader: asyncio.StreamReader) -> bytes:
        try:
            method, target, headers, body = await self._read_request(reader)
        except _TooLarge:
            return _response(413, _encode_body({"error": "body too large"}))
        except (RequestError, ValueError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError) as exc:
            return _response(400, _encode_body(
                {"error": f"malformed request: {exc}"}))

        parsed = urllib.parse.urlsplit(target)
        path = parsed.path

        if path == "/healthz":
            if method != "GET":
                return _response(405, _encode_body({"error": "GET only"}))
            return _response(200, _encode_body({"status": "ok"}))

        if path == "/statsz":
            if method != "GET":
                return _response(405, _encode_body({"error": "GET only"}))
            return _response(200, _encode_body(self.service.stats()))

        if path == "/v1/admin/drain":
            if method != "POST":
                return _response(405, _encode_body({"error": "POST only"}))
            report = await self.drain()
            return _response(200, _encode_body(report))

        if path.startswith("/v1/figure"):
            return await self._figure(method, path, parsed.query,
                                      headers, body)

        return _response(404, _encode_body({"error": f"no route {path!r}"}))

    async def _figure(self, method: str, path: str, query: str,
                      headers: Dict[str, str], body: bytes) -> bytes:
        timeout: Any = None
        if method == "GET":
            command = path[len("/v1/figure"):].lstrip("/")
            if not command:
                return _response(400, _encode_body(
                    {"error": "GET needs /v1/figure/<command>"}))
            # Single-valued query params; seeds accept "0,1,2".
            params: Dict[str, Any] = {
                name: values[-1]
                for name, values in urllib.parse.parse_qs(query).items()}
            # ``timeout`` is transport-level (the request deadline),
            # never a figure parameter: it must not reach validation
            # or the coalescing key.
            timeout = params.pop("timeout", None)
        elif method == "POST":
            try:
                doc = json.loads(body.decode("utf-8")) if body else {}
                if not isinstance(doc, dict):
                    raise ValueError("body must be a JSON object")
                command = doc.get("command", "")
                params = doc.get("params") or {}
                if not isinstance(params, dict):
                    raise ValueError('"params" must be a JSON object')
                timeout = doc.get("timeout")
                params.pop("timeout", None)
            except (ValueError, UnicodeDecodeError) as exc:
                return _response(400, _encode_body(
                    {"error": f"bad request body: {exc}"}))
        else:
            return _response(405, _encode_body({"error": "GET or POST"}))

        tenant = headers.get(TENANT_HEADER)
        try:
            result = await self.service.submit(command, params,
                                               timeout=timeout,
                                               tenant=tenant)
        except RequestError as exc:
            return _response(400, _encode_body({"error": str(exc)}))
        except Shed as exc:
            return _response(
                503, _encode_body({"error": str(exc),
                                   "retry_after": exc.retry_after}),
                extra_headers={
                    "Retry-After": str(max(1, math.ceil(exc.retry_after)))})
        except DeadlineExceeded as exc:
            return _response(504, _encode_body({"error": str(exc)}))
        except Exception as exc:
            return _response(500, _encode_body(
                {"error": f"computation failed: {exc!r}"}))
        return _response(200, _encode_body(result.document()))


class _TooLarge(Exception):
    """Request body exceeded :data:`MAX_BODY_BYTES`."""


class ShutdownLeak(RuntimeError):
    """The server thread failed to stop within its join timeout.

    Historically :meth:`ServerThread.stop` joined with a timeout and
    silently returned, leaking the thread (and its event loop) with no
    trace; now the leak is logged and raised so tests and embedders
    see it."""


class ServerThread:
    """A running server on a daemon thread (tests, embedders).

    ``with ServerThread(service) as server:`` yields a bound server
    whose :attr:`port` is live; requests can be made with plain
    ``urllib`` from the calling thread.
    """

    def __init__(self, service: Optional[SimulationService] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.server = ReproServer(service=service, host=host, port=port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def service(self) -> SimulationService:
        return self.server.service

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
            self._started.set()
            loop.run_forever()
        finally:
            self._started.set()  # unblock a waiter even on bind failure
            with contextlib.suppress(Exception):
                loop.run_until_complete(self.server.stop())
            loop.close()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._main,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        if self._loop is None or not self._thread.is_alive():
            raise RuntimeError("server failed to start")
        return self

    def drain(self, timeout: float = 60.0) -> Dict[str, Any]:
        """Run a graceful drain on the server's loop from the calling
        thread; returns the drain report."""
        if self._loop is None:
            raise RuntimeError("server is not running")
        future = asyncio.run_coroutine_threadsafe(
            self.server.service.drain(), self._loop)
        return future.result(timeout)

    def stop(self, join_timeout: float = 10.0) -> None:
        """Stop the loop and join the thread.

        Raises :class:`ShutdownLeak` (after logging a warning) when the
        thread survives ``join_timeout`` — a hung handler or executor
        call is a bug worth surfacing, not silently leaking.
        """
        if self._loop is None or self._thread is None:
            return
        thread = self._thread
        self._loop.call_soon_threadsafe(self._loop.stop)
        thread.join(timeout=join_timeout)
        if thread.is_alive():
            logger.warning(
                "repro-serve thread leaked: still alive %.0fs after stop()",
                join_timeout)
            raise ShutdownLeak(
                f"server thread failed to stop within {join_timeout}s; "
                f"the thread and its event loop have leaked")
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
