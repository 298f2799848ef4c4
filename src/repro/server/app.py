"""The asyncio HTTP front end for :class:`EncodeService`.

Deliberately tiny: stdlib ``asyncio.start_server`` streams, an HTTP/1.1
subset (``POST /encode``, ``GET /healthz``, ``GET /stats``), one JSON
body per request, ``Connection: close`` on every response.  No
framework — the repo's dependency budget is the standard library, and
the robustness work lives in :mod:`repro.server.service`, not in HTTP
plumbing.

Two things the transport layer *does* own:

* **Slow-client protection** — reading a request (header + body) is
  bounded by ``read_timeout``; a client that trickles bytes gets a 408
  and its connection closed, so it cannot pin a handler task forever.
* **Graceful shutdown** — :meth:`ServerApp.shutdown` stops accepting,
  lets in-flight handlers drain for ``drain_timeout`` seconds, cancels
  the stragglers, and hard-kills any still-live worker processes.  A
  SIGTERM mid-burst therefore leaves no orphaned workers (the
  serve CLI test asserts exactly this by pid).
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from typing import Dict, Optional, Set, Tuple

from repro.errors import ParseError, ReproError, error_to_dict
from repro.server.service import EncodeResponse, EncodeService

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


def _log_line(stream, fields: Dict) -> None:
    """One structured JSON log line per request (stderr by default)."""
    try:
        stream.write(json.dumps(fields, sort_keys=True,
                                default=str) + "\n")
        stream.flush()
    except (OSError, ValueError):  # closed stream on teardown
        pass


class ServerApp:
    """Owns the listening socket, connection handlers, and shutdown."""

    def __init__(self, service: EncodeService, *,
                 host: str = "127.0.0.1", port: int = 0,
                 read_timeout: float = 10.0,
                 drain_timeout: float = 5.0,
                 log_stream=None) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self.drain_timeout = drain_timeout
        self.log_stream = log_stream if log_stream is not None else sys.stderr
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: Set[asyncio.Task] = set()
        self._shutdown = asyncio.Event()
        self.started = time.monotonic()

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`shutdown` completes the drain."""
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        """Signal-handler-safe trigger: schedules the drain."""
        if not self._shutdown.is_set():
            asyncio.get_running_loop().create_task(self.shutdown())

    async def shutdown(self) -> Dict:
        """Stop accepting, drain handlers, kill workers.  Idempotent."""
        if self._shutdown.is_set():
            return {"drained": 0, "cancelled": 0, "workers_killed": 0}
        if self._server is not None:
            self._server.close()
            try:
                # on 3.12+ wait_closed also waits for live connections,
                # which would deadlock against the bounded drain below
                await asyncio.wait_for(self._server.wait_closed(),
                                       timeout=self.drain_timeout)
            except (asyncio.TimeoutError, TimeoutError):
                pass  # stubborn handlers are drained/cancelled below
        pending = {t for t in self._handlers if not t.done()}
        drained = cancelled = 0
        if pending:
            done, still = await asyncio.wait(pending,
                                             timeout=self.drain_timeout)
            drained = len(done)
            for task in still:
                task.cancel()
                cancelled += 1
            if still:
                await asyncio.wait(still, timeout=1.0)
        workers_killed = self.service.shutdown()
        self._shutdown.set()
        _log_line(self.log_stream, {
            "event": "shutdown", "drained": drained,
            "cancelled": cancelled, "workers_killed": workers_killed,
        })
        return {"drained": drained, "cancelled": cancelled,
                "workers_killed": workers_killed}

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            await self._serve_one(reader, writer)
        except asyncio.CancelledError:  # shutdown cancelled the drain
            raise
        except (ConnectionError, OSError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await asyncio.wait_for(writer.wait_closed(),
                                       timeout=self.drain_timeout)
            except (asyncio.TimeoutError, TimeoutError,
                    ConnectionError, OSError):
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        t0 = time.monotonic()
        try:
            method, path, body = await asyncio.wait_for(
                self._read_request(reader), timeout=self.read_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            self.service.stats.slow_clients += 1
            await self._write_response(writer, EncodeResponse(
                408, {"status": "error", "error": {
                    "type": "ServiceError",
                    "message": "request read timed out"}},
                log={"outcome": "slow_client"}), "?", "?", t0)
            return
        except ReproError as exc:
            await self._write_response(writer, EncodeResponse(
                400, {"status": "error", "error": error_to_dict(exc)},
                log={"outcome": "invalid"}), "?", "?", t0)
            return

        response = await self._dispatch(method, path, body)
        await self._write_response(writer, response, method, path, t0)

    async def _read_request(
            self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Optional[bytes]]:
        try:
            # nova-lint: disable=NV008 -- bounded at the only call site: _serve_one wraps _read_request in wait_for(read_timeout)
            header = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            raise ParseError("connection closed mid-header",
                             stage="parse") from exc
        except asyncio.LimitOverrunError as exc:
            raise ParseError("request header too large",
                             stage="parse") from exc
        if len(header) > _MAX_HEADER_BYTES:
            raise ParseError("request header too large", stage="parse")
        lines = header.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise ParseError(f"malformed request line {lines[0]!r}",
                             stage="parse")
        method, path, _version = parts
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                raw = line.split(":", 1)[1].strip()
                try:
                    length = int(raw)
                except ValueError:
                    raise ParseError(
                        f"bad Content-Length {raw!r}",
                        stage="parse") from None
        if length > _MAX_BODY_BYTES:
            raise ParseError("request body too large", stage="parse")
        # nova-lint: disable=NV008 -- bounded at the only call site: _serve_one wraps _read_request in wait_for(read_timeout)
        body = await reader.readexactly(length) if length else None
        return method, path, body

    async def _dispatch(self, method: str, path: str,
                        body: Optional[bytes]) -> EncodeResponse:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return self._plain_error(405, "use GET /healthz")
            return EncodeResponse(200, {
                "status": "ok",
                "uptime": round(time.monotonic() - self.started, 3),
            }, log={"outcome": "ok"})
        if path == "/stats":
            if method != "GET":
                return self._plain_error(405, "use GET /stats")
            return EncodeResponse(200, self.service.snapshot(),
                                  log={"outcome": "ok"})
        if path == "/encode":
            if method != "POST":
                return self._plain_error(405, "use POST /encode")
            try:
                payload = json.loads(body) if body else {}
            except json.JSONDecodeError as exc:
                self.service.stats.requests += 1
                self.service.stats.client_errors += 1
                return self._plain_error(
                    400, f"request body is not valid JSON: {exc}")
            try:
                return await self.service.handle_encode(payload)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # last resort: a bug (or injected respond-stage fault)
                # past the service's own error mapping still answers
                # with JSON instead of a dropped connection
                self.service.stats.server_errors += 1
                return EncodeResponse(
                    getattr(exc, "http_status", 500),
                    {"status": "error", "error": error_to_dict(exc)},
                    log={"outcome": "error"})
        return self._plain_error(404, f"no route {path!r}")

    def _plain_error(self, status: int, message: str) -> EncodeResponse:
        return EncodeResponse(status, {
            "status": "error",
            "error": {"type": "ServiceError", "message": message},
        }, log={"outcome": "invalid" if status < 500 else "error"})

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: EncodeResponse, method: str,
                              path: str, t0: float) -> None:
        payload = json.dumps(response.body, sort_keys=True).encode()
        head = [f"HTTP/1.1 {response.status} "
                f"{_REASONS.get(response.status, 'Unknown')}",
                "Content-Type: application/json",
                f"Content-Length: {len(payload)}",
                "Connection: close"]
        for name, value in response.headers.items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
        fields = dict(response.log)
        try:
            # the read side is bounded by read_timeout; this bounds the
            # write side — a peer that stops reading while our send
            # buffer is full must not hold the handler slot forever
            await asyncio.wait_for(writer.drain(),
                                   timeout=self.drain_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            self.service.stats.slow_clients += 1
            writer.close()
            fields["outcome"] = "slow_client"
        fields.update(method=method, path=path, status=response.status,
                      elapsed=round(time.monotonic() - t0, 6))
        _log_line(self.log_stream, fields)


async def run_server(service: EncodeService, *, host: str, port: int,
                     read_timeout: float = 10.0,
                     drain_timeout: float = 5.0,
                     ready_stream=None, log_stream=None) -> int:
    """Boot the app, install signal handlers, serve until shutdown.

    Prints one ``{"event": "listening", ...}`` JSON line to
    *ready_stream* (default stdout) so supervisors — and the CI job —
    can discover the bound port when ``--port 0`` asked for an
    ephemeral one.  Returns the process exit code (0 on a clean drain).
    """
    import signal

    app = ServerApp(service, host=host, port=port,
                    read_timeout=read_timeout,
                    drain_timeout=drain_timeout, log_stream=log_stream)
    bound_host, bound_port = await app.start()
    stream = ready_stream if ready_stream is not None else sys.stdout
    _log_line(stream, {"event": "listening", "host": bound_host,
                       "port": bound_port, "pid": os.getpid()})
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, app.request_shutdown)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-Unix loop: rely on KeyboardInterrupt
    await app.serve_until_shutdown()
    return 0
