"""Small helpers shared by every HTTP service in the package, and the
client that every internal hop uses to reach them.

All services (registry, sidecars, mock NFs) are stdlib threading HTTP
servers bound to an ephemeral port by default, which keeps the harness free
of port bookkeeping.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

# What a failed exchange raises; each caller maps it to its own error.
HTTP_ERRORS = (OSError, http.client.HTTPException)

# How long HttpService.stop() waits for handlers still running.
STOP_WAIT = 5.0


class QuietHandler(BaseHTTPRequestHandler):
    """Base handler: HTTP/1.1 keep-alive, no per-request stderr chatter."""

    protocol_version = "HTTP/1.1"
    # Response headers and body go out as separate writes; with Nagle on,
    # the body write stalls behind the client's delayed ACK (~40ms per hop,
    # and tunneled traffic crosses three hops).
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def parse_request(self) -> bool:
        """Parse the request line and headers, then `Content-Length` into
        `self.content_length` (0 when absent). A length that is not a
        decimal digit string is answered 400 here, and the connection closed
        because its body cannot be told from the next request."""
        if not super().parse_request():
            return False
        value = self.headers.get("Content-Length") or "0"
        if not (value.isascii() and value.isdigit()):
            self.send_bytes(400, b'{"error": "bad_content_length"}', "application/json",
                            [("Connection", "close")])
            return False
        self.content_length = int(value)
        return True

    def read_body(self) -> bytes:
        return self.rfile.read(self.content_length) if self.content_length else b""

    def send_bytes(self, status: int, body: bytes, content_type: str = "application/octet-stream",
                   extra_headers: list[tuple[str, str]] | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers or []:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def send_json(self, status: int, obj) -> None:
        self.send_bytes(status, json.dumps(obj).encode("utf-8"), "application/json")


class _TrackingServer(ThreadingHTTPServer):
    """Remembers each open connection and the worker thread serving it, so
    stop() can sever idle keep-alives and wait for the workers.

    server_close() only closes the listening socket. With HTTP/1.1 a worker
    thread sits in a blocking read between requests on the same connection
    and would otherwise linger until the client drops its end. Workers stay
    daemon threads, so a server nobody stops cannot block interpreter exit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._conn_lock = threading.Lock()
        self._workers: dict[socket.socket, threading.Thread] = {}

    def process_request(self, request, client_address):
        worker = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address), daemon=True)
        with self._conn_lock:
            self._workers[request] = worker
        worker.start()

    def shutdown_request(self, request):
        with self._conn_lock:
            self._workers.pop(request, None)
        super().shutdown_request(request)

    def sever_connections(self, timeout: float) -> None:
        """Shut every open connection down and wait up to `timeout` seconds
        for the workers still serving them."""
        with self._conn_lock:
            lingering = dict(self._workers)
        # shutdown() only; the worker that owns the socket does the close,
        # which avoids racing over a file descriptor another thread may reuse
        for conn in lingering:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for worker in lingering.values():
            worker.join(max(0.0, deadline - time.monotonic()))

    def handle_error(self, request, client_address):
        # connections we severed on purpose surface here as resets
        if isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            return
        super().handle_error(request, client_address)


class HttpService:
    """A threading HTTP server plus the thread that runs it."""

    def __init__(self, handler_cls, host: str = "127.0.0.1", port: int = 0):
        self.server = _TrackingServer((host, port), handler_cls)
        # The default 0.5s poll makes every shutdown cost half a second,
        # which adds up fast when a topology tears down a dozen listeners.
        self._thread = threading.Thread(
            target=lambda: self.server.serve_forever(poll_interval=0.05), daemon=True
        )
        self._started = False

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpService":
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    def stop(self) -> None:
        """Stop serving and wait, at most STOP_WAIT seconds, for the handlers."""
        if self._started:
            self.server.shutdown()
            self.server.server_close()
            self.server.sever_connections(STOP_WAIT)
            self._started = False


class HttpClient:
    """Keep-alive HTTP/1.1 client, shared by threads; ignores proxy settings.

    Idle connections wait in one lock-guarded list per host:port, so open
    connections never outnumber requests in flight.
    """

    def __init__(self, timeout: float):
        self.timeout = timeout
        self._lock = threading.Lock()
        self._idle: dict[tuple, list[http.client.HTTPConnection]] = {}

    def request(self, method: str, url: str, body: bytes | None = None,
                headers: dict[str, str] | None = None):
        """Returns (status, headers, body). A failed exchange closes its
        connection and raises one of `HTTP_ERRORS`."""
        parts = urlsplit(url)
        try:
            if parts.scheme != "http" or not parts.hostname:
                raise ValueError("not an http:// URL with a host")
            key = (parts.hostname, parts.port)
        except ValueError as exc:  # also raised for a port that is not a number
            raise http.client.InvalidURL(f"{url!r}: {exc}") from None
        with self._lock:
            idle = self._idle.get(key)
            conn = idle.pop() if idle else http.client.HTTPConnection(*key, timeout=self.timeout)
        # A server that closed an idle keep-alive leaves its socket readable
        # (poll, unlike select, takes any fd). `sock` is None after
        # `Connection: close`; http.client reconnects then.
        if conn.sock is not None:
            poller = select.poll()
            poller.register(conn.sock, select.POLLIN)
            if poller.poll(0):
                conn.close()
        try:
            conn.request(method, parts.path + (f"?{parts.query}" if parts.query else ""),
                         body, headers or {})
            resp = conn.getresponse()
            data = resp.read()
        except ValueError as exc:  # a method or header http.client refuses to send
            conn.close()
            raise http.client.HTTPException(str(exc)) from exc
        except HTTP_ERRORS:
            conn.close()
            raise
        with self._lock:
            self._idle.setdefault(key, []).append(conn)
        return resp.status, resp.headers, data

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()

    def __del__(self):  # nothing else holds the client: close its pooled sockets
        self.close()
