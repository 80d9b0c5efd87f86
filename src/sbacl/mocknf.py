"""Mock network functions for the harness.

A mock NF serves a fixed behavior table: exact (method, path) pairs mapped
to a status and JSON body. The NRF role is just a mock NF whose table
contains discovery paths returning static profile lists. Every request is
counted and the latest `REQUESTS_KEPT` are recorded, which is how tests
assert that an unauthorized consumer's traffic never reached the NF.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass

from .httputil import HttpService, QuietHandler

# (method, path) of the latest requests kept, so a long-running NF stays bounded.
REQUESTS_KEPT = 1024


@dataclass(frozen=True)
class Behavior:
    method: str
    path: str
    status: int
    body: dict

    @classmethod
    def from_dict(cls, data: dict) -> "Behavior":
        return cls(method=data["method"].upper(), path=data["path"],
                   status=int(data["status"]), body=data.get("body", {}))


class MockNf:
    def __init__(self, name: str, nf_type: str, behaviors: list[Behavior],
                 host: str = "127.0.0.1", port: int = 0):
        self.name = name
        self.nf_type = nf_type
        self._table = {(b.method, b.path): b for b in behaviors}
        self.requests: deque[tuple[str, str]] = deque(maxlen=REQUESTS_KEPT)
        self._count = 0
        self._lock = threading.Lock()
        self._service = HttpService(self._make_handler(), host, port)

    @property
    def base_url(self) -> str:
        return self._service.base_url

    def start(self) -> "MockNf":
        self._service.start()
        return self

    def stop(self) -> None:
        self._service.stop()

    def request_count(self) -> int:
        with self._lock:
            return self._count

    def _make_handler(self):
        nf = self

        class NfHandler(QuietHandler):
            def _serve(self) -> None:
                method = self.command
                self.read_body()
                with nf._lock:
                    nf.requests.append((method, self.path))
                    nf._count += 1
                behavior = nf._table.get((method, self.path))
                if behavior is None:
                    self.send_json(404, {"error": "not_found", "path": self.path})
                    return
                body = json.dumps(behavior.body, sort_keys=True).encode("utf-8")
                self.send_bytes(behavior.status, body, "application/json")

            do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _serve

        return NfHandler
