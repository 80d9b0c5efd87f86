import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import sbacl
from sbacl.harness import launch_topology, run_scenario
from sbacl.httputil import HTTP_ERRORS, HttpClient, HttpService, QuietHandler
from sbacl.mocknf import Behavior, MockNf
from sbacl.vdr import Registry
from sbacl.vdr_http import RegistryServer

from conftest import MINI_SCRIPT, MINI_TOPOLOGY


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_internal_hops_ignore_proxy_environment(monkeypatch):
    proxy = f"http://127.0.0.1:{_closed_port()}"
    for name in ("HTTP_PROXY", "http_proxy"):
        monkeypatch.setenv(name, proxy)
    for name in ("NO_PROXY", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
    topology = launch_topology(MINI_TOPOLOGY)
    try:
        transcript = run_scenario(topology, MINI_SCRIPT, "tunneled")
    finally:
        topology.shutdown()
    assert transcript.passed
    assert transcript.handshakes == 1


def test_connection_is_reused_after_server_closes_it():
    server = RegistryServer(Registry()).start()
    client = HttpClient(timeout=5)
    try:
        # the stdlib answers an unsupported method with 501 and Connection: close
        status, _, _ = client.request("PATCH", server.base_url + "/dids")
        assert status == 501
        status, _, body = client.request("GET", server.base_url + "/dids/did:svdr:nobody")
        assert status == 404
        assert json.loads(body)["error"] == "unknown_did"

        # a restart on the same port leaves the pooled socket closed by the peer
        port = server.port
        server.stop()
        server = RegistryServer(Registry(), port=port).start()
        status, _, body = client.request("GET", server.base_url + "/dids/did:svdr:nobody")
        assert status == 404
        assert json.loads(body)["error"] == "unknown_did"
    finally:
        server.stop()


@pytest.mark.parametrize("url,headers", [
    ("http://127.0.0.1:notaport/envelope", {}),
    ("not a url", {}),
    ("http:///envelope", {}),
    ("ftp://127.0.0.1:21/envelope", {}),
    ("http://127.0.0.1:{port}/x", {"X-Split": "a\r\nInjected: yes"}),
])
def test_unsendable_request_fails_like_an_unreachable_server(url, headers):
    # peers publish endpoints and send tunneled headers, so a bad one must map
    # to the caller's unreachable error, not escape as some other exception
    server = RegistryServer(Registry()).start()
    try:
        with pytest.raises(HTTP_ERRORS):
            HttpClient(timeout=1).request("GET", url.format(port=server.port), None, headers)
    finally:
        server.stop()


def test_threads_share_one_client():
    workers, rounds = 16, 5
    nf = MockNf("NF", "NF", [Behavior("GET", f"/item/{i}", 200, {"item": i})
                             for i in range(workers)]).start()
    client = HttpClient(timeout=10)
    barrier = threading.Barrier(workers)
    replies: dict[int, list] = {i: [] for i in range(workers)}

    def work(i: int) -> None:
        barrier.wait(timeout=10)
        for _ in range(rounds):
            status, _, body = client.request("GET", f"{nf.base_url}/item/{i}")
            replies[i].append((status, json.loads(body)))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so races get a chance to show
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        nf.stop()
    for i in range(workers):
        assert replies[i] == [(200, {"item": i})] * rounds
    assert nf.request_count() == workers * rounds
    # idle connections never outnumber the requests that were in flight
    assert sum(len(idle) for idle in client._idle.values()) <= workers


def test_stop_waits_for_a_running_handler():
    entered, finished = threading.Event(), threading.Event()

    class Slow(QuietHandler):
        def do_GET(self):
            entered.set()
            try:
                time.sleep(0.3)
                self.send_json(200, {})
            finally:
                finished.set()

    service = HttpService(Slow).start()
    client = HttpClient(timeout=5)

    def call() -> None:
        try:
            client.request("GET", service.base_url + "/")
        except HTTP_ERRORS:
            pass  # stop() severs the connection under the request

    caller = threading.Thread(target=call)
    caller.start()
    try:
        assert entered.wait(5)
        service.stop()
        assert finished.is_set()
    finally:
        service.stop()
        caller.join(timeout=5)
        client.close()
    assert not caller.is_alive()


def test_close_drops_idle_connections():
    nf = MockNf("NF", "NF", [Behavior("GET", "/x", 200, {})]).start()
    client = HttpClient(timeout=5)
    try:
        assert client.request("GET", nf.base_url + "/x")[0] == 200
        assert sum(len(idle) for idle in client._idle.values()) == 1
        client.close()
        assert client._idle == {}
        assert client.request("GET", nf.base_url + "/x")[0] == 200
    finally:
        client.close()
        nf.stop()


def test_cli_import_loads_no_third_party_http_stack():
    env = dict(os.environ, PYTHONPATH=str(Path(sbacl.__file__).parents[1]))
    code = ("import sbacl.cli, sys; "
            "assert 'requests' not in sys.modules and 'urllib3' not in sys.modules; "
            "assert 'click' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
