"""Closed-loop load generator with one client over the single-domain topology.

The client keeps one stdlib `http.client` keep-alive connection per target
URL and sends the bundled 58-step `ue_registration` script one step at a
time, each step only after the previous reply. Everything runs on loopback
inside one process, as `launch_topology` starts it.

Workloads (why each one exists is recorded in BENCHMARK.json):

- `plain_direct`: steps go straight to the mock NFs, no sidecar involved.
- `tunnel_steady`: steps go through the consumer sidecars after a warm-up
  pass has established every association.
- `handshake_churn`: as `tunnel_steady`, but every outbound association
  is forgotten before each pass, in a seeded order, so each ordered pair
  re-handshakes on its first step.
- `tunnel_bulk`: as `tunnel_steady`, but every request body carries an
  extra incompressible field of about 64 KiB generated from the seed.

Every step is checked: status against the script, body byte-equal to a
plain reference pass, and per pass the mock NFs' request count and the
number of handshakes.
"""

from __future__ import annotations

import base64
import http.client
import json
import random
import shutil
import time
import urllib.parse
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from sbacl.harness import bundled, launch_topology

WORKLOADS = ("plain_direct", "tunnel_steady", "handshake_churn", "tunnel_bulk")
BULK_RAW_BYTES = 48 * 1024  # base64 turns this into a 64 KiB JSON string
TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Step:
    caller: str
    callee: str
    method: str
    path: str
    body: bytes | None
    expected_status: int


def script_steps(script: dict, bulk_rng: random.Random | None = None) -> list[Step]:
    """The script as requests; with `bulk_rng`, bodies gain a random field."""
    steps = []
    for raw in script["steps"]:
        body = None
        if "body" in raw:
            payload = dict(raw["body"])
            if bulk_rng is not None:
                payload["bulk"] = base64.b64encode(bulk_rng.randbytes(BULK_RAW_BYTES)).decode()
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        steps.append(Step(raw["caller"], raw["callee"], raw["method"], raw["path"],
                          body, int(raw["expected_status"])))
    return steps


@dataclass
class PassResult:
    """One pass over the script.

    Completed steps are kept as flat arrays (start, end, and whether the
    step was the first on its ordered pair in this pass), which the garbage
    collector does not scan and which add little to the process's RSS.
    """

    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    first: array = field(default_factory=lambda: array("b"))
    bodies: list[bytes | None] = field(default_factory=list)  # reference pass only
    attempted: int = 0
    payload_bytes: int = 0
    wall_s: float = 0.0
    nf_requests: int = 0
    handshakes: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.ends)

    def latencies(self, first_only: bool = False) -> list[float]:
        return [end - start for start, end, first in zip(self.starts, self.ends, self.first)
                if first or not first_only]


class Client:
    """One keep-alive connection per target URL."""

    def __init__(self):
        self._conns: dict[str, http.client.HTTPConnection] = {}

    def send(self, base_url: str, method: str, path: str, body: bytes | None,
             host: str | None) -> tuple[int, bytes]:
        conn = self._conns.get(base_url)
        if conn is None:
            url = urllib.parse.urlsplit(base_url)
            conn = http.client.HTTPConnection(url.hostname, url.port, timeout=TIMEOUT_S)
            self._conns[base_url] = conn
        headers = {}
        if host is not None:
            headers["Host"] = host
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            del self._conns[base_url]
            raise

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()


def launch(run_dir: Path, count: int):
    """Launch the topology `count` times, each with a fresh state directory,
    and keep the last one. Returns it with every launch's wall time."""
    config = bundled("topology_single_domain.json")
    times = []
    topology = None
    for index in range(count):
        if topology is not None:
            topology.shutdown()
        state_dir = run_dir / f"state-{index}"
        shutil.rmtree(state_dir, ignore_errors=True)
        started = time.perf_counter()
        topology = launch_topology(config, state_dir=state_dir)
        times.append(time.perf_counter() - started)
    return topology, times


class LoadGenerator:
    def __init__(self, topology, seed: int):
        script = bundled("ue_registration.json")
        self.topology = topology
        self.client = Client()
        self.rng = random.Random(seed)
        self.steps = script_steps(script)
        self.bulk_steps = script_steps(script, random.Random(seed))
        self.pair_set = {(s.caller, s.callee) for s in self.steps}
        self.pairs = len(self.pair_set)
        self.routes = [(handle.sidecar, route.target_did)
                       for handle in topology.nfs.values() for route in handle.sidecar.routes]
        self.reference: list[bytes] | None = None

    def close(self) -> None:
        self.client.close()

    def _nf_requests(self) -> int:
        return sum(handle.mock.request_count() for handle in self.topology.nfs.values())

    def reference_pass(self) -> PassResult:
        """A plain pass whose response bodies every later pass must match."""
        self.reference = None
        result = self.run_pass("plain_direct")
        self.reference = result.bodies
        return result

    def _unassociated_pairs(self) -> int:
        nfs = self.topology.nfs
        return sum(
            1 for caller, callee in self.pair_set
            if not getattr(nfs[caller].sidecar.associations.get(
                (nfs[callee].sidecar.did, "outbound")), "established", False)
        )

    def run_pass(self, workload: str, warm_up: bool = False) -> PassResult:
        """One checked pass. A warm-up pass may handshake the pairs that
        have no association yet; a measured pass handshakes exactly every
        pair on `handshake_churn` and none elsewhere."""
        tunneled = workload != "plain_direct"
        steps = self.bulk_steps if workload == "tunnel_bulk" else self.steps
        if workload == "handshake_churn":
            expected_handshakes = self.pairs
        elif warm_up and tunneled:
            expected_handshakes = self._unassociated_pairs()
        else:
            expected_handshakes = 0
        if workload == "handshake_churn":
            order = list(self.routes)
            self.rng.shuffle(order)
            for sidecar, peer in order:
                sidecar.forget_peer(peer)

        result = PassResult()
        nfs = self.topology.nfs
        seen: set[tuple[str, str]] = set()
        handshakes_before = self.topology.handshake_total()
        requests_before = self._nf_requests()
        started = time.perf_counter()
        for index, step in enumerate(steps):
            if tunneled:
                target, host = nfs[step.caller].sidecar.intercept_url, step.callee
            else:
                target, host = nfs[step.callee].mock.base_url, None
            result.attempted += 1
            step_start = time.perf_counter()
            try:
                status, body = self.client.send(target, step.method, step.path, step.body, host)
            except (OSError, http.client.HTTPException) as exc:
                result.failures.append(f"step {index}: {type(exc).__name__}: {exc}")
                if self.reference is None:
                    result.bodies.append(None)
                continue
            step_end = time.perf_counter()
            pair = (step.caller, step.callee)
            result.starts.append(step_start)
            result.ends.append(step_end)
            result.first.append(pair not in seen)
            seen.add(pair)
            result.payload_bytes += len(step.body or b"") + len(body)
            if self.reference is None:
                result.bodies.append(body)
            if status != step.expected_status:
                result.failures.append(
                    f"step {index} {step.method} {step.path}: status {status}, "
                    f"expected {step.expected_status}")
            elif self.reference is not None and body != self.reference[index]:
                result.failures.append(f"step {index} {step.method} {step.path}: "
                                       "body differs from the plain reference pass")
        result.wall_s = time.perf_counter() - started
        result.handshakes = self.topology.handshake_total() - handshakes_before
        result.nf_requests = self._nf_requests() - requests_before
        if result.nf_requests != len(steps):
            result.failures.append(
                f"mock NFs saw {result.nf_requests} requests for {len(steps)} steps")
        if result.handshakes != expected_handshakes:
            result.failures.append(
                f"{result.handshakes} handshakes in a pass, expected {expected_handshakes}")
        return result

    def run_for(self, workload: str, seconds: float, before_pass=None) -> list[PassResult]:
        """Whole passes until `seconds` have elapsed; at least one."""
        results = []
        deadline = time.perf_counter() + seconds
        while not results or time.perf_counter() < deadline:
            if before_pass is not None:
                before_pass(len(results))
            results.append(self.run_pass(workload))
        return results
