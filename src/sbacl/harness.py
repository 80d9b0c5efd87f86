"""Scenario runner and benchmark over a full local topology.

`launch_topology` brings up a registry, an IPMF hierarchy per domain, and a
mock NF plus sidecar per network function, then provisions everything:
DIDs registered, delegations issued, bootstrap credentials handed out, and
operational credentials obtained through the real issuance protocol.

`run_scenario` replays a scripted call sequence either directly against the
mock NFs (plain) or through the sidecars (tunneled). `benchmark` times both
modes over repeated runs and reports the relative overhead, which is the
only figure meant to carry across machines.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field as dc_field
from importlib import resources
from pathlib import Path

from .credentials import ALL_RIGHTS, KIND_AUTHN, KIND_AUTHZ, VerifiableCredential
from .encoding import b64u_encode
from .envelope_http import EnvelopeChannel
from .errors import ConfigError, SbaclError
from .httputil import HttpClient
from .identity import create_registry_did, generate_keypair
from .ipmf import Ipmf
from .mocknf import Behavior, MockNf
from .protocols import run_issuance
from .sidecar import Sidecar
from .vdr import Registry
from .vdr_http import RegistryHttpClient, RegistryServer


# --- configuration ------------------------------------------------------------


def load_json(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def bundled(name: str) -> dict:
    """Load one of the data files shipped inside the package."""
    return json.loads(resources.files("sbacl.data").joinpath(name).read_text("utf-8"))


def validate_topology(config: dict) -> None:
    problems: list[str] = []
    domains = {d["name"]: d for d in config.get("domains", [])}
    ipmf_names = set()
    for domain in domains.values():
        for entry in domain.get("ipmfs", []):
            ipmf_names.add(entry["name"])
    nf_names = {nf["name"] for nf in config.get("nfs", [])}
    for domain in domains.values():
        for foreign in domain.get("trusted_foreign_roots", []):
            if foreign not in domains:
                problems.append(f"domain {domain['name']} trusts unknown domain {foreign!r}")
    for nf in config.get("nfs", []):
        if nf.get("domain") not in domains:
            problems.append(f"NF {nf['name']} references unknown domain {nf.get('domain')!r}")
        if nf.get("ipmf") not in ipmf_names:
            problems.append(f"NF {nf['name']} references unknown IPMF {nf.get('ipmf')!r}")
        for route in nf.get("routes", []):
            if route["target"] not in nf_names:
                problems.append(f"NF {nf['name']} routes to unknown NF {route['target']!r}")
        for grant in nf.get("grants", []):
            if "ipmf" in grant and grant["ipmf"] not in ipmf_names:
                problems.append(f"NF {nf['name']} grant names unknown IPMF {grant['ipmf']!r}")
    if problems:
        raise ConfigError(problems)


def validate_script(script: dict, config: dict) -> None:
    nf_names = {nf["name"] for nf in config.get("nfs", [])}
    problems = []
    for index, step in enumerate(script.get("steps", [])):
        for role in ("caller", "callee"):
            if step[role] not in nf_names:
                problems.append(f"step {index}: unknown NF {step[role]!r} as {role}")
    if not script.get("steps"):
        problems.append("script has no steps")
    if problems:
        raise ConfigError(problems)


def distinct_ordered_pairs(script: dict) -> set[tuple[str, str]]:
    return {(s["caller"], s["callee"]) for s in script["steps"]}


# --- topology -------------------------------------------------------------------


@dataclass
class NfHandle:
    name: str
    nf_type: str
    domain: str
    mock: MockNf
    sidecar: Sidecar
    operational_creds: list[VerifiableCredential] = dc_field(default_factory=list)


@dataclass
class Topology:
    registry: Registry
    registry_server: RegistryServer
    client: RegistryHttpClient
    roots: dict[str, Ipmf]
    ipmfs: dict[str, Ipmf]
    nfs: dict[str, NfHandle]
    config: dict
    # Stops every component, newest first; filled by `launch_topology`.
    teardown: contextlib.ExitStack = dc_field(default_factory=contextlib.ExitStack, init=False)

    def shutdown(self) -> None:
        self.teardown.close()

    def handshake_total(self) -> int:
        return sum(h.sidecar.handshakes_initiated for h in self.nfs.values())


def _derive_policy(config: dict, ipmf_name: str) -> list[dict]:
    """Build the issuance policy rules an IPMF needs for the NFs it serves.

    Each NF gets an AuthN rule gated on its bootstrap claims, and one AuthZ
    rule per grant, pinned to the exact producer/service/ops requested.
    """
    rules: list[dict] = []
    for nf in config.get("nfs", []):
        if nf["ipmf"] == ipmf_name:
            rules.append({
                "kind": KIND_AUTHN,
                "match": {"nf_type": nf["nf_type"], "bootstrap": "true"},
                "request_match": {"nf_type": nf["nf_type"]},
                "grant": {"nf_type": nf["nf_type"], "domain": nf["domain"]},
            })
        for grant in nf.get("grants", []):
            if grant.get("ipmf", nf["ipmf"]) != ipmf_name:
                continue
            rules.append({
                "kind": KIND_AUTHZ,
                "match": {"nf_type": nf["nf_type"], "bootstrap": "true"},
                "request_match": {k: grant[k] for k in ("producer", "service", "ops")},
            })
    return rules


def provision(sidecar: Sidecar, bootstrap_creds: list[VerifiableCredential],
              requests: list[dict]) -> list[VerifiableCredential]:
    """Obtain each `{"issuer": did, "kind", "claims"}` request through the issuance
    protocol, presenting `bootstrap_creds`, and add it to the sidecar."""
    obtained = []
    for request in requests:
        vc = run_issuance(EnvelopeChannel(sidecar, request["issuer"]), sidecar.keys,
                          sidecar.did, bootstrap_creds, request["kind"], request["claims"])
        sidecar.add_credential(vc)
        obtained.append(vc)
    return obtained


def launch_topology(config: dict, state_dir: str | Path | None = None) -> Topology:
    """Bring up and fully provision the configured topology.

    Components run as in-process servers on ephemeral localhost ports.
    `state_dir`, when given, holds the registry log and the sidecars'
    association stores so restarts can be exercised. A failure part way
    stops everything started so far, newest first, and re-raises; on
    success the same stack becomes `Topology.teardown`.
    """
    validate_topology(config)
    state_dir = Path(state_dir) if state_dir else None
    if state_dir:
        state_dir.mkdir(parents=True, exist_ok=True)
    domains = {d["name"]: d for d in config.get("domains", [])}

    with contextlib.ExitStack() as started:
        registry = Registry(log_path=state_dir / "registry.jsonl" if state_dir else None)
        registry_server = RegistryServer(registry)
        registry_server.start()
        started.callback(registry_server.stop)
        client = RegistryHttpClient(registry_server.base_url)

        # Roots first: they anchor every chain and must resolve for anyone.
        roots: dict[str, Ipmf] = {}
        root_of_domain: dict[str, Ipmf] = {}
        for domain in domains.values():
            root = Ipmf.from_config({"name": domain["root"]["name"]}, client)
            root.bootstrap(serve=False)
            started.callback(root.shutdown)
            roots[root.name] = root
            root_of_domain[domain["name"]] = root

        # Child IPMFs, each built from the config its daemon would read: a
        # fresh seed, the root's delegation to that seed's DID, the policy
        # its NFs need, and the roots of the domains it trusts.
        ipmfs: dict[str, Ipmf] = {}
        for domain in domains.values():
            root = root_of_domain[domain["name"]]
            foreign_roots = [root_of_domain[d].did for d in domain.get("trusted_foreign_roots", [])]
            for entry in domain.get("ipmfs", []):
                seed = os.urandom(32)
                delegation = root.delegate_to_child(create_registry_did(generate_keypair(seed))[0],
                                                    entry.get("rights", ALL_RIGHTS))
                child = Ipmf.from_config({
                    "name": entry["name"],
                    "seed": b64u_encode(seed),
                    "parent_chain": [delegation.to_dict()],
                    "policy": _derive_policy(config, entry["name"]),
                    "trusted_foreign_roots": foreign_roots,
                    "issuance_log": (state_dir / f"{entry['name']}-issued.jsonl") if state_dir else None,
                }, client)
                child.bootstrap()
                started.callback(child.shutdown)
                ipmfs[child.name] = child

        # Each NF's mock and sidecar, provisioned with a bootstrap credential
        # from its IPMF, then operational credentials through the issuance
        # protocol proper. Seeds come first, so every route names its DID.
        seeds = {nf["name"]: os.urandom(32) for nf in config.get("nfs", [])}
        dids = {name: create_registry_did(generate_keypair(seed))[0] for name, seed in seeds.items()}
        nfs: dict[str, NfHandle] = {}
        for nf in config.get("nfs", []):
            mock = MockNf(nf["name"], nf["nf_type"],
                          [Behavior.from_dict(b) for b in nf.get("behaviors", [])]).start()
            started.callback(mock.stop)
            trusting = [nf["domain"], *domains[nf["domain"]].get("trusted_foreign_roots", [])]
            sidecar = Sidecar.from_config({
                "name": f"{nf['name']}-sidecar",
                "nf_type": nf["nf_type"],
                "local_nf_url": mock.base_url,
                "trusted_roots": [root_of_domain[d].did for d in trusting],
                "seed": b64u_encode(seeds[nf["name"]]),
                "routes": [{"host": route["host"], "target_did": dids[route["target"]],
                            "path_prefix": route.get("path_prefix", "/")}
                           for route in nf.get("routes", [])],
                "local_services": nf.get("services", []),
                "association_store": (state_dir / f"{nf['name']}-assoc.jsonl") if state_dir else None,
            }, client)
            sidecar.bootstrap()
            started.callback(sidecar.shutdown)
            ipmf = ipmfs[nf["ipmf"]]
            identity = {"nf_type": nf["nf_type"], "domain": nf["domain"]}
            bootstrap = ipmf.issue_credential_to(sidecar.did, KIND_AUTHN,
                                                 {**identity, "bootstrap": "true"})
            requests = [{"issuer": ipmf.did, "kind": KIND_AUTHN, "claims": identity}]
            requests += [{"issuer": ipmfs[grant.get("ipmf", nf["ipmf"])].did, "kind": KIND_AUTHZ,
                          "claims": {k: grant[k] for k in ("producer", "service", "ops")}}
                         for grant in nf.get("grants", [])]
            nfs[nf["name"]] = NfHandle(
                name=nf["name"], nf_type=nf["nf_type"], domain=nf["domain"], mock=mock,
                sidecar=sidecar, operational_creds=provision(sidecar, [bootstrap], requests),
            )

        topology = Topology(
            registry=registry, registry_server=registry_server, client=client,
            roots=roots, ipmfs=ipmfs, nfs=nfs, config=config,
        )
        topology.teardown = started.pop_all()
        return topology


# --- scenario execution -------------------------------------------------------------


@dataclass
class StepResult:
    index: int
    caller: str
    callee: str
    method: str
    path: str
    expected_status: int
    status: int
    body: bytes
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return self.status == self.expected_status


@dataclass
class Transcript:
    mode: str
    results: list[StepResult]
    duration_s: float
    handshakes: int

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)


class ScenarioError(SbaclError):
    def __init__(self, step: StepResult):
        self.step = step
        super().__init__(
            f"step {step.index} {step.caller}->{step.callee} {step.method} {step.path}: "
            f"got {step.status}, expected {step.expected_status}"
        )


def run_scenario(topology: Topology, script: dict, mode: str,
                 halt_on_failure: bool = True) -> Transcript:
    if mode not in ("plain", "tunneled"):
        raise ValueError(f"unknown mode {mode!r}")
    validate_script(script, topology.config)
    client = HttpClient(timeout=30)
    results: list[StepResult] = []
    handshakes_before = topology.handshake_total()
    started = time.perf_counter()
    for index, step in enumerate(script["steps"]):
        caller = topology.nfs[step["caller"]]
        callee = topology.nfs[step["callee"]]
        headers = {}
        if mode == "plain":
            url = callee.mock.base_url + step["path"]
        else:
            url = caller.sidecar.intercept_url + step["path"]
            headers["Host"] = callee.name
        data = None
        if "body" in step:
            data = json.dumps(step["body"], sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        step_start = time.perf_counter()
        status, _, body = client.request(step["method"], url, data, headers)
        result = StepResult(
            index=index, caller=step["caller"], callee=step["callee"],
            method=step["method"], path=step["path"],
            expected_status=int(step["expected_status"]),
            status=status, body=body,
            elapsed_s=time.perf_counter() - step_start,
        )
        results.append(result)
        if halt_on_failure and not result.ok:
            raise ScenarioError(result)
    return Transcript(
        mode=mode,
        results=results,
        duration_s=time.perf_counter() - started,
        handshakes=topology.handshake_total() - handshakes_before,
    )


def compare_transcripts(plain: Transcript, tunneled: Transcript) -> list[str]:
    """Step-by-step equivalence check; returns human-readable mismatches."""
    mismatches = []
    if len(plain.results) != len(tunneled.results):
        return [f"step counts differ: {len(plain.results)} vs {len(tunneled.results)}"]
    for p, t in zip(plain.results, tunneled.results):
        if p.status != t.status:
            mismatches.append(f"step {p.index}: status {p.status} vs {t.status}")
        if p.body != t.body:
            mismatches.append(f"step {p.index}: bodies differ")
    return mismatches


# --- benchmark ------------------------------------------------------------------------


@dataclass
class BenchReport:
    mode: str
    iterations: int
    per_iteration_s: list[float]
    mean_s: float
    stddev_s: float
    voided: int

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "iterations": self.iterations,
            "per_iteration_s": self.per_iteration_s,
            "mean_s": self.mean_s,
            "stddev_s": self.stddev_s,
            "voided": self.voided,
        }


def _bench_mode(topology: Topology, script: dict, mode: str, iterations: int) -> BenchReport:
    times: list[float] = []
    voided = 0
    for _ in range(iterations):
        started = time.perf_counter()
        try:
            transcript = run_scenario(topology, script, mode)
        except ScenarioError:
            voided += 1
            continue
        if not transcript.passed:
            voided += 1
            continue
        times.append(time.perf_counter() - started)
    mean = statistics.fmean(times) if times else 0.0
    stddev = statistics.stdev(times) if len(times) > 1 else 0.0
    return BenchReport(mode=mode, iterations=len(times), per_iteration_s=times,
                       mean_s=mean, stddev_s=stddev, voided=voided)


def benchmark(topology: Topology, script: dict, iterations: int = 30) -> dict:
    """Time the script in both modes and report the relative overhead.

    One tunneled warm-up pass (discarded) establishes every handshake, and
    its results are checked byte-for-byte against a plain pass, so the
    numbers only ever describe equivalent traffic.
    """
    plain_warm = run_scenario(topology, script, "plain")
    tunneled_warm = run_scenario(topology, script, "tunneled")
    mismatches = compare_transcripts(plain_warm, tunneled_warm)
    if mismatches:
        raise SbaclError("modes diverge, refusing to benchmark: " + "; ".join(mismatches))

    plain = _bench_mode(topology, script, "plain", iterations)
    tunneled = _bench_mode(topology, script, "tunneled", iterations)
    overhead_pct = None
    if plain.mean_s > 0 and tunneled.iterations and plain.iterations:
        overhead_pct = (tunneled.mean_s / plain.mean_s - 1.0) * 100.0
    return {
        "script": script.get("name", "unnamed"),
        "steps": len(script["steps"]),
        "iterations_requested": iterations,
        "plain": plain.to_dict(),
        "tunneled": tunneled.to_dict(),
        "relative_overhead_pct": overhead_pct,
        "warmup": {"mode_equivalent": True, "handshakes": tunneled_warm.handshakes},
    }


def format_report(report: dict) -> str:
    lines = [
        f"script: {report['script']} ({report['steps']} steps)",
        f"{'mode':<10}{'iters':>6}{'mean [s]':>12}{'stddev [s]':>12}{'voided':>8}",
    ]
    for mode in ("plain", "tunneled"):
        r = report[mode]
        lines.append(
            f"{r['mode']:<10}{r['iterations']:>6}{r['mean_s']:>12.4f}"
            f"{r['stddev_s']:>12.4f}{r['voided']:>8}"
        )
    overhead = report["relative_overhead_pct"]
    if overhead is not None:
        lines.append(f"relative overhead: {overhead:+.1f}%")
    else:
        lines.append("relative overhead: not computable (missing iterations)")
    return "\n".join(lines)
