"""Command line entry points: `ipmf`, `sidecar`, and `harness`."""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import click

from .credentials import VerifiableCredential
from .encoding import b64u_decode
from .envelope_http import EnvelopeChannel
from .harness import (
    benchmark,
    bundled,
    format_report,
    launch_topology,
    load_json,
    run_scenario,
)
from .identity import generate_keypair
from .ipmf import Ipmf, load_config
from .protocols import run_issuance
from .sidecar import LocalService, RouteRule, Sidecar
from .vdr_http import RegistryHttpClient


def _wait_forever() -> None:
    try:
        signal.pause()
    except (KeyboardInterrupt, AttributeError):
        # signal.pause is unavailable on some platforms; fall back to input().
        try:
            while True:
                input()
        except (KeyboardInterrupt, EOFError):
            pass


# --- ipmf ----------------------------------------------------------------------


@click.group()
def ipmf() -> None:
    """Run and administer an identity and permission management function."""


@ipmf.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def ipmf_run(config_path: str) -> None:
    """Serve the issuance protocol for the configured IPMF."""
    config = load_config(config_path)
    if not config.registry_url:
        raise click.ClickException("config needs registry_url to serve")
    instance = Ipmf.from_config(config, RegistryHttpClient(config.registry_url))
    instance.bootstrap(host=config.listen_host, port=config.listen_port)
    click.echo(f"name:                {instance.name}")
    click.echo(f"did:                 {instance.did}")
    click.echo(f"endpoint:            {instance.server.endpoint}")
    click.echo(f"revocation registry: {instance.revocation_registry_id}")
    click.echo(f"trust root:          {instance.trust_root}")
    _wait_forever()
    instance.shutdown()


@ipmf.command("delegate")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--child", required=True, help="DID of the child IPMF")
@click.option("--rights", required=True,
              help="comma separated, e.g. issue_authn,issue_authz")
@click.option("--validity", type=int, default=None, help="lifetime in seconds")
@click.option("--out", "out_path", type=click.Path(), default=None)
def ipmf_delegate(config_path: str, child: str, rights: str,
                  validity: int | None, out_path: str | None) -> None:
    """Issue a delegation credential for a child IPMF."""
    config = load_config(config_path)
    registry = RegistryHttpClient(config.registry_url) if config.registry_url else None
    instance = Ipmf.from_config(config, registry)
    vc = instance.delegate_to_child(child, rights.split(","), validity=validity)
    payload = json.dumps(vc.to_dict(), indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(payload + "\n", encoding="utf-8")
        click.echo(f"wrote {vc.credential_id} to {out_path}")
    else:
        click.echo(payload)


@ipmf.command("revoke")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--registry-id", required=True,
              help="revocation registry id printed by `ipmf run`")
@click.option("--credential", "credential_id", required=True)
def ipmf_revoke(config_path: str, registry_id: str, credential_id: str) -> None:
    """Revoke a credential previously issued by this IPMF."""
    config = load_config(config_path)
    if not config.registry_url:
        raise click.ClickException("config needs registry_url to reach the registry")
    instance = Ipmf.from_config(config, RegistryHttpClient(config.registry_url))
    instance.revocation_registry_id = registry_id
    instance.revoke_credential(credential_id)
    click.echo(f"revoked {credential_id}")


# --- sidecar ----------------------------------------------------------------------


@click.group()
def sidecar() -> None:
    """Run the per-NF proxy that authenticates and tunnels service traffic."""


@sidecar.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def sidecar_run(config_path: str) -> None:
    """Start a sidecar from a JSON config and serve until interrupted."""
    raw = load_json(config_path)
    client = RegistryHttpClient(raw["registry_url"])
    keys = None
    if raw.get("seed"):
        keys = generate_keypair(b64u_decode(raw["seed"]))
    instance = Sidecar(
        name=raw["name"],
        nf_type=raw["nf_type"],
        registry=client,
        local_nf_url=raw["local_nf_url"],
        trusted_roots=raw.get("trusted_roots", []),
        keys=keys,
        routes=[RouteRule(host=r["host"], target_did=r["target_did"],
                          path_prefix=r.get("path_prefix", "/"))
                for r in raw.get("routes", [])],
        local_services=[LocalService(s["name"], s["path_prefix"])
                        for s in raw.get("local_services", [])],
        association_store=raw.get("association_store"),
        cache_max_age=float(raw.get("cache_max_age", 300.0)),
    )
    bootstrap_creds = [
        VerifiableCredential.from_dict(load_json(p))
        for p in raw.get("bootstrap_credentials", [])
    ]
    if raw.get("credential_requests") and not bootstrap_creds:
        raise click.ClickException("credential_requests need bootstrap_credentials")

    instance.bootstrap(
        host=raw.get("listen_host", "127.0.0.1"),
        peer_port=int(raw.get("peer_port", 0)),
        intercept_port=int(raw.get("intercept_port", 0)),
    )

    if raw.get("credential_requests"):
        channel = EnvelopeChannel(instance, raw["ipmf_did"])
        for request in raw["credential_requests"]:
            vc = run_issuance(channel, instance.keys, instance.did,
                              bootstrap_creds, request["kind"], request["claims"])
            instance.add_credential(vc)
            click.echo(f"obtained {request['kind']} credential {vc.credential_id}")

    click.echo(f"name:          {instance.name}")
    click.echo(f"did:           {instance.did}")
    click.echo(f"peer endpoint: {instance.peer_endpoint}")
    click.echo(f"intercept:     {instance.intercept_url}")
    _wait_forever()
    instance.shutdown()


# --- harness ---------------------------------------------------------------------


def _load_topology_arg(path: str | None) -> dict:
    return load_json(path) if path else bundled("topology_single_domain.json")


def _load_script_arg(path: str | None) -> dict:
    return load_json(path) if path else bundled("ue_registration.json")


@click.group()
def harness() -> None:
    """Bring up a local topology and replay scripted NF traffic."""


@harness.command("up")
@click.option("--topology", "topology_path", type=click.Path(exists=True), default=None)
@click.option("--state-dir", type=click.Path(), default=None)
def harness_up(topology_path: str | None, state_dir: str | None) -> None:
    """Launch the topology and keep it running for manual poking."""
    topology = launch_topology(_load_topology_arg(topology_path), state_dir=state_dir)
    click.echo(f"registry: {topology.registry_server.base_url}")
    for root in topology.roots.values():
        click.echo(f"root {root.name}: {root.did}")
    for instance in topology.ipmfs.values():
        click.echo(f"ipmf {instance.name}: {instance.did} at {instance.server.endpoint}")
    for handle in topology.nfs.values():
        click.echo(
            f"nf {handle.name}: mock {handle.mock.base_url} "
            f"intercept {handle.sidecar.intercept_url} did {handle.sidecar.did}"
        )
    _wait_forever()
    topology.shutdown()


@harness.command("run")
@click.option("--topology", "topology_path", type=click.Path(exists=True), default=None)
@click.option("--script", "script_path", type=click.Path(exists=True), default=None)
@click.option("--mode", type=click.Choice(["plain", "tunneled"]), required=True)
@click.option("--state-dir", type=click.Path(), default=None)
def harness_run(topology_path: str | None, script_path: str | None,
                mode: str, state_dir: str | None) -> None:
    """Run a scripted scenario once and report per-step outcomes."""
    script = _load_script_arg(script_path)
    topology = launch_topology(_load_topology_arg(topology_path), state_dir=state_dir)
    try:
        transcript = run_scenario(topology, script, mode, halt_on_failure=False)
    finally:
        topology.shutdown()
    for result in transcript.results:
        marker = "ok " if result.ok else "FAIL"
        click.echo(
            f"{marker} [{result.index:3d}] {result.caller}->{result.callee} "
            f"{result.method} {result.path} -> {result.status}"
        )
    click.echo(
        f"{transcript.mode}: {sum(r.ok for r in transcript.results)}/"
        f"{len(transcript.results)} steps ok in {transcript.duration_s:.3f}s, "
        f"{transcript.handshakes} handshakes"
    )
    if not transcript.passed:
        sys.exit(1)


@harness.command("bench")
@click.option("--topology", "topology_path", type=click.Path(exists=True), default=None)
@click.option("--script", "script_path", type=click.Path(exists=True), default=None)
@click.option("--iterations", type=int, default=30, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def harness_bench(topology_path: str | None, script_path: str | None,
                  iterations: int, out_path: str | None) -> None:
    """Benchmark plain vs tunneled execution of the script."""
    script = _load_script_arg(script_path)
    topology = launch_topology(_load_topology_arg(topology_path))
    try:
        report = benchmark(topology, script, iterations=iterations)
    finally:
        topology.shutdown()
    click.echo(format_report(report))
    if out_path:
        Path(out_path).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        click.echo(f"wrote report to {out_path}")
