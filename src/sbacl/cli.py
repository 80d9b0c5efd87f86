"""Command line entry points `ipmf`, `sidecar` and `harness`: each parses an
argv list and returns 0, 1 (the config cannot serve, a run fails) or 2 (usage).
"""

from __future__ import annotations

import argparse
import json
import signal
from pathlib import Path

from .credentials import VerifiableCredential
from .harness import (
    benchmark,
    bundled,
    format_report,
    launch_topology,
    load_json,
    provision,
    run_scenario,
)
from .ipmf import Ipmf
from .sidecar import Sidecar
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


def _existing(path: str) -> str:
    if not Path(path).exists():
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


def _group(prog: str, doc: str):
    parser = argparse.ArgumentParser(prog=prog, description=doc)
    return parser, parser.add_subparsers(dest="command", required=True)


def _command(subparsers, name: str, fn) -> argparse.ArgumentParser:
    """A subcommand that runs `fn(args)`, described by fn's docstring."""
    sub = subparsers.add_parser(name, help=fn.__doc__, description=fn.__doc__)
    sub.set_defaults(fn=fn)
    return sub


# --- ipmf ----------------------------------------------------------------------


def ipmf(argv: list[str] | None = None) -> int:
    """Run and administer an identity and permission management function."""
    parser, commands = _group("ipmf", ipmf.__doc__)
    run = _command(commands, "run", ipmf_run)
    run.add_argument("--config", type=_existing, required=True)
    delegate = _command(commands, "delegate", ipmf_delegate)
    delegate.add_argument("--config", type=_existing, required=True)
    delegate.add_argument("--child", required=True, help="DID of the child IPMF")
    delegate.add_argument("--rights", required=True,
                          help="comma separated, e.g. issue_authn,issue_authz")
    delegate.add_argument("--validity", type=int, help="lifetime in seconds")
    delegate.add_argument("--out")
    revoke = _command(commands, "revoke", ipmf_revoke)
    revoke.add_argument("--config", type=_existing, required=True)
    revoke.add_argument("--credential", required=True)
    args = parser.parse_args(argv)
    return args.fn(args) or 0


def _registry_of(config: dict, needs_registry_to: str | None = None):
    """A client for the config's `registry_url`, or None; `needs_registry_to`
    names what the command cannot do without one."""
    url = config.get("registry_url")
    if needs_registry_to and not url:
        raise SystemExit(f"Error: config needs registry_url to {needs_registry_to}")
    return RegistryHttpClient(url) if url else None


def _load_ipmf(path: str, needs_registry_to: str | None = None) -> tuple[Ipmf, dict]:
    """The IPMF a config file describes, and the config."""
    config = load_json(path)
    return Ipmf.from_config(config, _registry_of(config, needs_registry_to)), config


def ipmf_run(args) -> None:
    """Serve the issuance protocol for the configured IPMF."""
    instance, config = _load_ipmf(args.config, "serve")
    instance.bootstrap(host=config.get("listen_host", "127.0.0.1"),
                       port=int(config.get("listen_port", 0)))
    print(f"name:       {instance.name}")
    print(f"did:        {instance.did}")
    print(f"endpoint:   {instance.server.endpoint}")
    print(f"trust root: {instance.trust_root}")
    _wait_forever()
    instance.shutdown()


def ipmf_delegate(args) -> None:
    """Issue a delegation credential for a child IPMF."""
    instance, _ = _load_ipmf(args.config)
    vc = instance.delegate_to_child(args.child, args.rights.split(","), validity=args.validity)
    payload = json.dumps(vc.to_dict(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {vc.credential_id} to {args.out}")
    else:
        print(payload)


def ipmf_revoke(args) -> None:
    """Revoke a credential previously issued by this IPMF."""
    instance, _ = _load_ipmf(args.config, "reach the registry")
    instance.revoke_credential(args.credential)
    print(f"revoked {args.credential}")


# --- sidecar ----------------------------------------------------------------------


def sidecar(argv: list[str] | None = None) -> int:
    """Run the per-NF proxy that authenticates and tunnels service traffic."""
    parser, commands = _group("sidecar", sidecar.__doc__)
    _command(commands, "run", sidecar_run).add_argument(
        "--config", type=_existing, required=True)
    args = parser.parse_args(argv)
    return args.fn(args) or 0


def sidecar_run(args) -> None:
    """Start a sidecar from a JSON config and serve until interrupted."""
    raw = load_json(args.config)
    registry = _registry_of(raw, "serve")
    requests = raw.get("credential_requests", [])
    bootstrap_creds = [VerifiableCredential.from_dict(load_json(p))
                       for p in raw.get("bootstrap_credentials", [])]
    if requests and not bootstrap_creds:
        raise SystemExit("Error: credential_requests need bootstrap_credentials")
    for index, request in enumerate(requests):
        if "issuer" not in request:
            raise SystemExit(f"Error: credential_requests[{index}] names no issuer")

    instance = Sidecar.from_config(raw, registry)
    instance.bootstrap(
        host=raw.get("listen_host", "127.0.0.1"),
        peer_port=int(raw.get("peer_port", 0)),
        intercept_port=int(raw.get("intercept_port", 0)),
    )
    for vc in provision(instance, bootstrap_creds, requests):
        print(f"obtained {vc.kind} credential {vc.credential_id}")

    print(f"name:          {instance.name}")
    print(f"did:           {instance.did}")
    print(f"peer endpoint: {instance.peer_endpoint}")
    print(f"intercept:     {instance.intercept_url}")
    _wait_forever()
    instance.shutdown()


# --- harness ---------------------------------------------------------------------


def _load_topology_arg(path: str | None) -> dict:
    return load_json(path) if path else bundled("topology_single_domain.json")


def _load_script_arg(path: str | None) -> dict:
    return load_json(path) if path else bundled("ue_registration.json")


def harness(argv: list[str] | None = None) -> int:
    """Bring up a local topology and replay scripted NF traffic."""
    parser, commands = _group("harness", harness.__doc__)
    up = _command(commands, "up", harness_up)
    up.add_argument("--topology", type=_existing)
    up.add_argument("--state-dir")
    run = _command(commands, "run", harness_run)
    run.add_argument("--topology", type=_existing)
    run.add_argument("--script", type=_existing)
    run.add_argument("--mode", choices=["plain", "tunneled"], required=True)
    run.add_argument("--state-dir")
    bench = _command(commands, "bench", harness_bench)
    bench.add_argument("--topology", type=_existing)
    bench.add_argument("--script", type=_existing)
    bench.add_argument("--iterations", type=int, default=30, help="default: %(default)s")
    bench.add_argument("--out")
    args = parser.parse_args(argv)
    return args.fn(args) or 0


def harness_up(args) -> None:
    """Launch the topology and keep it running for manual poking."""
    topology = launch_topology(_load_topology_arg(args.topology), state_dir=args.state_dir)
    print(f"registry: {topology.registry_server.base_url}")
    for root in topology.roots.values():
        print(f"root {root.name}: {root.did}")
    for instance in topology.ipmfs.values():
        print(f"ipmf {instance.name}: {instance.did} at {instance.server.endpoint}")
    for handle in topology.nfs.values():
        print(f"nf {handle.name}: mock {handle.mock.base_url} "
              f"intercept {handle.sidecar.intercept_url} did {handle.sidecar.did}")
    _wait_forever()
    topology.shutdown()


def harness_run(args) -> int:
    """Run a scripted scenario once and report per-step outcomes."""
    script = _load_script_arg(args.script)
    topology = launch_topology(_load_topology_arg(args.topology), state_dir=args.state_dir)
    try:
        transcript = run_scenario(topology, script, args.mode, halt_on_failure=False)
    finally:
        topology.shutdown()
    for result in transcript.results:
        marker = "ok " if result.ok else "FAIL"
        print(
            f"{marker} [{result.index:3d}] {result.caller}->{result.callee} "
            f"{result.method} {result.path} -> {result.status}"
        )
    print(
        f"{transcript.mode}: {sum(r.ok for r in transcript.results)}/"
        f"{len(transcript.results)} steps ok in {transcript.duration_s:.3f}s, "
        f"{transcript.handshakes} handshakes"
    )
    return 0 if transcript.passed else 1


def harness_bench(args) -> None:
    """Benchmark plain vs tunneled execution of the script."""
    script = _load_script_arg(args.script)
    topology = launch_topology(_load_topology_arg(args.topology))
    try:
        report = benchmark(topology, script, iterations=args.iterations)
    finally:
        topology.shutdown()
    print(format_report(report))
    if args.out:
        Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote report to {args.out}")
