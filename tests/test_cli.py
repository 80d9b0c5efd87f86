import contextlib
import io
import json
import sys
from typing import NamedTuple

import pytest

from sbacl.cli import harness, ipmf, sidecar
from sbacl.credentials import KIND_AUTHN, KIND_AUTHZ, KIND_DEL, VerifiableCredential
from sbacl.encoding import b64u_encode
from sbacl.errors import ConfigError, IssuanceError
from sbacl.identity import create_registry_did, generate_keypair
from sbacl.ipmf import Ipmf, PolicyRule
from sbacl.mocknf import MockNf
from sbacl.sidecar import Sidecar

from conftest import MINI_SCRIPT, MINI_TOPOLOGY, leaked_files, registered_identity

SEED = bytes(range(32))


class Result(NamedTuple):
    exit_code: int
    output: str
    exception: BaseException | None


def invoke(cmd, *args):
    """Run an entry point in-process as its console script would: the exit
    code from its return or `SystemExit` (a message counts as 1 and goes to
    stderr), any other exception as 1. The output is stdout then stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            exit_code = cmd([str(a) for a in args])
        except SystemExit as exc:
            exit_code = exc.code
            if isinstance(exc.code, str):
                print(exc.code, file=sys.stderr)
                exit_code = 1
        except Exception as exc:  # a traceback exits 1
            exception, exit_code = exc, 1
    return Result(exit_code or 0, stdout.getvalue() + stderr.getvalue(), exception)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def quiet_serve(monkeypatch):
    monkeypatch.setattr("sbacl.cli._wait_forever", lambda: None)


# The ids name each case by position, as they always have.
@pytest.mark.parametrize("group,subcommands", [
    (ipmf, ("run", "delegate", "revoke")),
    (sidecar, ("run",)),
    (harness, ("up", "run", "bench")),
], ids=[f"group{i}-subcommands{i}" for i in range(3)])
def test_help_lists_subcommands(group, subcommands):
    result = invoke(group, "--help")
    assert result.exit_code == 0
    for name in subcommands:
        assert name in result.output


# --- ipmf -----------------------------------------------------------------------


def test_delegate_writes_a_credential_file(registry, tmp_path):
    config = write_json(tmp_path / "root.json",
                        {"name": "root", "seed": b64u_encode(SEED)})
    _, child_did = registered_identity(registry)
    out = tmp_path / "delegation.json"

    result = invoke(ipmf, "delegate", "--config", config, "--child", child_did,
                    "--rights", "issue_authz,issue_authn", "--out", out)
    assert result.exit_code == 0, result.output
    assert "wrote" in result.output

    vc = VerifiableCredential.from_dict(json.loads(out.read_text()))
    assert vc.kind == KIND_DEL
    assert vc.subject == child_did
    assert vc.claims["rights"] == "issue_authn,issue_authz"
    assert vc.proof is not None


def test_delegate_prints_to_stdout_without_out(registry, tmp_path):
    config = write_json(tmp_path / "root.json",
                        {"name": "root", "seed": b64u_encode(SEED)})
    _, child_did = registered_identity(registry)
    result = invoke(ipmf, "delegate", "--config", config,
                    "--child", child_did, "--rights", "delegate",
                    "--validity", 3600)
    assert result.exit_code == 0, result.output
    vc = VerifiableCredential.from_dict(json.loads(result.output))
    assert vc.expires_at == vc.issued_at + 3600


def test_delegate_and_revoke_leave_no_file_open(registry_http, tmp_path):
    registry, server, client = registry_http
    log = tmp_path / "issued.jsonl"
    root = Ipmf(name="root", registry=client, keys=generate_keypair(SEED))
    root.bootstrap(serve=False)
    config = write_json(tmp_path / "root.json", {
        "name": "root",
        "seed": b64u_encode(SEED),
        "registry_url": server.base_url,
        "issuance_log": str(log),
    })
    _, child_did = registered_identity(registry)
    results = []

    def delegate():
        results.append(invoke(ipmf, "delegate", "--config", config,
                              "--child", child_did, "--rights", "delegate"))

    def revoke():
        credential_id = json.loads(results[0].output)["credential_id"]
        results.append(invoke(ipmf, "revoke", "--config", config,
                              "--credential", credential_id))

    assert (leaked_files(delegate, tmp_path), leaked_files(revoke, tmp_path)) == ([], [])
    assert [r.exit_code for r in results] == [0, 0], [r.output for r in results]
    root.shutdown()


def test_bad_config_is_rejected_with_all_problems(tmp_path):
    config = write_json(tmp_path / "root.json", {
        "name": "root",
        "seed": b64u_encode(b"short"),
        "policy": [{"kind": "NotAKind"}],
    })
    result = invoke(ipmf, "delegate", "--config", config,
                    "--child", "did:svdr:x", "--rights", "delegate")
    assert result.exit_code != 0
    assert isinstance(result.exception, ConfigError)
    assert len(result.exception.problems) == 2


def test_run_requires_registry_url(tmp_path):
    config = write_json(tmp_path / "root.json", {"name": "root"})
    result = invoke(ipmf, "run", "--config", config)
    assert result.exit_code == 1
    assert "registry_url" in result.output


def test_run_rejects_missing_config_path():
    result = invoke(ipmf, "run", "--config", "/nonexistent.json")
    assert result.exit_code == 2


def test_run_reports_identity(registry_http, tmp_path, quiet_serve):
    _, server, _ = registry_http
    config = write_json(tmp_path / "root.json", {
        "name": "root-1",
        "seed": b64u_encode(SEED),
        "registry_url": server.base_url,
    })
    result = invoke(ipmf, "run", "--config", config)
    assert result.exit_code == 0, result.output
    for label in ("name:", "did:", "endpoint:", "trust root:"):
        assert label in result.output
    assert "root-1" in result.output


def test_revoke_flips_registry_status(registry_http, tmp_path):
    registry, server, client = registry_http
    log = tmp_path / "issued.jsonl"
    root = Ipmf(name="root", registry=client, keys=generate_keypair(SEED),
                allow_direct_issuance=True, issuance_log=log)
    root.bootstrap(serve=False)
    _, holder_did = registered_identity(registry)
    vc = root.issue_credential_to(holder_did, KIND_AUTHN, {"nf_type": "AMF"})
    ids = [vc.credential_id]
    assert client.check_status(root.did, ids) == {vc.credential_id: "active"}

    config = write_json(tmp_path / "root.json", {
        "name": "root",
        "seed": b64u_encode(SEED),
        "registry_url": server.base_url,
        "issuance_log": str(log),
    })
    result = invoke(ipmf, "revoke", "--config", config,
                    "--credential", vc.credential_id)
    assert result.exit_code == 0, result.output
    assert f"revoked {vc.credential_id}" in result.output
    assert client.check_status(root.did, ids) == {vc.credential_id: "revoked"}

    stranger = invoke(ipmf, "revoke", "--config", config,
                      "--credential", "someone-elses-credential")
    assert stranger.exit_code != 0
    assert isinstance(stranger.exception, IssuanceError)
    root.shutdown()


# --- sidecar --------------------------------------------------------------------


def test_sidecar_run_provisions_over_the_wire(registry_http, tmp_path, quiet_serve):
    _, server, client = registry_http
    issuer = Ipmf(
        name="issuer", registry=client,
        allow_direct_issuance=True,
        policy=[PolicyRule(kind=KIND_AUTHN,
                           match={"nf_type": "AMF", "bootstrap": "true"},
                           request_match={"nf_type": "AMF"})],
    )
    issuer.bootstrap()
    nf = MockNf("AMF", "AMF", []).start()

    keys = generate_keypair(SEED)
    did = create_registry_did(keys)[0]
    bootstrap = issuer.issue_credential_to(
        did, KIND_AUTHN, {"nf_type": "AMF", "bootstrap": "true"})
    cred_path = write_json(tmp_path / "bootstrap.json", bootstrap.to_dict())

    config = write_json(tmp_path / "sidecar.json", {
        "name": "amf-sidecar",
        "nf_type": "AMF",
        "registry_url": server.base_url,
        "local_nf_url": nf.base_url,
        "trusted_roots": [issuer.did],
        "seed": b64u_encode(SEED),
        "bootstrap_credentials": [cred_path],
        "credential_requests": [{"issuer": issuer.did, "kind": KIND_AUTHN,
                                 "claims": {"nf_type": "AMF"}}],
    })
    try:
        result = invoke(sidecar, "run", "--config", config)
        assert result.exit_code == 0, result.output
        assert f"obtained {KIND_AUTHN} credential" in result.output
        assert did in result.output
        assert "peer endpoint:" in result.output
    finally:
        nf.stop()
        issuer.shutdown()


def test_sidecar_run_refuses_requests_without_bootstrap(registry_http, tmp_path,
                                                        quiet_serve):
    _, server, _ = registry_http
    config = write_json(tmp_path / "sidecar.json", {
        "name": "amf-sidecar",
        "nf_type": "AMF",
        "registry_url": server.base_url,
        "local_nf_url": "http://127.0.0.1:9",
        "credential_requests": [{"issuer": "did:svdr:whatever", "kind": KIND_AUTHN,
                                 "claims": {}}],
    })
    result = invoke(sidecar, "run", "--config", config)
    assert result.exit_code == 1
    assert "bootstrap_credentials" in result.output


def test_sidecar_run_requires_registry_url(tmp_path):
    config = write_json(tmp_path / "sidecar.json", {
        "name": "amf-sidecar", "nf_type": "AMF", "local_nf_url": "http://127.0.0.1:9"})
    result = invoke(sidecar, "run", "--config", config)
    assert (result.exit_code, result.exception) == (1, None)
    assert "Error: config needs registry_url to serve" in result.output


def test_sidecar_run_names_every_missing_key(registry_http, tmp_path, monkeypatch):
    _, server, _ = registry_http
    config = write_json(tmp_path / "sidecar.json", {"registry_url": server.base_url})
    listening = []
    monkeypatch.setattr(Sidecar, "bootstrap", lambda self, **_: listening.append(self))
    result = invoke(sidecar, "run", "--config", config)
    assert result.exit_code == 1
    assert isinstance(result.exception, ConfigError)
    assert result.exception.problems == [
        "config needs name", "config needs nf_type", "config needs local_nf_url"]
    assert listening == []


def test_sidecar_run_asks_each_request_of_its_own_issuer(registry_http, tmp_path,
                                                         quiet_serve, monkeypatch):
    _, server, client = registry_http
    alpha = Ipmf(
        name="alpha", registry=client, allow_direct_issuance=True,
        policy=[PolicyRule(kind=KIND_AUTHN,
                           match={"nf_type": "AMF", "bootstrap": "true"},
                           request_match={"nf_type": "AMF"})],
    )
    grant = {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}
    beta = Ipmf(
        name="beta", registry=client, trusted_foreign_roots=[alpha.did],
        allow_direct_issuance=True,
        policy=[PolicyRule(kind=KIND_AUTHZ, match={"nf_type": "AMF", "bootstrap": "true"},
                           request_match=grant)],
    )
    for issuer in (alpha, beta):
        issuer.bootstrap()
    nf = MockNf("AMF", "AMF", []).start()
    did = create_registry_did(generate_keypair(SEED))[0]
    bootstrap = alpha.issue_credential_to(did, KIND_AUTHN, {"nf_type": "AMF", "bootstrap": "true"})
    config = write_json(tmp_path / "sidecar.json", {
        "name": "amf-sidecar",
        "nf_type": "AMF",
        "registry_url": server.base_url,
        "local_nf_url": nf.base_url,
        "trusted_roots": [alpha.did, beta.did],
        "seed": b64u_encode(SEED),
        "bootstrap_credentials": [write_json(tmp_path / "bootstrap.json", bootstrap.to_dict())],
        "credential_requests": [
            {"issuer": alpha.did, "kind": KIND_AUTHN, "claims": {"nf_type": "AMF"}},
            {"issuer": beta.did, "kind": KIND_AUTHZ, "claims": grant},
        ],
    })
    added = []
    add_credential = Sidecar.add_credential
    monkeypatch.setattr(Sidecar, "add_credential",
                        lambda self, vc: (added.append(vc), add_credential(self, vc)))
    try:
        result = invoke(sidecar, "run", "--config", config)
        assert result.exit_code == 0, result.output
        assert [(vc.kind, vc.issuer) for vc in added] == [
            (KIND_AUTHN, alpha.did), (KIND_AUTHZ, beta.did)]
        for vc in added:
            assert f"obtained {vc.kind} credential {vc.credential_id}" in result.output
    finally:
        nf.stop()
        alpha.shutdown()
        beta.shutdown()


def test_sidecar_run_refuses_a_request_without_issuer(registry_http, tmp_path,
                                                      quiet_serve, monkeypatch):
    _, server, client = registry_http
    issuer = Ipmf(name="issuer", registry=client, allow_direct_issuance=True)
    issuer.bootstrap(serve=False)
    bootstrap = issuer.issue_credential_to(
        create_registry_did(generate_keypair(SEED))[0], KIND_AUTHN,
        {"nf_type": "AMF", "bootstrap": "true"})
    config = write_json(tmp_path / "sidecar.json", {
        "name": "amf-sidecar",
        "nf_type": "AMF",
        "registry_url": server.base_url,
        "local_nf_url": "http://127.0.0.1:9",
        "bootstrap_credentials": [write_json(tmp_path / "bootstrap.json", bootstrap.to_dict())],
        "credential_requests": [
            {"issuer": issuer.did, "kind": KIND_AUTHN, "claims": {"nf_type": "AMF"}},
            {"kind": KIND_AUTHN, "claims": {"nf_type": "AMF"}},
        ],
    })
    listening = []
    monkeypatch.setattr(Sidecar, "bootstrap", lambda self, **_: listening.append(self))
    result = invoke(sidecar, "run", "--config", config)
    assert (result.exit_code, result.exception, listening) == (1, None, [])
    assert "credential_requests[1] names no issuer" in result.output
    issuer.shutdown()


# --- harness --------------------------------------------------------------------


def test_harness_run_replays_a_script(tmp_path):
    topo = write_json(tmp_path / "topo.json", MINI_TOPOLOGY)
    script = write_json(tmp_path / "script.json", MINI_SCRIPT)
    result = invoke(harness, "run", "--topology", topo, "--script", script,
                    "--mode", "tunneled")
    assert result.exit_code == 0, result.output
    assert result.output.count("ok ") >= 3
    assert "tunneled: 3/3 steps ok" in result.output
    assert "1 handshakes" in result.output


def test_harness_run_flags_failing_steps(tmp_path):
    topo = write_json(tmp_path / "topo.json", MINI_TOPOLOGY)
    script = write_json(tmp_path / "script.json", {
        "name": "wrong", "steps": [
            {"caller": "AMF", "callee": "UDM", "method": "GET",
             "path": "/nudm-sdm/v2/am-data", "expected_status": 418},
        ],
    })
    result = invoke(harness, "run", "--topology", topo, "--script", script,
                    "--mode", "plain")
    assert result.exit_code == 1
    assert "FAIL" in result.output
    assert "plain: 0/1 steps ok" in result.output


def test_harness_run_rejects_unknown_mode(tmp_path):
    result = invoke(harness, "run", "--mode", "carrier-pigeon")
    assert result.exit_code == 2
    assert "invalid choice" in result.output


def test_harness_bench_writes_report(tmp_path):
    topo = write_json(tmp_path / "topo.json", MINI_TOPOLOGY)
    script = write_json(tmp_path / "script.json", MINI_SCRIPT)
    out = tmp_path / "report.json"
    result = invoke(harness, "bench", "--topology", topo, "--script", script,
                    "--iterations", 2, "--out", out)
    assert result.exit_code == 0, result.output
    assert "relative overhead:" in result.output
    assert f"wrote report to {out}" in result.output

    report = json.loads(out.read_text())
    assert report["iterations_requested"] == 2
    assert report["plain"]["iterations"] == 2
    assert report["tunneled"]["iterations"] == 2
    assert report["warmup"]["mode_equivalent"] is True


def test_harness_up_prints_the_map(tmp_path, quiet_serve):
    topo = write_json(tmp_path / "topo.json", MINI_TOPOLOGY)
    result = invoke(harness, "up", "--topology", topo)
    assert result.exit_code == 0, result.output
    assert "registry: http://127.0.0.1:" in result.output
    assert "root core-root:" in result.output
    assert "ipmf core-ipmf:" in result.output
    assert "nf AMF:" in result.output and "nf UDM:" in result.output
