"""The published JSON schemas accept what the library emits, and nothing looser."""

import json
from pathlib import Path

import pytest
import requests
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from sbacl.credentials import (
    KIND_AUTHN,
    KIND_AUTHZ,
    build_presentation,
    fresh_challenge,
    issue_credential,
)
from sbacl.envelope import REGISTERED_TYPES, MSG_TUNNEL_REQUEST, ProtocolMessage, pack
from sbacl.harness import benchmark, launch_topology
from sbacl.identity import (
    Resolver,
    create_registry_did,
    generate_keypair,
    rotate_document,
    self_sign_document,
)
from sbacl.vdr import Registry as DidRegistry

from conftest import MINI_SCRIPT, MINI_TOPOLOGY, build_hierarchy, registered_identity

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"

_RESOURCES = []
for _path in sorted(SCHEMA_DIR.glob("*.schema.json")):
    _schema = json.loads(_path.read_text(encoding="utf-8"))
    _RESOURCES.append((_schema["$id"], Resource.from_contents(_schema)))
REGISTRY = Registry().with_resources(_RESOURCES)


def validator(name: str) -> Draft202012Validator:
    schema = json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))
    return Draft202012Validator(schema, registry=REGISTRY)


def _check(name: str, instance) -> None:
    errors = list(validator(name).iter_errors(instance))
    assert not errors, "\n".join(e.message for e in errors)


def test_credential_schema_accepts_minimal_and_full_shapes():
    dids = DidRegistry()
    root_keys, root_did = registered_identity(dids)
    holder_keys, holder_did = registered_identity(dids)
    minimal = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did,
                               {"nf_type": "AMF"})
    _check("credential.schema.json", minimal.to_dict())

    _, issuer_keys, issuer_did, chain = build_hierarchy(dids, 2)
    full = issue_credential(issuer_keys, issuer_did, KIND_AUTHZ, holder_did,
                            {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"},
                            validity=3600, revocation_registry_id="rr-1", chain=chain)
    _check("credential.schema.json", full.to_dict())


def test_presentation_schema_accepts_library_output():
    dids = DidRegistry()
    _, issuer_keys, issuer_did, chain = build_hierarchy(dids, 1)
    holder_keys, holder_did = registered_identity(dids)
    creds = [
        issue_credential(issuer_keys, issuer_did, KIND_AUTHN, holder_did,
                         {"nf_type": "AMF"}, chain=chain),
        issue_credential(issuer_keys, issuer_did, KIND_AUTHZ, holder_did,
                         {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"},
                         chain=chain),
    ]
    vp = build_presentation(holder_keys, holder_did, creds, fresh_challenge())
    _check("presentation.schema.json", vp.to_dict())


def test_envelope_schema_accepts_packed_envelope():
    dids = DidRegistry()
    sender_keys, sender_did = registered_identity(dids)
    recipient_doc = Resolver(dids).resolve(registered_identity(dids)[1])
    env = pack(ProtocolMessage(MSG_TUNNEL_REQUEST, {"method": "GET"}),
               sender_keys, sender_did, recipient_doc)
    _check("envelope.schema.json", env.protected_header)


def test_message_schema_accepts_every_registered_type():
    for mtype in sorted(REGISTERED_TYPES):
        _check("message.schema.json", ProtocolMessage(mtype, {"x": "y"}).to_dict())


def test_did_history_schema_accepts_a_live_registry_answer(registry_http):
    _, _, client = registry_http
    keys = generate_keypair()
    _, doc = create_registry_did(keys, "http://127.0.0.1:9")
    client.register(self_sign_document(doc, keys))
    client.update(rotate_document(doc, generate_keypair(), keys.signing_secret))
    resp = requests.get(f"{client.base_url}/dids/{doc.did}", timeout=5)
    assert resp.status_code == 200
    _check("did-history.schema.json", resp.json())
    assert [v["document"]["version"] for v in resp.json()["versions"]] == [1, 2]


def test_report_schema_accepts_benchmark_output():
    topology = launch_topology(MINI_TOPOLOGY)
    try:
        report = benchmark(topology, MINI_SCRIPT, iterations=1)
    finally:
        topology.shutdown()
    _check("report.schema.json", report)
    # overhead may legitimately be null when a mode has no usable iterations
    _check("report.schema.json", {**report, "relative_overhead_pct": None})


@pytest.mark.parametrize("name,instance", [
    ("credential.schema.json",
     {"credential_id": "x", "kind": "AuthN", "issuer": "did:svdr:2a",
      "subject": "did:svdr:2a", "claims": {}, "issued_at": 1}),  # no proof
    ("credential.schema.json",
     {"credential_id": "c0ffee00-0000-4000-8000-000000000000", "kind": "Badge",
      "issuer": "did:svdr:2a", "subject": "did:svdr:2a", "claims": {},
      "issued_at": 1, "proof": "aa"}),  # unknown kind
    ("presentation.schema.json",
     {"holder": "did:svdr:2a", "credentials": [], "challenge": "A" * 43,
      "created_at": 1, "proof": "aa"}),  # empty credential list
    ("envelope.schema.json",
     {"sender": "did:svdr:2a", "recipient": "did:svdr:2a", "recipient_key_version": 1,
      "content_encryption": "A256GCM", "nonce": "A" * 32}),  # wrong alg
    ("message.schema.json",
     {"type": "acl/2.0/offer", "thread_id": "t", "body": {}}),  # unknown version
    ("did-history.schema.json", {"versions": []}),  # no version 1
    ("did-history.schema.json",
     {"document": {"id": "did:svdr:2a", "version": 1, "signingKey": "A" * 43,
                   "agreementKey": "A" * 43}}),  # a bare document, not a history
])
def test_schemas_reject_malformed(name, instance):
    assert not validator(name).is_valid(instance)
