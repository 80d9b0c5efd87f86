import json
import time

import pytest

from sbacl.credentials import (
    KIND_AUTHN,
    KIND_AUTHZ,
    KIND_DEL,
    build_presentation,
    fresh_challenge,
    issue_credential,
    verify_presentation,
)
from sbacl.encoding import b64u_decode, b64u_encode
from sbacl.envelope import (
    MSG_DENY,
    MSG_OFFER,
    MSG_PRESENTATION,
    MSG_REQUEST,
    ProtocolMessage,
)
from sbacl.errors import ConfigError, IssuanceError, PolicyDeniedError
from sbacl.errors import IdentificationRejectedError
from sbacl.identity import Resolver, create_registry_did, generate_keypair
from sbacl.ipmf import Ipmf, PolicyRule, load_config
from sbacl.protocols import run_issuance

from conftest import peer_identity


class DirectChannel:
    def __init__(self, handler, sender_did):
        self.handler = handler
        self.sender = sender_did

    def request(self, msg):
        return self.handler(msg, self.sender)


AUTHN_RULES = [
    PolicyRule(kind=KIND_AUTHN,
               match={"nf_type": "*", "bootstrap": "true"},
               request_match={"nf_type": "*"},
               grant={}),
]


def make_root(registry, name="root", **kwargs):
    ipmf = Ipmf(name, registry, **kwargs)
    ipmf.bootstrap(serve=False)
    return ipmf


def make_child(registry, root, rights=("issue_authn", "issue_authz", "delegate"),
               policy=None, **kwargs):
    keys = generate_keypair()
    child_did = str(create_registry_did(keys)[0])
    delegation = root.delegate_to_child(child_did, list(rights))
    child = Ipmf("child", registry, keys=keys, parent_chain=[delegation],
                 policy=policy if policy is not None else list(AUTHN_RULES), **kwargs)
    child.bootstrap(serve=False)
    return child


@pytest.fixture()
def domain(registry):
    root = make_root(registry)
    child = make_child(registry, root)
    return registry, root, child


def enrolled_holder(child):
    holder_keys, holder_did = peer_identity()
    bootstrap = child.issue_credential_to(
        holder_did, KIND_AUTHN, {"nf_type": "AMF", "bootstrap": "true"})
    return holder_keys, holder_did, bootstrap


# --- construction and rights ----------------------------------------------------


def test_root_only_delegates_by_default(registry):
    root = make_root(registry)
    assert root.is_root
    assert root.trust_root == root.did
    with pytest.raises(IssuanceError) as err:
        root.issue_credential_to("did:speer:x", KIND_AUTHN, {"nf_type": "AMF"})
    assert err.value.code == "root_issuance_disabled"


def test_root_direct_issuance_opt_in(registry):
    root = make_root(registry, allow_direct_issuance=True)
    _, holder_did = peer_identity()
    vc = root.issue_credential_to(holder_did, KIND_AUTHN, {"nf_type": "AMF"})
    assert vc.issuer == root.did
    assert vc.revocation is not None


def test_child_issues_under_the_root(domain):
    registry, root, child = domain
    assert not child.is_root
    assert child.trust_root == root.did
    assert child.effective_rights == frozenset(
        {"issue_authn", "issue_authz", "delegate"})

    holder_keys, holder_did, bootstrap = enrolled_holder(child)
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [bootstrap], challenge)
    verdict = verify_presentation(vp, challenge, child.trust_policy(), Resolver(registry),
                                  revocation_client=registry)
    assert verdict.ok


def test_child_cannot_exceed_its_delegation(registry):
    root = make_root(registry)
    child = make_child(registry, root, rights=("issue_authn",))
    _, holder_did = peer_identity()
    with pytest.raises(IssuanceError) as err:
        child.issue_credential_to(holder_did, KIND_AUTHZ, {"producer": "UDM"})
    assert err.value.code == "insufficient_rights"
    with pytest.raises(IssuanceError):
        child.delegate_to_child(holder_did, ["issue_authn"])


def test_trust_policy_includes_foreign_roots(registry):
    root = make_root(registry)
    _, foreign = peer_identity()
    child = make_child(registry, root)
    child.trusted_foreign_roots.add(foreign)
    policy = child.trust_policy()
    assert root.did in policy.trusted_roots
    assert foreign in policy.trusted_roots
    assert policy.require_revocation_check


# --- revocation ------------------------------------------------------------------


def test_revocation_requires_own_log(domain):
    registry, root, child = domain
    _, holder_did, bootstrap = enrolled_holder(child)

    assert registry.check_status(child.revocation_registry_id,
                                 bootstrap.credential_id) == "active"
    child.revoke_credential(bootstrap.credential_id)
    assert registry.check_status(child.revocation_registry_id,
                                 bootstrap.credential_id) == "revoked"

    with pytest.raises(IssuanceError) as err:
        child.revoke_credential("never-issued")
    assert err.value.code == "not_issuer"


def test_issuance_log_survives_restart(registry, tmp_path):
    log_path = tmp_path / "issued.jsonl"
    root = make_root(registry)
    keys = generate_keypair()
    child_did = str(create_registry_did(keys)[0])
    delegation = root.delegate_to_child(child_did, ["issue_authn"])

    first = Ipmf("child", registry, keys=keys, parent_chain=[delegation],
                 issuance_log=log_path)
    first.bootstrap(serve=False)
    _, holder_did = peer_identity()
    vc = first.issue_credential_to(holder_did, KIND_AUTHN, {"nf_type": "AMF"})
    revreg = first.revocation_registry_id
    first.shutdown()

    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert {e["credential_id"] for e in lines} == {vc.credential_id}

    second = Ipmf("child", registry, keys=keys, parent_chain=[delegation],
                  issuance_log=log_path)
    second.revocation_registry_id = revreg
    second.revoke_credential(vc.credential_id)
    assert registry.check_status(revreg, vc.credential_id) == "revoked"
    second.shutdown()


def test_revocation_without_registry(registry):
    root = make_root(registry)
    keys = generate_keypair()
    child_did = str(create_registry_did(keys)[0])
    delegation = root.delegate_to_child(child_did, ["issue_authn"])
    child = Ipmf("child", registry, keys=keys, parent_chain=[delegation])
    # not bootstrapped: no revocation registry yet
    _, holder_did = peer_identity()
    vc = child.issue_credential_to(holder_did, KIND_AUTHN, {"nf_type": "AMF"})
    with pytest.raises(IssuanceError) as err:
        child.revoke_credential(vc.credential_id)
    assert err.value.code == "no_registry"


# --- the issuance protocol against the real issuer ---------------------------------


def test_protocol_issuance_happy_path(domain):
    registry, root, child = domain
    holder_keys, holder_did, bootstrap = enrolled_holder(child)
    channel = DirectChannel(child.handle, holder_did)
    vc = run_issuance(channel, holder_keys, holder_did, [bootstrap],
                      KIND_AUTHN, {"nf_type": "AMF", "domain": "core"})
    assert vc.issuer == child.did
    assert vc.subject == holder_did
    assert vc.claims == {"nf_type": "AMF", "domain": "core"}
    assert vc.delegation_chain[0].issuer == root.did
    assert vc.revocation == (child.revocation_registry_id, vc.credential_id)
    assert len(child.sessions) == 0


def test_protocol_policy_first_match_wins(domain):
    registry, root, child = domain
    child.policy = [
        PolicyRule(kind=KIND_AUTHZ,
                   match={"nf_type": "AMF"},
                   request_match={"producer": "UDM"},
                   grant={"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}),
        PolicyRule(kind=KIND_AUTHZ,
                   match={"nf_type": "*"},
                   request_match={},
                   grant={"producer": "*", "service": "*", "ops": "*"}),
    ] + list(AUTHN_RULES)
    holder_keys, holder_did, bootstrap = enrolled_holder(child)
    channel = DirectChannel(child.handle, holder_did)

    narrow = run_issuance(channel, holder_keys, holder_did, [bootstrap],
                          KIND_AUTHZ, {"producer": "UDM", "service": "anything", "ops": "*"})
    assert narrow.claims == {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}

    broad = run_issuance(channel, holder_keys, holder_did, [bootstrap],
                         KIND_AUTHZ, {"producer": "PCF", "service": "x", "ops": "POST"})
    assert broad.claims == {"producer": "*", "service": "*", "ops": "*"}


def test_protocol_policy_denial(domain):
    registry, root, child = domain
    holder_keys, holder_did, bootstrap = enrolled_holder(child)
    channel = DirectChannel(child.handle, holder_did)
    with pytest.raises(PolicyDeniedError):
        run_issuance(channel, holder_keys, holder_did, [bootstrap],
                     KIND_AUTHZ, {"producer": "UDM"})
    assert len(child.sessions) == 0


def test_protocol_refuses_delegation_kind(domain):
    registry, root, child = domain
    holder_keys, holder_did, bootstrap = enrolled_holder(child)
    channel = DirectChannel(child.handle, holder_did)
    with pytest.raises(PolicyDeniedError) as err:
        run_issuance(channel, holder_keys, holder_did, [bootstrap], KIND_DEL,
                     {"rights": "issue_authn"})
    assert "cannot offer" in str(err.value)


def test_protocol_rejects_strangers(domain):
    registry, root, child = domain
    holder_keys, holder_did = peer_identity()
    rogue_keys, rogue_did = peer_identity()
    rogue_cred = issue_credential(rogue_keys, rogue_did, KIND_AUTHN, holder_did,
                                  {"nf_type": "AMF", "bootstrap": "true"})
    channel = DirectChannel(child.handle, holder_did)
    with pytest.raises(IdentificationRejectedError):
        run_issuance(channel, holder_keys, holder_did, [rogue_cred], KIND_AUTHN,
                     {"nf_type": "AMF"})


def test_protocol_insufficient_delegated_rights(registry):
    root = make_root(registry)
    child = make_child(registry, root, rights=("issue_authn",), policy=[
        PolicyRule(kind=KIND_AUTHZ, match={}, request_match={}, grant={}),
    ] + list(AUTHN_RULES))
    holder_keys, holder_did, bootstrap = enrolled_holder(child)
    channel = DirectChannel(child.handle, holder_did)
    with pytest.raises(PolicyDeniedError) as err:
        run_issuance(channel, holder_keys, holder_did, [bootstrap],
                     KIND_AUTHZ, {"producer": "UDM"})
    assert "insufficient_rights" in str(err.value)


def test_protocol_unknown_thread_and_sequencing(domain):
    registry, root, child = domain
    holder_keys, holder_did, bootstrap = enrolled_holder(child)

    orphan = ProtocolMessage(MSG_REQUEST, {"kind": KIND_AUTHN, "claims": {}},
                             thread_id="never-opened")
    assert child.handle(orphan, holder_did).body["reason"] == "unknown_thread"

    offer = ProtocolMessage(MSG_OFFER, {"kind": KIND_AUTHN, "claims": {}})
    child.handle(offer, holder_did)
    skip_ahead = ProtocolMessage(MSG_REQUEST, {"kind": KIND_AUTHN, "claims": {}},
                                 thread_id=offer.thread_id)
    reply = child.handle(skip_ahead, holder_did)
    assert reply.type == MSG_DENY
    assert reply.body["reason"] == "not_identified"

    # a different sender cannot continue someone else's thread
    offer2 = ProtocolMessage(MSG_OFFER, {"kind": KIND_AUTHN, "claims": {}})
    child.handle(offer2, holder_did)
    hijack = ProtocolMessage(MSG_REQUEST, {"kind": KIND_AUTHN, "claims": {}},
                             thread_id=offer2.thread_id)
    assert child.handle(hijack, "did:speer:other").body["reason"] == "unknown_thread"


def test_reaped_offer_leaves_no_thread_state(registry):
    root = make_root(registry)
    child = make_child(registry, root, session_timeout=0.0)
    _, holder_did, _ = enrolled_holder(child)

    offer = ProtocolMessage(MSG_OFFER, {"kind": KIND_AUTHN, "claims": {"nf_type": "AMF"}})
    assert child.handle(offer, holder_did).type != MSG_DENY
    assert len(child.sessions.reap(now=time.time() + 1)) == 1

    # nothing on the issuer still remembers the timed-out thread
    assert len(child.sessions) == 0
    holders = [v for v in vars(child).values() if isinstance(v, (dict, set, list))]
    assert not any(offer.thread_id in holder for holder in holders)

    late = ProtocolMessage(MSG_PRESENTATION, {"presentation": {}}, thread_id=offer.thread_id)
    assert child.handle(late, holder_did).body["reason"] == "unknown_thread"


def test_protocol_identification_without_presentation_is_denied(domain):
    registry, root, child = domain
    _, holder_did, _ = enrolled_holder(child)

    offer = ProtocolMessage(MSG_OFFER, {"kind": KIND_AUTHN, "claims": {"nf_type": "AMF"}})
    assert child.handle(offer, holder_did).type != MSG_DENY
    empty = ProtocolMessage(MSG_PRESENTATION, {}, thread_id=offer.thread_id)
    reply = child.handle(empty, holder_did)
    assert reply.type == MSG_DENY
    assert reply.body["reason"] == "malformed_message"
    # the session failed: the thread cannot go on to a request
    follow_up = ProtocolMessage(MSG_REQUEST, {"kind": KIND_AUTHN, "claims": {}},
                                thread_id=offer.thread_id)
    assert child.handle(follow_up, holder_did).body["reason"] == "unknown_thread"


def test_protocol_identification_by_another_holder_is_denied(domain):
    registry, root, child = domain
    _, holder_did, _ = enrolled_holder(child)
    other_keys, other_did, other_bootstrap = enrolled_holder(child)

    offer = ProtocolMessage(MSG_OFFER, {"kind": KIND_AUTHN, "claims": {}})
    reply = child.handle(offer, holder_did)
    # valid in itself, but made by someone other than the thread's sender
    vp = build_presentation(other_keys, other_did, [other_bootstrap],
                            b64u_decode(reply.body["challenge"]))
    reply = child.handle(ProtocolMessage(MSG_PRESENTATION, {"presentation": vp.to_dict()},
                                         thread_id=offer.thread_id), holder_did)
    assert reply.type == MSG_DENY
    assert reply.body["failures"] == ["subject_mismatch"]


def test_protocol_request_must_match_offer(domain):
    registry, root, child = domain
    holder_keys, holder_did, bootstrap = enrolled_holder(child)

    offer = ProtocolMessage(MSG_OFFER, {"kind": KIND_AUTHN, "claims": {}})
    reply = child.handle(offer, holder_did)
    vp = build_presentation(holder_keys, holder_did, [bootstrap],
                            b64u_decode(reply.body["challenge"]))
    child.handle(ProtocolMessage(MSG_PRESENTATION, {"presentation": vp.to_dict()},
                                 thread_id=offer.thread_id), holder_did)
    switcheroo = ProtocolMessage(MSG_REQUEST, {"kind": KIND_AUTHZ, "claims": {}},
                                 thread_id=offer.thread_id)
    reply = child.handle(switcheroo, holder_did)
    assert reply.body["reason"] == "request_differs_from_offer"


# --- config loading ----------------------------------------------------------------


def write_config(tmp_path, payload):
    path = tmp_path / "ipmf.json"
    path.write_text(json.dumps(payload))
    return path


def test_load_config_minimal(tmp_path):
    path = write_config(tmp_path, {"name": "core-ipmf", "registry_url": "http://x"})
    config = load_config(path)
    assert config.name == "core-ipmf"
    assert config.policy == [] and config.parent_chain == []


def test_load_config_reports_every_problem(tmp_path, registry):
    root = make_root(registry)
    keys = generate_keypair()
    child_did = str(create_registry_did(keys)[0])
    delegation = root.delegate_to_child(child_did, ["issue_authn"])
    payload = {
        "name": "broken",
        "seed": b64u_encode(b"\x01" * 8),  # wrong length
        "parent_chain": [delegation.to_dict()],
        "policy": [
            {"kind": "NoSuchKind"},
            {"kind": KIND_AUTHZ},  # chain only grants issue_authn
        ],
    }
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, payload))
    text = str(err.value)
    assert "seed must decode to 32 bytes" in text
    assert "NoSuchKind" in text
    assert "grants AuthZ" in text
    assert "requires a fixed seed" in text


def test_load_config_seed_chain_mismatch(tmp_path, registry):
    root = make_root(registry)
    keys = generate_keypair()
    child_did = str(create_registry_did(keys)[0])
    delegation = root.delegate_to_child(child_did, ["issue_authn"])
    other_seed = b"\x07" * 32
    payload = {
        "name": "mismatched",
        "seed": b64u_encode(other_seed),
        "parent_chain": [delegation.to_dict()],
    }
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, payload))
    assert "terminates at" in str(err.value)


def test_from_config_builds_matching_identity(tmp_path, registry):
    import os
    root = make_root(registry)
    seed = os.urandom(32)
    keys = generate_keypair(seed)
    child_did = str(create_registry_did(keys)[0])
    delegation = root.delegate_to_child(child_did, ["issue_authn", "delegate"])
    payload = {
        "name": "derived",
        "seed": b64u_encode(seed),
        "parent_chain": [delegation.to_dict()],
        "policy": [{"kind": KIND_AUTHN, "match": {}, "request_match": {}, "grant": {}}],
        "trusted_foreign_roots": ["did:speer:someforeignroot"],
    }
    config = load_config(write_config(tmp_path, payload))
    ipmf = Ipmf.from_config(config, registry)
    assert ipmf.did == child_did
    assert ipmf.trust_root == root.did
    assert "did:speer:someforeignroot" in ipmf.trusted_foreign_roots
