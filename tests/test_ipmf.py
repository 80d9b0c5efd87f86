import json
import logging
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
    MSG_ACK,
    MSG_DENY,
    MSG_OFFER,
    MSG_PRESENT_REQUEST,
    MSG_PRESENTATION,
    ProtocolMessage,
)
from sbacl.errors import ConfigError, IssuanceError, PolicyDeniedError, RegistryError
from sbacl.errors import IdentificationRejectedError
from sbacl.identity import Resolver, create_registry_did, generate_keypair
from sbacl.ipmf import Ipmf, PolicyRule
from sbacl.protocols import DEFAULT_SESSION_TIMEOUT, run_issuance

from conftest import registered_identity


class DirectChannel:
    def __init__(self, handler, sender_did):
        self.handler = handler
        self.sender = sender_did
        self.sent = []

    def request(self, msg):
        self.sent.append(msg)
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
    child_did = create_registry_did(keys)[0]
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
    holder_keys, holder_did = registered_identity(child.registry)
    bootstrap = child.issue_credential_to(
        holder_did, KIND_AUTHN, {"nf_type": "AMF", "bootstrap": "true"})
    return holder_keys, holder_did, bootstrap


# --- construction and rights ----------------------------------------------------


def test_root_only_delegates_by_default(registry):
    root = make_root(registry)
    assert root.is_root
    assert root.trust_root == root.did
    with pytest.raises(IssuanceError) as err:
        root.issue_credential_to("did:svdr:x", KIND_AUTHN, {"nf_type": "AMF"})
    assert err.value.code == "root_issuance_disabled"


def test_root_direct_issuance_opt_in(registry):
    root = make_root(registry, allow_direct_issuance=True)
    _, holder_did = registered_identity(registry)
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
    verdict = verify_presentation(vp, challenge, child.trust_policy(), Resolver(registry))
    assert verdict.ok


def test_child_cannot_exceed_its_delegation(registry):
    root = make_root(registry)
    child = make_child(registry, root, rights=("issue_authn",))
    _, holder_did = registered_identity(registry)
    with pytest.raises(IssuanceError) as err:
        child.issue_credential_to(holder_did, KIND_AUTHZ, {"producer": "UDM"})
    assert err.value.code == "insufficient_rights"
    with pytest.raises(IssuanceError):
        child.delegate_to_child(holder_did, ["issue_authn"])


def test_trust_policy_includes_foreign_roots(registry):
    root = make_root(registry)
    _, foreign = registered_identity(registry)
    child = make_child(registry, root)
    child.trusted_foreign_roots.add(foreign)
    policy = child.trust_policy()
    assert root.did in policy.trusted_roots
    assert foreign in policy.trusted_roots


# --- revocation ------------------------------------------------------------------


def test_revocation_requires_own_log(domain):
    registry, root, child = domain
    _, holder_did, bootstrap = enrolled_holder(child)

    ids = [bootstrap.credential_id]
    assert registry.check_status(child.did, ids) == {
        bootstrap.credential_id: "active"}
    child.revoke_credential(bootstrap.credential_id)
    assert registry.check_status(child.did, ids) == {
        bootstrap.credential_id: "revoked"}

    with pytest.raises(IssuanceError) as err:
        child.revoke_credential("never-issued")
    assert err.value.code == "not_issuer"


def test_issuance_log_survives_restart(registry, tmp_path):
    log_path = tmp_path / "issued.jsonl"
    root = make_root(registry)
    keys = generate_keypair()
    child_did = create_registry_did(keys)[0]
    delegation = root.delegate_to_child(child_did, ["issue_authn"])

    first = Ipmf("child", registry, keys=keys, parent_chain=[delegation],
                 issuance_log=log_path)
    first.bootstrap(serve=False)
    _, holder_did = registered_identity(registry)
    vc = first.issue_credential_to(holder_did, KIND_AUTHN, {"nf_type": "AMF"})
    first.shutdown()

    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert {e["credential_id"] for e in lines} == {vc.credential_id}

    second = Ipmf("child", registry, keys=keys, parent_chain=[delegation],
                  issuance_log=log_path)
    second.revoke_credential(vc.credential_id)
    assert registry.check_status(child_did, [vc.credential_id]) == {vc.credential_id: "revoked"}
    second.shutdown()


def test_revocation_without_registry(registry):
    root = make_root(registry)
    keys = generate_keypair()
    child_did = create_registry_did(keys)[0]
    delegation = root.delegate_to_child(child_did, ["issue_authn"])
    child = Ipmf("child", registry, keys=keys, parent_chain=[delegation])
    # not bootstrapped: its DID, and so its revocation registry, is unregistered
    _, holder_did = registered_identity(registry)
    vc = child.issue_credential_to(holder_did, KIND_AUTHN, {"nf_type": "AMF"})
    with pytest.raises(RegistryError) as err:
        child.revoke_credential(vc.credential_id)
    assert err.value.code == "unknown_registry"


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
    assert vc.revocation == (child.did, vc.credential_id)
    assert len(child.sessions) == 0
    # two exchanges: the issuer's challenge answers the offer
    assert [m.type for m in channel.sent] == [MSG_OFFER, MSG_PRESENTATION]


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
    holder_keys, holder_did = registered_identity(registry)
    rogue_keys, rogue_did = registered_identity(registry)
    rogue_cred = issue_credential(rogue_keys, rogue_did, KIND_AUTHN, holder_did,
                                  {"nf_type": "AMF", "bootstrap": "true"})
    channel = DirectChannel(child.handle, holder_did)
    with pytest.raises(IdentificationRejectedError):
        run_issuance(channel, holder_keys, holder_did, [rogue_cred], KIND_AUTHN,
                     {"nf_type": "AMF"})


def test_protocol_unknown_revocation_registry_is_denied(domain, caplog):
    registry, root, child = domain
    holder_keys, holder_did = registered_identity(registry)
    bootstrap = issue_credential(child.keys, child.did, KIND_AUTHN, holder_did,
                                 {"nf_type": "AMF", "bootstrap": "true"},
                                 revocation_registry_id="00" * 32, chain=child.parent_chain)
    channel = DirectChannel(child.handle, holder_did)
    with caplog.at_level(logging.INFO), pytest.raises(PolicyDeniedError) as err:
        run_issuance(channel, holder_keys, holder_did, [bootstrap], KIND_AUTHN,
                     {"nf_type": "AMF"})
    assert "revocation_unchecked" in str(err.value)
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []
    assert len(child.sessions) == 0


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

    def presentation(reply):
        vp = build_presentation(holder_keys, holder_did, [bootstrap],
                                b64u_decode(reply.body["challenge"]))
        return reply.reply(MSG_PRESENTATION, {"presentation": vp.to_dict()})

    orphan = ProtocolMessage(MSG_PRESENTATION, {"presentation": {}}, thread_id="never-opened")
    assert child.handle(orphan, holder_did).body["reason"] == "unknown_thread"

    # an out-of-phase message ends the thread
    opened = child.handle(ProtocolMessage(MSG_OFFER, {"kind": KIND_AUTHN, "claims": {}}),
                          holder_did)
    stray = ProtocolMessage(MSG_ACK, {}, thread_id=opened.thread_id)
    reply = child.handle(stray, holder_did)
    assert reply.type == MSG_DENY
    assert reply.body["reason"] == f"unexpected {MSG_ACK}"
    assert len(child.sessions) == 0
    assert child.handle(presentation(opened), holder_did).body["reason"] == "unknown_thread"

    # a different sender cannot continue someone else's thread, nor end it
    opened = child.handle(ProtocolMessage(MSG_OFFER, {"kind": KIND_AUTHN, "claims": {}}),
                          holder_did)
    hijack = presentation(opened)
    assert child.handle(hijack, "did:svdr:other").body["reason"] == "unknown_thread"
    assert child.handle(hijack, holder_did).type != MSG_DENY


def test_reaped_offer_leaves_no_thread_state(registry):
    root = make_root(registry)
    child = make_child(registry, root)
    _, holder_did, _ = enrolled_holder(child)

    offer = ProtocolMessage(MSG_OFFER, {"kind": KIND_AUTHN, "claims": {"nf_type": "AMF"}})
    assert child.handle(offer, holder_did).type != MSG_DENY
    assert len(child.sessions.reap(now=time.time() + DEFAULT_SESSION_TIMEOUT + 1)) == 1

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
    # the session failed: the thread cannot be retried
    follow_up = ProtocolMessage(MSG_PRESENTATION, {"presentation": {}},
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


def test_malformed_request_claims_are_denied(domain):
    registry, root, child = domain
    _, holder_did, _ = enrolled_holder(child)
    for body in ({"kind": KIND_AUTHN}, *({"kind": KIND_AUTHN, "claims": claims}
                                         for claims in ("abc", 7, [[1]], {"nf_type": 1}))):
        reply = child.handle(ProtocolMessage(MSG_OFFER, body), holder_did)
        assert (reply.type, reply.body) == (MSG_DENY, {"reason": "malformed_message"})
    for kind in (None, "NoSuchKind", KIND_DEL):
        reply = child.handle(ProtocolMessage(MSG_OFFER, {"kind": kind, "claims": {}}),
                             holder_did)
        assert (reply.type, reply.body) == (MSG_DENY, {"reason": f"cannot offer kind {kind!r}"})
    assert len(child.sessions) == 0
    # a well-formed offer opens a session
    reply = child.handle(ProtocolMessage(MSG_OFFER, {"kind": KIND_AUTHN, "claims": {}}),
                         holder_did)
    assert reply.type == MSG_PRESENT_REQUEST
    assert len(child.sessions) == 1


# --- building from a config ----------------------------------------------------------


def test_load_config_minimal(registry):
    ipmf = Ipmf.from_config({"name": "core-ipmf", "registry_url": "http://x"}, registry)
    assert ipmf.name == "core-ipmf"
    assert ipmf.policy == [] and ipmf.parent_chain == []


def test_load_config_reports_every_problem(registry):
    root = make_root(registry)
    keys = generate_keypair()
    child_did = create_registry_did(keys)[0]
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
        Ipmf.from_config(payload, registry)
    text = str(err.value)
    assert "seed must decode to 32 bytes" in text
    assert "NoSuchKind" in text
    assert "grants AuthZ" in text
    assert "requires a fixed seed" in text


def test_load_config_seed_chain_mismatch(registry):
    root = make_root(registry)
    keys = generate_keypair()
    child_did = create_registry_did(keys)[0]
    delegation = root.delegate_to_child(child_did, ["issue_authn"])
    other_seed = b"\x07" * 32
    payload = {
        "name": "mismatched",
        "seed": b64u_encode(other_seed),
        "parent_chain": [delegation.to_dict()],
    }
    with pytest.raises(ConfigError) as err:
        Ipmf.from_config(payload, registry)
    assert "terminates at" in str(err.value)


def test_from_config_builds_matching_identity(registry):
    import os
    root = make_root(registry)
    seed = os.urandom(32)
    keys = generate_keypair(seed)
    child_did = create_registry_did(keys)[0]
    delegation = root.delegate_to_child(child_did, ["issue_authn", "delegate"])
    payload = {
        "name": "derived",
        "seed": b64u_encode(seed),
        "parent_chain": [delegation.to_dict()],
        "policy": [{"kind": KIND_AUTHN, "match": {}, "request_match": {}, "grant": {}}],
        "trusted_foreign_roots": ["did:svdr:someforeignroot"],
    }
    ipmf = Ipmf.from_config(payload, registry)
    assert ipmf.did == child_did
    assert ipmf.trust_root == root.did
    assert "did:svdr:someforeignroot" in ipmf.trusted_foreign_roots
