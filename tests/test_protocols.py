import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbacl.credentials import (
    KIND_AUTHN,
    KIND_AUTHZ,
    TrustPolicy,
    VerifiablePresentation,
    build_presentation,
    fresh_challenge,
    issue_credential,
    verify_presentation,
)
from sbacl.encoding import b64u_encode
from sbacl.envelope import (
    MSG_ACK,
    MSG_DENY,
    MSG_ISSUE,
    MSG_OFFER,
    MSG_PRESENT_REQUEST,
    MSG_PRESENTATION,
    MSG_REQUEST,
    ProtocolMessage,
)
from sbacl.errors import (
    HandshakeRejectedError,
    IdentificationRejectedError,
    IllegalTransitionError,
    PolicyDeniedError,
    ProtocolError,
)
from sbacl.identity import Resolver
from sbacl.protocols import (
    HandshakeProfile,
    HandshakeResponder,
    HandshakeSession,
    IssuanceSession,
    SessionStore,
    producer_authz_gate,
    run_handshake,
    run_issuance,
)

from conftest import peer_identity

RESOLVER = Resolver()


class DirectChannel:
    """Routes requests straight into a responder's handle method."""

    def __init__(self, handler, sender_did):
        self.handler = handler
        self.sender = sender_did

    def request(self, msg):
        return self.handler(msg, self.sender)


# --- session state machines ---------------------------------------------------------


def _fresh_session(cls):
    if cls is IssuanceSession:
        return cls(thread_id="t", role="holder")
    return cls(thread_id="t", peer="p", direction="initiator")


@settings(max_examples=60)
@given(data=st.data())
def test_only_tabled_transitions_are_possible(data):
    cls = data.draw(st.sampled_from([IssuanceSession, HandshakeSession]))
    session = _fresh_session(cls)
    all_states = sorted(cls.EDGES)
    for _ in range(data.draw(st.integers(1, 8))):
        target = data.draw(st.sampled_from(all_states))
        legal = target in cls.EDGES.get(session.state, frozenset())
        if legal:
            before = session.updated_at
            session.advance(target)
            assert session.state == target
            assert session.updated_at >= before
        else:
            with pytest.raises(IllegalTransitionError):
                session.advance(target)


def test_fail_is_absorbing():
    session = _fresh_session(HandshakeSession)
    session.advance("identifying")
    session.fail()
    assert session.state == "rejected"
    assert session.terminal
    session.fail()  # no-op on terminal
    assert session.state == "rejected"

    done = _fresh_session(IssuanceSession)
    for state in ("offered", "requested", "issued", "done"):
        done.advance(state)
    done.fail()
    assert done.state == "done"


def test_session_store_reaps_idle_sessions():
    store = SessionStore(timeout=5.0)
    stale = _fresh_session(HandshakeSession)
    stale.advance("identifying")
    stale.updated_at = time.time() - 60
    fresh = HandshakeSession(thread_id="t2", peer="p", direction="responder")
    fresh.advance("identifying")
    store.put(stale)
    store.put(fresh)

    reaped = store.reap()
    assert [s.thread_id for s in reaped] == ["t"]
    assert reaped[0].state == "rejected"
    assert store.get("t") is None
    assert store.get("t2") is fresh


def test_terminal_sessions_survive_reaping():
    store = SessionStore(timeout=0.0)
    done = _fresh_session(IssuanceSession)
    for state in ("offered", "requested", "issued", "done"):
        done.advance(state)
    done.updated_at = time.time() - 3600
    store.put(done)
    assert store.reap() == []
    assert store.get(done.thread_id) is done


def test_get_triggers_reaping():
    store = SessionStore(timeout=1.0)
    stale = _fresh_session(HandshakeSession)
    stale.advance("identifying")
    stale.updated_at = time.time() - 30
    store.put(stale)
    assert store.get("t") is None
    assert len(store) == 0


# --- issuance, holder side ------------------------------------------------------


class MiniIssuer:
    """Just enough issuer to exercise every holder-side branch."""

    def __init__(self, keys, did, trusted_root, deny_at=None, misbehave=None):
        self.keys = keys
        self.did = did
        self.trust = TrustPolicy.trusting(trusted_root)
        self.deny_at = deny_at
        self.misbehave = misbehave
        self.challenge = None
        self.subject = None

    def request(self, msg):
        if msg.type == MSG_OFFER:
            if self.misbehave == "ack_the_offer":
                return msg.reply(MSG_ACK, {})
            if self.deny_at == "offer":
                return msg.reply(MSG_DENY, {"reason": "kind_not_offered"})
            if self.misbehave == "no_challenge":
                return msg.reply(MSG_PRESENT_REQUEST, {"kinds": [KIND_AUTHN]})
            self.challenge = fresh_challenge()
            return msg.reply(MSG_PRESENT_REQUEST, {
                "challenge": b64u_encode(self.challenge), "kinds": [KIND_AUTHN],
            })
        if msg.type == MSG_PRESENTATION:
            vp = VerifiablePresentation.from_dict(msg.body["presentation"])
            verdict = verify_presentation(vp, self.challenge, self.trust, RESOLVER)
            if self.deny_at == "presentation" or not verdict.ok:
                return msg.reply(MSG_DENY, {"failures": verdict.failures or ["denied"]})
            self.subject = vp.holder
            return msg.reply(MSG_ACK, {})
        if msg.type == MSG_REQUEST:
            if self.deny_at == "request":
                return msg.reply(MSG_DENY, {"reason": "policy"})
            subject = self.subject
            if self.misbehave == "wrong_subject":
                _, subject = peer_identity()
            vc = issue_credential(self.keys, self.did, msg.body["kind"], subject,
                                  msg.body["claims"])
            if self.misbehave == "garbled_credential":
                return msg.reply(MSG_ISSUE, {"credential": "not a credential"})
            return msg.reply(MSG_ISSUE, {"credential": vc.to_dict()})
        raise AssertionError(f"unexpected {msg.type}")


@pytest.fixture()
def issuance_world():
    root_keys, root_did = peer_identity()
    holder_keys, holder_did = peer_identity()
    bootstrap = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did,
                                 {"nf_type": "AMF", "bootstrap": "true"})
    return root_keys, root_did, holder_keys, holder_did, bootstrap


def test_issuance_happy_path(issuance_world):
    root_keys, root_did, holder_keys, holder_did, bootstrap = issuance_world
    issuer = MiniIssuer(root_keys, root_did, root_did)
    vc = run_issuance(issuer, holder_keys, holder_did, [bootstrap],
                      KIND_AUTHZ, {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"})
    assert vc.kind == KIND_AUTHZ
    assert vc.subject == holder_did
    assert vc.claims["producer"] == "UDM"

    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [vc], challenge)
    assert verify_presentation(vp, challenge, TrustPolicy.trusting(root_did), RESOLVER).ok


def test_issuance_denied_at_offer(issuance_world):
    root_keys, root_did, holder_keys, holder_did, bootstrap = issuance_world
    issuer = MiniIssuer(root_keys, root_did, root_did, deny_at="offer")
    with pytest.raises(PolicyDeniedError):
        run_issuance(issuer, holder_keys, holder_did, [bootstrap], KIND_AUTHN, {})


def test_issuance_without_usable_bootstrap(issuance_world):
    root_keys, root_did, holder_keys, holder_did, _ = issuance_world
    issuer = MiniIssuer(root_keys, root_did, root_did)
    with pytest.raises(IdentificationRejectedError):
        run_issuance(issuer, holder_keys, holder_did, [], KIND_AUTHN, {})


def test_issuance_identification_denied(issuance_world):
    root_keys, root_did, holder_keys, holder_did, bootstrap = issuance_world
    issuer = MiniIssuer(root_keys, root_did, root_did, deny_at="presentation")
    with pytest.raises(IdentificationRejectedError):
        run_issuance(issuer, holder_keys, holder_did, [bootstrap], KIND_AUTHN, {})


def test_issuance_untrusted_bootstrap_is_denied(issuance_world):
    root_keys, root_did, holder_keys, holder_did, _ = issuance_world
    rogue_keys, rogue_did = peer_identity()
    rogue_cred = issue_credential(rogue_keys, rogue_did, KIND_AUTHN, holder_did,
                                  {"nf_type": "AMF"})
    issuer = MiniIssuer(root_keys, root_did, root_did)
    with pytest.raises(IdentificationRejectedError) as err:
        run_issuance(issuer, holder_keys, holder_did, [rogue_cred], KIND_AUTHN, {})
    assert "chain_untrusted" in str(err.value)


def test_issuance_denied_at_request(issuance_world):
    root_keys, root_did, holder_keys, holder_did, bootstrap = issuance_world
    issuer = MiniIssuer(root_keys, root_did, root_did, deny_at="request")
    with pytest.raises(PolicyDeniedError):
        run_issuance(issuer, holder_keys, holder_did, [bootstrap], KIND_AUTHN, {})


def test_issuance_out_of_order_reply(issuance_world):
    root_keys, root_did, holder_keys, holder_did, bootstrap = issuance_world
    issuer = MiniIssuer(root_keys, root_did, root_did, misbehave="ack_the_offer")
    with pytest.raises(ProtocolError):
        run_issuance(issuer, holder_keys, holder_did, [bootstrap], KIND_AUTHN, {})


def test_issuance_rejects_mismatched_credential(issuance_world):
    root_keys, root_did, holder_keys, holder_did, bootstrap = issuance_world
    issuer = MiniIssuer(root_keys, root_did, root_did, misbehave="wrong_subject")
    with pytest.raises(ProtocolError):
        run_issuance(issuer, holder_keys, holder_did, [bootstrap], KIND_AUTHN, {})


@pytest.mark.parametrize("misbehave", ["no_challenge", "garbled_credential"])
def test_issuance_malformed_issuer_reply_is_a_protocol_error(issuance_world, misbehave):
    root_keys, root_did, holder_keys, holder_did, bootstrap = issuance_world
    issuer = MiniIssuer(root_keys, root_did, root_did, misbehave=misbehave)
    with pytest.raises(ProtocolError):
        run_issuance(issuer, holder_keys, holder_did, [bootstrap], KIND_AUTHN, {})


# --- handshake ------------------------------------------------------------------


class HandshakeWorld:
    def __init__(self, consumer_nf="AMF", producer_nf="UDM", authz_producer="UDM"):
        self.root_keys, self.root_did = peer_identity()
        self.prod_keys, self.prod_did = peer_identity()
        self.cons_keys, self.cons_did = peer_identity()
        trust = TrustPolicy.trusting(self.root_did)
        self.prod_authn = issue_credential(self.root_keys, self.root_did, KIND_AUTHN,
                                           self.prod_did, {"nf_type": producer_nf})
        self.cons_authn = issue_credential(self.root_keys, self.root_did, KIND_AUTHN,
                                           self.cons_did, {"nf_type": consumer_nf})
        self.cons_authz = issue_credential(
            self.root_keys, self.root_did, KIND_AUTHZ, self.cons_did,
            {"producer": authz_producer, "service": "nudm-sdm", "ops": "GET"},
        )
        self.established = []
        self.responder = HandshakeResponder(
            HandshakeProfile(
                local_did=self.prod_did, trust=trust, resolver=RESOLVER,
                identity_vp=lambda ch: build_presentation(
                    self.prod_keys, self.prod_did, [self.prod_authn], ch),
                authz_gate=producer_authz_gate(producer_nf),
            ),
            on_established=self.established.append,
        )
        self.initiator_profile = HandshakeProfile(
            local_did=self.cons_did, trust=trust, resolver=RESOLVER,
            combined_vp=lambda ch: build_presentation(
                self.cons_keys, self.cons_did, [self.cons_authn, self.cons_authz], ch),
        )
        self.channel = DirectChannel(self.responder.handle, self.cons_did)

    def run(self):
        return run_handshake(self.channel, self.initiator_profile, self.prod_did)


def test_handshake_establishes_both_views():
    world = HandshakeWorld()
    session = world.run()
    assert session.state == "established"
    assert session.peer == world.prod_did
    assert session.authn_claims == [{"nf_type": "UDM"}]

    assert len(world.established) == 1
    responder_session = world.established[0]
    assert responder_session.peer == world.cons_did
    assert responder_session.authn_claims == [{"nf_type": "AMF"}]
    assert responder_session.authz_claims == [
        {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}]
    # nothing half-open left behind
    assert len(world.responder.sessions) == 0


def test_handshake_rejects_untrusted_producer():
    world = HandshakeWorld()
    rogue_keys, rogue_did = peer_identity()
    rogue_authn = issue_credential(rogue_keys, rogue_did, KIND_AUTHN,
                                   world.prod_did, {"nf_type": "UDM"})
    world.responder.profile.identity_vp = lambda ch: build_presentation(
        world.prod_keys, world.prod_did, [rogue_authn], ch)
    with pytest.raises(HandshakeRejectedError) as err:
        world.run()
    assert err.value.reason == "peer_identification_failed"
    assert "chain_untrusted" in err.value.detail
    assert world.established == []


def test_handshake_producer_with_empty_wallet():
    world = HandshakeWorld()
    world.responder.profile.identity_vp = lambda ch: build_presentation(
        world.prod_keys, world.prod_did, [], ch)
    with pytest.raises(HandshakeRejectedError) as err:
        world.run()
    assert err.value.reason == "peer_refused_identification"
    assert world.established == []
    assert len(world.responder.sessions) == 0


def test_handshake_gate_requires_matching_authz():
    world = HandshakeWorld(authz_producer="PCF")
    with pytest.raises(HandshakeRejectedError) as err:
        world.run()
    assert err.value.reason == "authorization_denied"
    assert "insufficient_rights" in err.value.detail
    assert world.established == []


def test_handshake_wildcard_authz_passes_gate():
    world = HandshakeWorld(authz_producer="*")
    assert world.run().state == "established"


def test_handshake_consumer_without_authz():
    world = HandshakeWorld()
    world.initiator_profile.combined_vp = lambda ch: build_presentation(
        world.cons_keys, world.cons_did, [world.cons_authn], ch)
    with pytest.raises(HandshakeRejectedError) as err:
        world.run()
    assert err.value.reason == "authorization_denied"


def test_handshake_replayed_presentation_is_pinned_to_peer():
    world = HandshakeWorld()
    # a second consumer in the same domain, fully credentialed by the same root
    thief_keys, thief_did = peer_identity()
    thief_authn = issue_credential(world.root_keys, world.root_did, KIND_AUTHN,
                                   thief_did, {"nf_type": "AMF"})
    thief_authz = issue_credential(world.root_keys, world.root_did, KIND_AUTHZ, thief_did,
                                   {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"})
    # our consumer answers the producer's challenge with the thief's VP
    world.initiator_profile.combined_vp = lambda ch: build_presentation(
        thief_keys, thief_did, [thief_authn, thief_authz], ch)
    with pytest.raises(HandshakeRejectedError) as err:
        world.run()
    assert "subject_mismatch" in err.value.detail


def test_handshake_unknown_thread_and_wrong_sender():
    world = HandshakeWorld()
    orphan = ProtocolMessage(MSG_ACK, {}, thread_id="nope")
    reply = world.responder.handle(orphan, world.cons_did)
    assert reply.type == MSG_DENY
    assert reply.body["reason"] == "unknown_thread"

    # open a real session, then continue it claiming a different sender
    opener = ProtocolMessage(MSG_PRESENT_REQUEST,
                             {"challenge": b64u_encode(fresh_challenge()),
                              "kinds": [KIND_AUTHN]})
    world.responder.handle(opener, world.cons_did)
    hijack = ProtocolMessage(MSG_ACK, {}, thread_id=opener.thread_id)
    reply = world.responder.handle(hijack, "did:speer:somebodyelse")
    assert reply.type == MSG_DENY
    assert reply.body["reason"] == "unknown_thread"


def test_handshake_out_of_phase_message_fails_session():
    world = HandshakeWorld()
    opener = ProtocolMessage(MSG_PRESENT_REQUEST,
                             {"challenge": b64u_encode(fresh_challenge()),
                              "kinds": [KIND_AUTHN]})
    world.responder.handle(opener, world.cons_did)
    premature = ProtocolMessage(MSG_PRESENTATION, {"presentation": {}},
                                thread_id=opener.thread_id)
    reply = world.responder.handle(premature, world.cons_did)
    assert reply.type == MSG_DENY
    assert "unexpected" in reply.body["reason"]
    session = world.responder.sessions.get(opener.thread_id)
    assert session is not None and session.state == "rejected"


def test_handshake_identify_without_challenge_is_denied():
    world = HandshakeWorld()
    for body in ({}, {"challenge": 7}, {"challenge": "not base64!"}):
        reply = world.responder.handle(ProtocolMessage(MSG_PRESENT_REQUEST, body),
                                       world.cons_did)
        assert reply.type == MSG_DENY
        assert reply.body["reason"] == "malformed_message"
    assert len(world.responder.sessions) == 0


def test_handshake_authorization_without_presentation_is_denied():
    world = HandshakeWorld()
    opener = ProtocolMessage(MSG_PRESENT_REQUEST,
                             {"challenge": b64u_encode(fresh_challenge()),
                              "kinds": [KIND_AUTHN]})
    world.responder.handle(opener, world.cons_did)
    world.responder.handle(ProtocolMessage(MSG_ACK, {}, thread_id=opener.thread_id),
                           world.cons_did)
    session = world.responder.sessions.get(opener.thread_id)
    reply = world.responder.handle(
        ProtocolMessage(MSG_PRESENTATION, {"presentation": "junk"}, thread_id=opener.thread_id),
        world.cons_did)
    assert reply.type == MSG_DENY
    assert reply.body["reason"] == "malformed_message"
    assert session.state == "rejected"
    assert len(world.responder.sessions) == 0
    assert world.established == []


@pytest.mark.parametrize("reply_type,dropped", [
    (MSG_PRESENT_REQUEST, "presentation"),
    (MSG_ACK, "challenge"),
])
def test_handshake_malformed_producer_reply_is_rejected(reply_type, dropped):
    world = HandshakeWorld()

    def stripping(msg, sender):
        reply = world.responder.handle(msg, sender)
        if msg.type == reply_type:
            reply.body.pop(dropped)
        return reply

    world.channel = DirectChannel(stripping, world.cons_did)
    with pytest.raises(HandshakeRejectedError) as err:
        world.run()
    assert err.value.reason == "malformed_reply"
    assert world.established == []


def test_handshake_half_open_sessions_time_out():
    world = HandshakeWorld()
    opener = ProtocolMessage(MSG_PRESENT_REQUEST,
                             {"challenge": b64u_encode(fresh_challenge()),
                              "kinds": [KIND_AUTHN]})
    world.responder.handle(opener, world.cons_did)
    session = world.responder.sessions.get(opener.thread_id)
    session.updated_at = time.time() - 3600
    follow_up = ProtocolMessage(MSG_ACK, {}, thread_id=opener.thread_id)
    reply = world.responder.handle(follow_up, world.cons_did)
    assert reply.type == MSG_DENY
    assert reply.body["reason"] == "unknown_thread"
