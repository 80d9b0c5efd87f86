import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

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
from sbacl.encoding import b64u_decode, b64u_encode
from sbacl.envelope import (
    MSG_ACK,
    MSG_DENY,
    MSG_ISSUE,
    MSG_OFFER,
    MSG_PRESENT_REQUEST,
    MSG_PRESENTATION,
    ProtocolMessage,
)
from sbacl.errors import (
    HandshakeRejectedError,
    IdentificationRejectedError,
    PolicyDeniedError,
    ProtocolError,
)
from sbacl.identity import Resolver
from sbacl.vdr import Registry
from sbacl.protocols import (
    HandshakeProfile,
    HandshakeResponder,
    Session,
    SessionStore,
    producer_authz_gate,
    run_handshake,
    run_issuance,
)

from conftest import registered_identity

REGISTRY = Registry()
RESOLVER = Resolver(REGISTRY)


class DirectChannel:
    """Routes requests straight into a responder's handle method, and
    keeps every message it carried."""

    def __init__(self, handler, sender_did):
        self.handler = handler
        self.sender = sender_did
        self.sent = []

    def request(self, msg):
        self.sent.append(msg)
        return self.handler(msg, self.sender)


# --- session store ---------------------------------------------------------------


def _fresh_session(thread_id="t"):
    return Session(thread_id=thread_id, peer="p", challenge=fresh_challenge())


def test_session_store_reaps_idle_sessions():
    store = SessionStore(timeout=5.0)
    stale = _fresh_session()
    stale.updated_at = time.time() - 60
    fresh = _fresh_session("t2")
    store.put(fresh)
    store.put(stale)  # put last, so only the reap() below evicts it

    reaped = store.reap()
    assert [s.thread_id for s in reaped] == ["t"]
    assert store.take("t", "p") is None
    assert store.take("t2", "somebody else") is None  # not theirs to end
    assert store.take("t2", "p") is fresh
    assert len(store) == 0


def test_take_triggers_reaping():
    store = SessionStore(timeout=1.0)
    stale = _fresh_session()
    stale.updated_at = time.time() - 30
    store.put(stale)
    assert store.take("t", "p") is None
    assert len(store) == 0


def test_put_reaps_threads_that_were_opened_and_never_continued():
    store = SessionStore(timeout=0.05)
    opened = time.time()
    for index in range(100):
        session = _fresh_session(f"t{index}")
        if index % 2:
            session.updated_at = opened - 0.2
        store.put(session)
    before = time.time()
    store.put(_fresh_session("next"))
    assert store.reap(now=before) == []  # nothing stale at the put was left
    assert 1 <= len(store) <= 51


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
        self.offer = None
        self.sent = []

    def request(self, msg):
        self.sent.append(msg)
        if msg.type == MSG_OFFER:
            if self.misbehave == "ack_the_offer":
                return msg.reply(MSG_ACK, {})
            if self.deny_at == "offer":
                return msg.reply(MSG_DENY, {"reason": "kind_not_offered"})
            if self.misbehave == "no_challenge":
                return msg.reply(MSG_PRESENT_REQUEST, {})
            self.challenge = fresh_challenge()
            self.offer = msg.body
            return msg.reply(MSG_PRESENT_REQUEST, {"challenge": b64u_encode(self.challenge)})
        if msg.type == MSG_PRESENTATION:
            vp = VerifiablePresentation.from_dict(msg.body["presentation"])
            verdict = verify_presentation(vp, self.challenge, self.trust, RESOLVER)
            if self.deny_at == "presentation" or not verdict.ok:
                return msg.reply(MSG_DENY, {"failures": verdict.failures or ["denied"]})
            if self.deny_at == "policy":
                return msg.reply(MSG_DENY, {"reason": "policy"})
            subject = vp.holder
            if self.misbehave == "wrong_subject":
                _, subject = registered_identity(REGISTRY)
            vc = issue_credential(self.keys, self.did, self.offer["kind"], subject,
                                  self.offer["claims"])
            if self.misbehave == "garbled_credential":
                return msg.reply(MSG_ISSUE, {"credential": "not a credential"})
            return msg.reply(MSG_ISSUE, {"credential": vc.to_dict()})
        raise AssertionError(f"unexpected {msg.type}")


@pytest.fixture()
def issuance_world():
    root_keys, root_did = registered_identity(REGISTRY)
    holder_keys, holder_did = registered_identity(REGISTRY)
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
    assert [m.type for m in issuer.sent] == [MSG_OFFER, MSG_PRESENTATION]

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
    rogue_keys, rogue_did = registered_identity(REGISTRY)
    rogue_cred = issue_credential(rogue_keys, rogue_did, KIND_AUTHN, holder_did,
                                  {"nf_type": "AMF"})
    issuer = MiniIssuer(root_keys, root_did, root_did)
    with pytest.raises(IdentificationRejectedError) as err:
        run_issuance(issuer, holder_keys, holder_did, [rogue_cred], KIND_AUTHN, {})
    assert "chain_untrusted" in str(err.value)


def test_issuance_denied_at_request(issuance_world):
    # the presentation carries the request for the offered credential: the
    # issuer can still refuse it once the holder is identified
    root_keys, root_did, holder_keys, holder_did, bootstrap = issuance_world
    issuer = MiniIssuer(root_keys, root_did, root_did, deny_at="policy")
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
        self.root_keys, self.root_did = registered_identity(REGISTRY)
        self.prod_keys, self.prod_did = registered_identity(REGISTRY)
        self.cons_keys, self.cons_did = registered_identity(REGISTRY)
        trust = TrustPolicy.trusting(self.root_did)
        self.prod_authn = issue_credential(self.root_keys, self.root_did, KIND_AUTHN,
                                           self.prod_did, {"nf_type": producer_nf})
        self.cons_authn = issue_credential(self.root_keys, self.root_did, KIND_AUTHN,
                                           self.cons_did, {"nf_type": consumer_nf})
        self.cons_authz = issue_credential(
            self.root_keys, self.root_did, KIND_AUTHZ, self.cons_did,
            {"producer": authz_producer, "service": "nudm-sdm", "ops": "GET"},
        )
        self.established = []  # (peer, authz_claims) per established handshake
        self.responder = HandshakeResponder(
            HandshakeProfile(
                trust=trust, resolver=RESOLVER,
                identity_vp=lambda ch: build_presentation(
                    self.prod_keys, self.prod_did, [self.prod_authn], ch),
                authz_gate=producer_authz_gate(producer_nf),
            ),
            on_established=lambda peer, claims: self.established.append((peer, claims)),
        )
        self.initiator_profile = HandshakeProfile(
            trust=trust, resolver=RESOLVER,
            combined_vp=lambda ch: build_presentation(
                self.cons_keys, self.cons_did, [self.cons_authn, self.cons_authz], ch),
        )
        self.channel = DirectChannel(self.responder.handle, self.cons_did)

    def run(self):
        return run_handshake(self.channel, self.initiator_profile, self.prod_did)

    def open_thread(self):
        """Send the consumer's opening message; returns the producer's reply."""
        return self.responder.handle(ProtocolMessage(
            MSG_PRESENT_REQUEST,
            {"challenge": b64u_encode(fresh_challenge())},
        ), self.cons_did)

    def presentation(self, reply, creds=None):
        """The consumer's answer to the challenge in the producer's `reply`."""
        vp = build_presentation(self.cons_keys, self.cons_did,
                                creds or [self.cons_authn, self.cons_authz],
                                b64u_decode(reply.body["challenge"]))
        return reply.reply(MSG_PRESENTATION, {"presentation": vp.to_dict()})


def _shows_no_authz(messages) -> bool:
    """No message carries a presentation, so none carries an AuthZ credential."""
    return not any("presentation" in m.body for m in messages)


def test_handshake_establishes_both_views():
    world = HandshakeWorld()
    assert world.run() == [{"nf_type": "UDM"}]

    assert world.established == [
        (world.cons_did, [{"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}])]
    # two exchanges: the producer's challenge rides on its identity presentation
    assert [m.type for m in world.channel.sent] == [MSG_PRESENT_REQUEST, MSG_PRESENTATION]
    # nothing half-open left behind
    assert len(world.responder.sessions) == 0


def test_handshake_rejects_untrusted_producer():
    world = HandshakeWorld()
    rogue_keys, rogue_did = registered_identity(REGISTRY)
    rogue_authn = issue_credential(rogue_keys, rogue_did, KIND_AUTHN,
                                   world.prod_did, {"nf_type": "UDM"})
    world.responder.profile.identity_vp = lambda ch: build_presentation(
        world.prod_keys, world.prod_did, [rogue_authn], ch)
    with pytest.raises(HandshakeRejectedError) as err:
        world.run()
    assert err.value.reason == "peer_identification_failed"
    assert "chain_untrusted" in err.value.detail
    assert world.established == []
    # the consumer denied the unverified producer without showing its credentials
    assert [m.type for m in world.channel.sent] == [MSG_PRESENT_REQUEST, MSG_DENY]
    assert _shows_no_authz(world.channel.sent)
    assert len(world.responder.sessions) == 0


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
    assert world.run() == [{"nf_type": "UDM"}]


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
    thief_keys, thief_did = registered_identity(REGISTRY)
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
    orphan = ProtocolMessage(MSG_PRESENTATION, {"presentation": {}}, thread_id="nope")
    reply = world.responder.handle(orphan, world.cons_did)
    assert reply.type == MSG_DENY
    assert reply.body["reason"] == "unknown_thread"

    # open a real session, then continue it claiming a different sender
    hijack = world.presentation(world.open_thread())
    reply = world.responder.handle(hijack, "did:svdr:Somebody2")
    assert reply.type == MSG_DENY
    assert reply.body["reason"] == "unknown_thread"
    # the owner's session is untouched and still completes
    assert world.responder.handle(hijack, world.cons_did).type == MSG_ACK
    assert [peer for peer, _ in world.established] == [world.cons_did]


def test_handshake_out_of_phase_message_fails_session():
    world = HandshakeWorld()
    opened = world.open_thread()
    stray = ProtocolMessage(MSG_ACK, {}, thread_id=opened.thread_id)
    reply = world.responder.handle(stray, world.cons_did)
    assert reply.type == MSG_DENY
    assert "unexpected" in reply.body["reason"]
    assert len(world.responder.sessions) == 0
    # the dropped thread cannot be finished afterwards
    reply = world.responder.handle(world.presentation(opened), world.cons_did)
    assert reply.body["reason"] == "unknown_thread"
    assert world.established == []


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
    opened = world.open_thread()
    reply = world.responder.handle(
        ProtocolMessage(MSG_PRESENTATION, {"presentation": "junk"}, thread_id=opened.thread_id),
        world.cons_did)
    assert reply.type == MSG_DENY
    assert reply.body["reason"] == "malformed_message"
    assert len(world.responder.sessions) == 0
    assert world.established == []


@pytest.mark.parametrize("reply_type,dropped", [
    (MSG_PRESENT_REQUEST, "presentation"),
    (MSG_PRESENT_REQUEST, "challenge"),
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
    assert _shows_no_authz(world.channel.sent)


def test_handshake_half_open_sessions_time_out():
    world = HandshakeWorld()
    opened = world.open_thread()
    reaped = world.responder.sessions.reap(now=time.time() + 3600)
    assert [s.thread_id for s in reaped] == [opened.thread_id]
    reply = world.responder.handle(world.presentation(opened), world.cons_did)
    assert reply.type == MSG_DENY
    assert reply.body["reason"] == "unknown_thread"
    assert world.established == []


# --- the responder under arbitrary message orders ----------------------------------


class ResponderMachine(RuleBasedStateMachine):
    """Drives one `HandshakeResponder` from two credentialed consumers.

    The model keeps, per thread still open, its owner and the challenge the
    responder issued when it opened; every message from the owner ends the
    thread, and a message from anyone else changes nothing.
    """

    threads = Bundle("threads")

    def __init__(self):
        super().__init__()
        self.world = HandshakeWorld()
        root_keys, root_did = self.world.root_keys, self.world.root_did
        other_keys, other_did = registered_identity(REGISTRY)
        self.wallets = {
            self.world.cons_did: (self.world.cons_keys,
                                  [self.world.cons_authn, self.world.cons_authz]),
            other_did: (other_keys, [
                issue_credential(root_keys, root_did, KIND_AUTHN, other_did, {"nf_type": "SMF"}),
                issue_credential(root_keys, root_did, KIND_AUTHZ, other_did,
                                 {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}),
            ]),
        }
        self.open: dict[str, tuple[str, bytes]] = {}
        self.sent: list[tuple[bytes, dict]] = []  # (challenge, presentation), for replays
        self.verified: list[str] = []  # the sender of each presentation that was ACKed

    @initialize(target=threads)
    def open_first_thread(self):
        return self.open_thread(0)

    @rule(target=threads, sender=st.sampled_from([0, 1]))
    def open_thread(self, sender):
        sender = sorted(self.wallets)[sender]
        reply = self.world.responder.handle(ProtocolMessage(
            MSG_PRESENT_REQUEST,
            {"challenge": b64u_encode(fresh_challenge())},
        ), sender)
        assert reply.type == MSG_PRESENTATION
        self.open[reply.thread_id] = (sender, b64u_decode(reply.body["challenge"]))
        return reply.thread_id

    # Hypothesis tends to draw the same choice many times in a row, so one
    # rule covers every continuation.
    @rule(thread=threads, sender=st.sampled_from([0, 1]), what=st.sampled_from(
        [MSG_PRESENTATION, MSG_ACK, MSG_DENY, MSG_OFFER, MSG_ISSUE]),
        kind=st.sampled_from(["valid", "replayed", "other_holder", "junk"]))
    def send(self, thread, sender, what, kind):
        sender = sorted(self.wallets)[sender]
        owner, challenge = self.open.get(thread, (None, None))
        body = {}
        if what == MSG_PRESENTATION:
            body = {"presentation": self._presentation(kind, sender, challenge)}
        reply = self.world.responder.handle(ProtocolMessage(what, body, thread_id=thread),
                                            sender)
        if owner != sender:
            assert reply.type == MSG_DENY and reply.body == {"reason": "unknown_thread"}
            return
        del self.open[thread]
        if what == MSG_PRESENTATION and kind == "valid":
            assert reply.type == MSG_ACK
            self.verified.append(sender)
        else:
            assert reply.type == (MSG_ACK if what == MSG_DENY else MSG_DENY)

    def _presentation(self, kind, sender, challenge):
        if kind == "junk":
            return "junk"
        if kind == "replayed":  # made for some other challenge
            return next((vp for made_for, vp in self.sent if made_for != challenge), "junk")
        holder = sender if kind == "valid" else next(d for d in self.wallets if d != sender)
        keys, creds = self.wallets[holder]
        challenge = challenge or fresh_challenge()
        vp = build_presentation(keys, holder, creds, challenge).to_dict()
        self.sent.append((challenge, vp))
        return vp

    @invariant()
    def established_only_on_verified_presentations(self):
        assert [peer for peer, _ in self.world.established] == self.verified

    @invariant()
    def one_session_per_open_thread(self):
        assert len(self.world.responder.sessions) == len(self.open)


ResponderMachine.TestCase.settings = settings(max_examples=100, stateful_step_count=25,
                                              deadline=None)
test_responder_state_machine = ResponderMachine.TestCase
