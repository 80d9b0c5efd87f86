"""Message-level protocols: credential issuance and the access-control
handshake.

Both run over a request/reply envelope channel. The initiating side
drives the exchange as a sequence of synchronous calls and keeps nothing
but the thread id; the responding side is a stateful handler keyed by
thread id, because its view of one exchange spans several incoming messages.

The responding side keeps one record per open thread. Its handlers check
each incoming message against the phase the record is in, and every ending
of an exchange (success, refusal, a deny, an out-of-phase message) removes
the record; a thread left idle past the timeout is reaped.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field as dc_field

from .credentials import (
    KIND_AUTHN,
    KIND_AUTHZ,
    TrustPolicy,
    VerifiableCredential,
    VerifiablePresentation,
    build_presentation,
    fresh_challenge,
    verify_presentation,
)
from .encoding import b64u_decode, b64u_encode
from .envelope import (
    MSG_ACK,
    MSG_DENY,
    MSG_ISSUE,
    MSG_OFFER,
    MSG_PRESENT_REQUEST,
    MSG_PRESENTATION,
    MSG_REQUEST,
    ProtocolMessage,
)
from .errors import (
    HandshakeRejectedError,
    IdentificationRejectedError,
    PolicyDeniedError,
    PresentationError,
    ProtocolError,
)

DEFAULT_SESSION_TIMEOUT = 10.0


def body_field(msg: ProtocolMessage, key: str, parse):
    """`parse(msg.body[key])`, or None when the peer sent it missing or malformed."""
    try:
        return parse(msg.body[key])
    except (KeyError, TypeError, ValueError):
        return None


@dataclass
class IssuanceSession:
    """The issuer's record of one open issuance thread."""

    thread_id: str
    subject_did: str
    offered_kind: str
    challenge: bytes
    authn_claims: dict[str, str] | None = None  # merged once identification succeeds
    updated_at: float = dc_field(default_factory=time.time)


@dataclass
class HandshakeSession:
    """The producer's record of one open handshake thread.

    `challenge` stays None until the consumer ACKs the producer's
    identification; its presence is the phase the thread is in.
    """

    thread_id: str
    peer: str
    challenge: bytes | None = None
    authn_claims: list[dict] = dc_field(default_factory=list)
    authz_claims: list[dict] = dc_field(default_factory=list)
    updated_at: float = dc_field(default_factory=time.time)


class SessionStore:
    """Thread-safe session map with timeout reaping."""

    def __init__(self, timeout: float = DEFAULT_SESSION_TIMEOUT):
        self.timeout = timeout
        self._sessions: dict[str, IssuanceSession | HandshakeSession] = {}
        self._lock = threading.Lock()

    def put(self, session) -> None:
        with self._lock:
            self._sessions[session.thread_id] = session

    def get(self, thread_id: str):
        self.reap()
        with self._lock:
            return self._sessions.get(thread_id)

    def drop(self, thread_id: str) -> None:
        with self._lock:
            self._sessions.pop(thread_id, None)

    def reap(self, now: float | None = None) -> list:
        """Evict every session idle for longer than the timeout."""
        now = time.time() if now is None else now
        with self._lock:
            reaped = [s for s in self._sessions.values() if now - s.updated_at > self.timeout]
            for session in reaped:
                del self._sessions[session.thread_id]
        return reaped

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)


# --- credential issuance, holder side -------------------------------------------


def run_issuance(
    channel,
    holder_keys,
    holder_did: str,
    bootstrap_creds: list[VerifiableCredential],
    kind: str,
    claims: dict[str, str],
) -> VerifiableCredential:
    """Obtain one credential from an issuer over an established channel.

    The exchange is offer, identification (present-request/presentation
    against the issuer's challenge, answered from the bootstrap wallet),
    then request and issue.
    """
    thread_id = str(uuid.uuid4())
    reply = channel.request(ProtocolMessage(MSG_OFFER, {"kind": kind, "claims": claims},
                                            thread_id=thread_id))
    if reply.type == MSG_DENY:
        raise PolicyDeniedError(reply.body.get("reason", str(reply.body)))
    if reply.type != MSG_PRESENT_REQUEST:
        raise ProtocolError(f"expected identification request, got {reply.type}")

    challenge = body_field(reply, "challenge", b64u_decode)
    if challenge is None:
        raise ProtocolError("identification request carries no usable challenge")
    wanted_kinds = set(reply.body.get("kinds", [KIND_AUTHN]))
    creds = [c for c in bootstrap_creds if c.kind in wanted_kinds]
    if not creds:
        raise IdentificationRejectedError(
            f"no bootstrap credentials of kinds {sorted(wanted_kinds)} to present"
        )
    vp = build_presentation(holder_keys, holder_did, creds, challenge)
    reply = channel.request(ProtocolMessage(MSG_PRESENTATION, {"presentation": vp.to_dict()},
                                            thread_id=thread_id))
    if reply.type == MSG_DENY:
        raise IdentificationRejectedError(str(reply.body.get("failures", reply.body)))
    if reply.type != MSG_ACK:
        raise ProtocolError(f"expected identification ack, got {reply.type}")

    reply = channel.request(ProtocolMessage(MSG_REQUEST, {"kind": kind, "claims": claims},
                                            thread_id=thread_id))
    if reply.type == MSG_DENY:
        raise PolicyDeniedError(reply.body.get("reason", str(reply.body)))
    if reply.type != MSG_ISSUE:
        raise ProtocolError(f"expected issued credential, got {reply.type}")
    vc = body_field(reply, "credential", VerifiableCredential.from_dict)
    if vc is None:
        raise ProtocolError("issue message carries no usable credential")
    if vc.subject != holder_did or vc.kind != kind:
        raise ProtocolError("issued credential does not match the request")
    return vc


# --- access-control handshake ------------------------------------------------------


@dataclass
class HandshakeProfile:
    """Everything one party needs to run handshakes, in either role.

    `identity_vp` (producer side) answers an identification challenge with
    an AuthN-only presentation. `combined_vp` (consumer side) answers the
    producer's challenge with AuthN plus the AuthZ credentials relevant to
    that producer. `authz_gate` (producer side) decides whether verified
    AuthZ claims are sufficient to associate at all; per-operation
    enforcement happens later, per tunneled request.
    """

    trust: TrustPolicy
    resolver: object
    identity_vp: object = None  # callable(challenge) -> VerifiablePresentation
    combined_vp: object = None  # callable(challenge) -> VerifiablePresentation
    authz_gate: object = None  # callable(list of claims dicts) -> bool


def producer_authz_gate(nf_type: str):
    """Associate only consumers holding some AuthZ claim for this producer."""

    def gate(claims_list: list[dict]) -> bool:
        return any(c.get("producer") in ("*", nf_type) for c in claims_list)

    return gate


def _extract_claims(vp: VerifiablePresentation, kind: str) -> list[dict]:
    return [dict(c.claims) for c in vp.credentials if c.kind == kind]


def run_handshake(channel, profile: HandshakeProfile, peer_did: str) -> list[dict]:
    """Consumer-initiated handshake: identify the producer, then identify
    and authorize ourselves. Returns the producer's AuthN claims.

    Raises HandshakeRejectedError on any verification failure, after letting
    the peer know (a deny closes the thread on both sides).
    """
    thread_id = str(uuid.uuid4())
    challenge = fresh_challenge()
    reply = channel.request(ProtocolMessage(
        MSG_PRESENT_REQUEST,
        {"challenge": b64u_encode(challenge), "kinds": [KIND_AUTHN]},
        thread_id=thread_id,
    ))
    if reply.type != MSG_PRESENTATION:
        raise HandshakeRejectedError("peer_refused_identification", reply.type)
    vp = body_field(reply, "presentation", VerifiablePresentation.from_dict)
    if vp is None:
        raise HandshakeRejectedError("malformed_reply")
    verdict = verify_presentation(vp, challenge, profile.trust, profile.resolver,
                                  expected_holder=str(peer_did))
    if not verdict.ok:
        channel.request(reply.reply(MSG_DENY, {"failures": verdict.failures}))
        raise HandshakeRejectedError("peer_identification_failed", ",".join(verdict.failures))
    authn_claims = _extract_claims(vp, KIND_AUTHN)

    reply = channel.request(ProtocolMessage(MSG_ACK, {}, thread_id=thread_id))
    if reply.type != MSG_PRESENT_REQUEST:
        raise HandshakeRejectedError("peer_skipped_authorization_challenge", reply.type)
    peer_challenge = body_field(reply, "challenge", b64u_decode)
    if peer_challenge is None:
        raise HandshakeRejectedError("malformed_reply")
    our_vp = profile.combined_vp(peer_challenge)
    reply = channel.request(ProtocolMessage(
        MSG_PRESENTATION, {"presentation": our_vp.to_dict()}, thread_id=thread_id,
    ))
    if reply.type == MSG_ACK:
        return authn_claims
    detail = ",".join(reply.body.get("failures", [])) or reply.body.get("reason", "")
    raise HandshakeRejectedError("authorization_denied", detail)


class HandshakeResponder:
    """Producer side of the handshake, driven one message at a time.

    An established handshake surfaces through `on_established(session)`;
    the caller (the sidecar) uses that to create the association that
    tunnel traffic is checked against.
    """

    def __init__(self, profile: HandshakeProfile, on_established=None):
        self.profile = profile
        self.on_established = on_established
        self.sessions = SessionStore()

    def handle(self, msg: ProtocolMessage, sender: str) -> ProtocolMessage:
        if msg.type == MSG_PRESENT_REQUEST:
            return self._on_identify(msg, sender)
        session = self.sessions.get(msg.thread_id)
        if session is None or session.peer != sender:
            return msg.reply(MSG_DENY, {"reason": "unknown_thread"})
        if msg.type == MSG_ACK and session.challenge is None:
            return self._on_identified(msg, session)
        if msg.type == MSG_PRESENTATION and session.challenge is not None:
            return self._on_authorize(msg, session)
        self.sessions.drop(msg.thread_id)
        if msg.type == MSG_DENY:
            return msg.reply(MSG_ACK, {})
        return msg.reply(MSG_DENY, {"reason": f"unexpected {msg.type}"})

    def _on_identify(self, msg: ProtocolMessage, sender: str) -> ProtocolMessage:
        challenge = body_field(msg, "challenge", b64u_decode)
        if challenge is None:
            return msg.reply(MSG_DENY, {"reason": "malformed_message"})
        try:
            vp = self.profile.identity_vp(challenge)
        except PresentationError:
            # Nothing to present (empty wallet or unusable challenge): refuse
            # up front rather than leave a half-open session behind.
            return msg.reply(MSG_DENY, {"reason": "cannot_present"})
        self.sessions.put(HandshakeSession(thread_id=msg.thread_id, peer=sender))
        return msg.reply(MSG_PRESENTATION, {"presentation": vp.to_dict()})

    def _on_identified(self, msg: ProtocolMessage, session: HandshakeSession) -> ProtocolMessage:
        session.challenge = fresh_challenge()
        session.updated_at = time.time()
        return msg.reply(MSG_PRESENT_REQUEST, {
            "challenge": b64u_encode(session.challenge),
            "kinds": [KIND_AUTHN, KIND_AUTHZ],
        })

    def _on_authorize(self, msg: ProtocolMessage, session: HandshakeSession) -> ProtocolMessage:
        vp = body_field(msg, "presentation", VerifiablePresentation.from_dict)
        if vp is None:
            return self._refuse(msg, {"reason": "malformed_message"})
        verdict = verify_presentation(vp, session.challenge, self.profile.trust,
                                      self.profile.resolver, expected_holder=session.peer)
        if not verdict.ok:
            return self._refuse(msg, {"failures": verdict.failures})
        authz_claims = _extract_claims(vp, KIND_AUTHZ)
        gate = self.profile.authz_gate or (lambda claims: True)
        if not gate(authz_claims):
            return self._refuse(msg, {"failures": ["insufficient_rights"]})
        session.authn_claims = _extract_claims(vp, KIND_AUTHN)
        session.authz_claims = authz_claims
        self.sessions.drop(msg.thread_id)
        if self.on_established is not None:
            self.on_established(session)
        return msg.reply(MSG_ACK, {})

    def _refuse(self, msg: ProtocolMessage, body: dict) -> ProtocolMessage:
        self.sessions.drop(msg.thread_id)
        return msg.reply(MSG_DENY, body)
