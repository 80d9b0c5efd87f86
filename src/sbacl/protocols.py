"""Message-level protocols: credential issuance and the access-control
handshake.

Both run over a request/reply envelope channel, and both take two
exchanges. The responder's challenge rides on its first reply, so no
exchange exists only to fetch it:

- issuance: `offer{kind, claims}` is answered by
  `present-request{challenge}`, then the holder's AuthN `presentation`
  by `issue` or `deny`;
- handshake: `present-request{challenge}` is answered by the producer's
  `presentation{presentation, challenge}`, then the consumer's combined
  `presentation` by `ack` or `deny`. The consumer verifies the producer
  before it sends anything else, so its AuthZ credentials only ever reach
  a verified producer.

The initiating side drives the exchange as a sequence of synchronous calls
and keeps nothing but the thread id. The responding side keeps one
`Session` per open thread, from its first reply to the next message on that
thread; every such message ends the session, whatever its outcome, and a
thread left idle past the timeout is reaped.
"""

from __future__ import annotations

import logging
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
    ProtocolMessage,
)
from .errors import (
    HandshakeRejectedError,
    IdentificationRejectedError,
    PolicyDeniedError,
    PresentationError,
    ProtocolError,
    RegistryError,
    RevocationCheckError,
)

log = logging.getLogger(__name__)

DEFAULT_SESSION_TIMEOUT = 10.0


def body_field(msg: ProtocolMessage, key: str, parse):
    """`parse(msg.body[key])`, or None when the peer sent it missing or malformed."""
    try:
        return parse(msg.body[key])
    except (KeyError, TypeError, ValueError):
        return None


@dataclass
class Session:
    """A responder's record of one open thread: the peer it belongs to and
    the challenge the responder sent it."""

    thread_id: str
    peer: str
    challenge: bytes
    request: tuple[str, dict[str, str]] | None = None  # issuance: the offered kind and claims
    updated_at: float = dc_field(default_factory=time.time)


class SessionStore:
    """Thread-safe session map. Every `put` and `take` first evicts the
    sessions idle past the timeout, so threads that peers open and never
    continue cannot grow it without bound."""

    def __init__(self, timeout: float = DEFAULT_SESSION_TIMEOUT):
        self.timeout = timeout
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()

    def put(self, session: Session) -> None:
        self.reap()
        with self._lock:
            self._sessions[session.thread_id] = session

    def take(self, thread_id: str, peer: str) -> Session | None:
        """Remove and return the thread's session, or None when no session
        is open under that id for `peer`; someone else's stays open."""
        self.reap()
        with self._lock:
            session = self._sessions.get(thread_id)
            if session is None or session.peer != peer:
                return None
            return self._sessions.pop(thread_id)

    def reap(self, now: float | None = None) -> list[Session]:
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

    The offer names what is asked for and is answered with the issuer's
    challenge; the presentation answers that challenge with the bootstrap
    AuthN credentials and is answered with the credential.
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
    creds = [c for c in bootstrap_creds if c.kind == KIND_AUTHN]
    if not creds:
        raise IdentificationRejectedError("no AuthN bootstrap credentials to present")
    vp = build_presentation(holder_keys, holder_did, creds, challenge)
    reply = channel.request(ProtocolMessage(MSG_PRESENTATION, {"presentation": vp.to_dict()},
                                            thread_id=thread_id))
    if reply.type == MSG_DENY:
        # verification failures reject the holder; a reason refuses the request
        if "failures" in reply.body:
            raise IdentificationRejectedError(str(reply.body["failures"]))
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
        {"challenge": b64u_encode(challenge)},
        thread_id=thread_id,
    ))
    if reply.type != MSG_PRESENTATION:
        raise HandshakeRejectedError("peer_refused_identification", reply.type)
    vp = body_field(reply, "presentation", VerifiablePresentation.from_dict)
    peer_challenge = body_field(reply, "challenge", b64u_decode)
    if vp is None or peer_challenge is None:
        raise HandshakeRejectedError("malformed_reply")
    verdict = verify_presentation(vp, challenge, profile.trust, profile.resolver,
                                  expected_holder=peer_did)
    if not verdict.ok:
        channel.request(reply.reply(MSG_DENY, {"failures": verdict.failures}))
        raise HandshakeRejectedError("peer_identification_failed", ",".join(verdict.failures))

    our_vp = profile.combined_vp(peer_challenge)
    reply = channel.request(ProtocolMessage(
        MSG_PRESENTATION, {"presentation": our_vp.to_dict()}, thread_id=thread_id,
    ))
    if reply.type == MSG_ACK:
        return _extract_claims(vp, KIND_AUTHN)
    detail = ",".join(reply.body.get("failures", [])) or reply.body.get("reason", "")
    raise HandshakeRejectedError("authorization_denied", detail)


class HandshakeResponder:
    """Producer side of the handshake, driven one message at a time.

    An established handshake surfaces through
    `on_established(peer, authz_claims)`; the caller (the sidecar) uses that
    to create the association that tunnel traffic is checked against.
    """

    def __init__(self, profile: HandshakeProfile, on_established=None):
        self.profile = profile
        self.on_established = on_established
        self.sessions = SessionStore()

    def handle(self, msg: ProtocolMessage, sender: str) -> ProtocolMessage:
        if msg.type == MSG_PRESENT_REQUEST:
            return self._on_identify(msg, sender)
        session = self.sessions.take(msg.thread_id, sender)
        if session is None:
            return msg.reply(MSG_DENY, {"reason": "unknown_thread"})
        if msg.type == MSG_PRESENTATION:
            return self._on_authorize(msg, session)
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
        session = Session(thread_id=msg.thread_id, peer=sender, challenge=fresh_challenge())
        self.sessions.put(session)
        return msg.reply(MSG_PRESENTATION, {
            "presentation": vp.to_dict(),
            "challenge": b64u_encode(session.challenge),
        })

    def _on_authorize(self, msg: ProtocolMessage, session: Session) -> ProtocolMessage:
        vp = body_field(msg, "presentation", VerifiablePresentation.from_dict)
        if vp is None:
            return msg.reply(MSG_DENY, {"reason": "malformed_message"})
        try:
            verdict = verify_presentation(vp, session.challenge, self.profile.trust,
                                          self.profile.resolver, expected_holder=session.peer)
        except (RegistryError, RevocationCheckError) as exc:
            log.warning("cannot check revocation for %s: %s", session.peer, exc)
            return msg.reply(MSG_DENY, {"reason": "revocation_unchecked"})
        if not verdict.ok:
            return msg.reply(MSG_DENY, {"failures": verdict.failures})
        authz_claims = _extract_claims(vp, KIND_AUTHZ)
        gate = self.profile.authz_gate or (lambda claims: True)
        if not gate(authz_claims):
            return msg.reply(MSG_DENY, {"failures": ["insufficient_rights"]})
        if self.on_established is not None:
            self.on_established(session.peer, authz_claims)
        return msg.reply(MSG_ACK, {})
