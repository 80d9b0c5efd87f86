"""Message-level protocols: credential issuance and the access-control
handshake.

Both run over a request/reply envelope channel. The initiating side
drives the exchange as a sequence of synchronous calls; the responding side
is a stateful handler keyed by thread id, because its view of one exchange
spans several incoming messages.

State machines are explicit and unforgiving: every transition goes through
`advance`, which rejects anything the legal-edge table does not allow, and
idle sessions are reaped into their failure state after a timeout.
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
    IllegalTransitionError,
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


class _Session:
    """Common transition plumbing; subclasses define the edge table."""

    EDGES: dict[str, frozenset[str]] = {}
    FAILURE_STATE = "failed"

    def advance(self, target: str) -> None:
        if target not in self.EDGES.get(self.state, frozenset()):
            raise IllegalTransitionError(self.state, target)
        self.state = target
        self.updated_at = time.time()

    def fail(self) -> None:
        """Force the failure state; legal from anywhere non-terminal."""
        if not self.terminal:
            self.state = self.FAILURE_STATE
            self.updated_at = time.time()

    @property
    def terminal(self) -> bool:
        return not self.EDGES.get(self.state)


@dataclass
class IssuanceSession(_Session):
    thread_id: str
    role: str  # "issuer" | "holder"
    state: str = "start"
    offered_kind: str | None = None
    subject_did: str | None = None
    challenge: bytes | None = None
    authn_claims: dict[str, str] | None = None  # merged once identification succeeds
    updated_at: float = dc_field(default_factory=time.time)

    EDGES = {
        "start": frozenset({"offered", "failed"}),
        "offered": frozenset({"requested", "failed"}),
        "requested": frozenset({"issued", "failed"}),
        "issued": frozenset({"done", "failed"}),
        "done": frozenset(),
        "failed": frozenset(),
    }


@dataclass
class HandshakeSession(_Session):
    thread_id: str
    peer: str
    direction: str  # "initiator" | "responder"
    state: str = "idle"
    challenge: bytes | None = None
    authn_claims: list[dict] = dc_field(default_factory=list)
    authz_claims: list[dict] = dc_field(default_factory=list)
    updated_at: float = dc_field(default_factory=time.time)

    FAILURE_STATE = "rejected"
    EDGES = {
        "idle": frozenset({"identifying", "rejected"}),
        "identifying": frozenset({"identified", "rejected"}),
        "identified": frozenset({"authorizing", "rejected"}),
        "authorizing": frozenset({"established", "rejected"}),
        "established": frozenset(),
        "rejected": frozenset(),
    }


class SessionStore:
    """Thread-safe session map with timeout reaping."""

    def __init__(self, timeout: float = DEFAULT_SESSION_TIMEOUT):
        self.timeout = timeout
        self._sessions: dict[str, _Session] = {}
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
        """Fail and evict every non-terminal session older than the timeout."""
        now = time.time() if now is None else now
        reaped = []
        with self._lock:
            for thread_id, session in list(self._sessions.items()):
                if session.terminal:
                    continue
                if now - session.updated_at > self.timeout:
                    session.fail()
                    del self._sessions[thread_id]
                    reaped.append(session)
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
    session = IssuanceSession(thread_id=str(uuid.uuid4()), role="holder", offered_kind=kind,
                              subject_did=holder_did)

    reply = channel.request(ProtocolMessage(MSG_OFFER, {"kind": kind, "claims": claims},
                                            thread_id=session.thread_id))
    if reply.type == MSG_DENY:
        session.fail()
        raise PolicyDeniedError(reply.body.get("reason", str(reply.body)))
    if reply.type != MSG_PRESENT_REQUEST:
        session.fail()
        raise ProtocolError(f"expected identification request, got {reply.type}")
    session.advance("offered")

    challenge = body_field(reply, "challenge", b64u_decode)
    if challenge is None:
        session.fail()
        raise ProtocolError("identification request carries no usable challenge")
    wanted_kinds = set(reply.body.get("kinds", [KIND_AUTHN]))
    creds = [c for c in bootstrap_creds if c.kind in wanted_kinds]
    if not creds:
        session.fail()
        raise IdentificationRejectedError(
            f"no bootstrap credentials of kinds {sorted(wanted_kinds)} to present"
        )
    vp = build_presentation(holder_keys, holder_did, creds, challenge)
    reply = channel.request(ProtocolMessage(MSG_PRESENTATION, {"presentation": vp.to_dict()},
                                            thread_id=session.thread_id))
    if reply.type == MSG_DENY:
        session.fail()
        raise IdentificationRejectedError(str(reply.body.get("failures", reply.body)))
    if reply.type != MSG_ACK:
        session.fail()
        raise ProtocolError(f"expected identification ack, got {reply.type}")

    session.advance("requested")
    reply = channel.request(ProtocolMessage(MSG_REQUEST, {"kind": kind, "claims": claims},
                                            thread_id=session.thread_id))
    if reply.type == MSG_DENY:
        session.fail()
        raise PolicyDeniedError(reply.body.get("reason", str(reply.body)))
    if reply.type != MSG_ISSUE:
        session.fail()
        raise ProtocolError(f"expected issued credential, got {reply.type}")
    vc = body_field(reply, "credential", VerifiableCredential.from_dict)
    if vc is None:
        session.fail()
        raise ProtocolError("issue message carries no usable credential")
    session.advance("issued")
    if vc.subject != holder_did or vc.kind != kind:
        session.fail()
        raise ProtocolError("issued credential does not match the request")
    session.advance("done")
    return vc


# --- access-control handshake ------------------------------------------------------


@dataclass
class HandshakeProfile:
    """Everything one side needs to run handshakes.

    `identity_vp` answers an identification challenge with an AuthN-only
    presentation. `combined_vp` (consumer side) answers the producer's
    challenge with AuthN plus the AuthZ credentials relevant to that
    producer. `authz_gate` (producer side) decides whether verified AuthZ
    claims are sufficient to associate at all; per-operation enforcement
    happens later, per tunneled request.
    """

    local_did: str
    trust: TrustPolicy
    resolver: object
    revocation_client: object = None
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


def run_handshake(channel, profile: HandshakeProfile, peer_did: str) -> HandshakeSession:
    """Consumer-initiated handshake: identify the producer, then identify
    and authorize ourselves, ending established or rejected.

    Raises HandshakeRejectedError on any verification failure, after letting
    the peer know (a deny closes the thread on both sides).
    """
    peer_did = str(peer_did)
    session = HandshakeSession(thread_id=str(uuid.uuid4()), peer=peer_did,
                               direction="initiator")
    session.advance("identifying")

    challenge = fresh_challenge()
    reply = channel.request(ProtocolMessage(
        MSG_PRESENT_REQUEST,
        {"challenge": b64u_encode(challenge), "kinds": [KIND_AUTHN]},
        thread_id=session.thread_id,
    ))
    if reply.type != MSG_PRESENTATION:
        session.fail()
        raise HandshakeRejectedError("peer_refused_identification", reply.type)
    vp = body_field(reply, "presentation", VerifiablePresentation.from_dict)
    if vp is None:
        session.fail()
        raise HandshakeRejectedError("malformed_reply")
    verdict = verify_presentation(vp, challenge, profile.trust, profile.resolver,
                                  profile.revocation_client, expected_holder=peer_did)
    if not verdict.ok:
        channel.request(reply.reply(MSG_DENY, {"failures": verdict.failures}))
        session.fail()
        raise HandshakeRejectedError("peer_identification_failed", ",".join(verdict.failures))
    session.authn_claims = _extract_claims(vp, KIND_AUTHN)
    session.advance("identified")

    reply = channel.request(ProtocolMessage(MSG_ACK, {}, thread_id=session.thread_id))
    if reply.type != MSG_PRESENT_REQUEST:
        session.fail()
        raise HandshakeRejectedError("peer_skipped_authorization_challenge", reply.type)
    session.advance("authorizing")

    peer_challenge = body_field(reply, "challenge", b64u_decode)
    if peer_challenge is None:
        session.fail()
        raise HandshakeRejectedError("malformed_reply")
    our_vp = profile.combined_vp(peer_challenge)
    reply = channel.request(ProtocolMessage(
        MSG_PRESENTATION, {"presentation": our_vp.to_dict()}, thread_id=session.thread_id,
    ))
    if reply.type == MSG_ACK:
        session.advance("established")
        return session
    session.fail()
    detail = ",".join(reply.body.get("failures", [])) or reply.body.get("reason", "")
    raise HandshakeRejectedError("authorization_denied", detail)


class HandshakeResponder:
    """Producer side of the handshake, driven one message at a time.

    Terminal outcomes surface through `on_established(session)`; the caller
    (the sidecar) uses that to create the association that tunnel traffic
    is checked against.
    """

    def __init__(self, profile: HandshakeProfile, on_established=None,
                 session_timeout: float = DEFAULT_SESSION_TIMEOUT):
        self.profile = profile
        self.on_established = on_established
        self.sessions = SessionStore(timeout=session_timeout)

    def handle(self, msg: ProtocolMessage, sender: str) -> ProtocolMessage:
        if msg.type == MSG_PRESENT_REQUEST:
            return self._on_identify(msg, sender)
        session = self.sessions.get(msg.thread_id)
        if session is None or session.peer != sender:
            return msg.reply(MSG_DENY, {"reason": "unknown_thread"})
        if msg.type == MSG_ACK and session.state == "identifying":
            return self._on_identified(msg, session)
        if msg.type == MSG_PRESENTATION and session.state == "authorizing":
            return self._on_authorize(msg, session)
        if msg.type == MSG_DENY:
            session.fail()
            self.sessions.drop(msg.thread_id)
            return msg.reply(MSG_ACK, {})
        session.fail()
        return msg.reply(MSG_DENY, {"reason": f"unexpected {msg.type} in {session.state}"})

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
        session = HandshakeSession(thread_id=msg.thread_id, peer=sender, direction="responder")
        session.advance("identifying")
        self.sessions.put(session)
        return msg.reply(MSG_PRESENTATION, {"presentation": vp.to_dict()})

    def _on_identified(self, msg: ProtocolMessage, session: HandshakeSession) -> ProtocolMessage:
        session.advance("identified")
        session.challenge = fresh_challenge()
        session.advance("authorizing")
        return msg.reply(MSG_PRESENT_REQUEST, {
            "challenge": b64u_encode(session.challenge),
            "kinds": [KIND_AUTHN, KIND_AUTHZ],
        })

    def _on_authorize(self, msg: ProtocolMessage, session: HandshakeSession) -> ProtocolMessage:
        vp = body_field(msg, "presentation", VerifiablePresentation.from_dict)
        if vp is None:
            return self._refuse(msg, session, {"reason": "malformed_message"})
        verdict = verify_presentation(vp, session.challenge, self.profile.trust,
                                      self.profile.resolver, self.profile.revocation_client,
                                      expected_holder=session.peer)
        if not verdict.ok:
            return self._refuse(msg, session, {"failures": verdict.failures})
        authz_claims = _extract_claims(vp, KIND_AUTHZ)
        gate = self.profile.authz_gate or (lambda claims: True)
        if not gate(authz_claims):
            return self._refuse(msg, session, {"failures": ["insufficient_rights"]})
        session.authn_claims = _extract_claims(vp, KIND_AUTHN)
        session.authz_claims = authz_claims
        session.advance("established")
        self.sessions.drop(msg.thread_id)
        if self.on_established is not None:
            self.on_established(session)
        return msg.reply(MSG_ACK, {})

    def _refuse(self, msg: ProtocolMessage, session: HandshakeSession,
                body: dict) -> ProtocolMessage:
        session.fail()
        self.sessions.drop(msg.thread_id)
        return msg.reply(MSG_DENY, body)
