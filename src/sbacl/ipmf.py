"""The identity and permission management function.

An IPMF is the trusted party NFs get their credentials from. A root IPMF
sits at the top of a domain and by default only delegates; child IPMFs hold
a delegation chain from their root and run the operational issuance
protocol towards NFs. Policy is a first-match rule list evaluated against
the requester's verified bootstrap claims and the requested grant.

Everything an IPMF issues is recorded in an append-only issuance log, which
is also what gives it revocation authority: you can only revoke what your
own log says you issued.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from . import credentials as creds
from .credentials import (
    KIND_AUTHN,
    KIND_DEL,
    KINDS,
    TrustPolicy,
    VerifiableCredential,
    VerifiablePresentation,
    chain_rights,
    fresh_challenge,
    verify_presentation,
)
from .encoding import JsonLines, b64u_decode, b64u_encode, sha256
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
from .envelope_http import EnvelopeHttpServer
from .crypto import ed25519_sign
from .errors import ConfigError, IssuanceError, RegistryError
from .identity import KeyPair, Resolver, create_registry_did, generate_keypair, publish_document
from .protocols import IssuanceSession, SessionStore, body_field
from .vdr import revocation_request_bytes, revoke_request_bytes

log = logging.getLogger(__name__)


@dataclass
class PolicyRule:
    """One issuance rule: who may get what.

    `match` constrains the requester's verified bootstrap claims,
    `request_match` constrains the requested claim set, both as exact-value
    predicates with `*` as a wildcard value. `grant` is the claim template
    to issue; when empty, the requested claims are issued as asked.
    """

    kind: str
    match: dict[str, str] = dc_field(default_factory=dict)
    request_match: dict[str, str] = dc_field(default_factory=dict)
    grant: dict[str, str] = dc_field(default_factory=dict)
    validity: int | None = None

    def matches(self, authn_claims: dict[str, str], kind: str,
                requested: dict[str, str]) -> bool:
        if kind != self.kind:
            return False
        for key, want in self.match.items():
            if want != "*" and authn_claims.get(key) != want:
                return False
        for key, want in self.request_match.items():
            if want != "*" and requested.get(key) != want:
                return False
        return True

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "match": self.match, "request_match": self.request_match,
               "grant": self.grant}
        if self.validity is not None:
            out["validity"] = self.validity
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyRule":
        return cls(
            kind=data["kind"],
            match=dict(data.get("match", {})),
            request_match=dict(data.get("request_match", {})),
            grant=dict(data.get("grant", {})),
            validity=data.get("validity"),
        )


@dataclass
class IpmfConfig:
    name: str
    seed: bytes | None = None
    registry_url: str | None = None
    parent_chain: list[VerifiableCredential] = dc_field(default_factory=list)
    trusted_foreign_roots: list[str] = dc_field(default_factory=list)
    policy: list[PolicyRule] = dc_field(default_factory=list)
    allow_direct_issuance: bool = False
    issuance_log: str | None = None
    listen_host: str = "127.0.0.1"
    listen_port: int = 0


def load_config(path: str | Path) -> IpmfConfig:
    """Parse and validate an IPMF config file, reporting every problem."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    problems: list[str] = []
    seed = None
    if raw.get("seed") is not None:
        seed = b64u_decode(raw["seed"])
        if len(seed) != 32:
            problems.append("seed must decode to 32 bytes")
            seed = None
    chain = [VerifiableCredential.from_dict(c) for c in raw.get("parent_chain", [])]
    rules = [PolicyRule.from_dict(r) for r in raw.get("policy", [])]

    if chain and seed is None:
        problems.append("parent_chain requires a fixed seed so the DID matches the delegation")
    try:
        effective = chain_rights(chain)
    except ValueError as exc:
        problems.append(f"parent_chain terminal rights unparseable: {exc}")
        effective = frozenset()
    for index, rule in enumerate(rules):
        if rule.kind not in KINDS:
            problems.append(f"policy[{index}]: unknown kind {rule.kind!r}")
        elif creds.REQUIRED_RIGHT[rule.kind] not in effective:
            problems.append(
                f"policy[{index}]: grants {rule.kind} but effective rights are {sorted(effective)}"
            )
    if chain and seed is not None:
        kp = generate_keypair(seed)
        own_did = str(create_registry_did(kp)[0])
        if chain[-1].subject != own_did:
            problems.append(
                f"parent_chain terminates at {chain[-1].subject}, but the seed derives {own_did}"
            )
    if problems:
        raise ConfigError(problems)
    return IpmfConfig(
        name=raw.get("name", "ipmf"),
        seed=seed,
        registry_url=raw.get("registry_url"),
        parent_chain=chain,
        trusted_foreign_roots=list(raw.get("trusted_foreign_roots", [])),
        policy=rules,
        allow_direct_issuance=bool(raw.get("allow_direct_issuance", False)),
        issuance_log=raw.get("issuance_log"),
        listen_host=raw.get("listen_host", "127.0.0.1"),
        listen_port=int(raw.get("listen_port", 0)),
    )


class Ipmf:
    """One issuer: root when `parent_chain` is empty, delegated child otherwise."""

    def __init__(
        self,
        name: str,
        registry,
        keys: KeyPair | None = None,
        parent_chain: list[VerifiableCredential] | None = None,
        policy: list[PolicyRule] | None = None,
        trusted_foreign_roots=(),
        allow_direct_issuance: bool = False,
        issuance_log: str | Path | None = None,
        resolver: Resolver | None = None,
        session_timeout: float = 10.0,
    ):
        self.name = name
        self.registry = registry
        self.keys = keys if keys is not None else generate_keypair()
        self.parent_chain = list(parent_chain or [])
        self.policy = list(policy or [])
        self.trusted_foreign_roots = {str(r) for r in trusted_foreign_roots}
        self.allow_direct_issuance = allow_direct_issuance
        self.resolver = resolver if resolver is not None else Resolver(registry)
        self.did = str(create_registry_did(self.keys)[0])
        self.doc_version = 1
        self.revocation_registry_id: str | None = None
        self.server: EnvelopeHttpServer | None = None
        self.sessions = SessionStore(timeout=session_timeout)
        self._log = JsonLines(issuance_log)
        self._issued_ids = {json.loads(line)["credential_id"] for _, line in self._log.lines()}

    # -- identity and rights -------------------------------------------------

    @property
    def is_root(self) -> bool:
        return not self.parent_chain

    @property
    def effective_rights(self) -> frozenset[str]:
        return chain_rights(self.parent_chain)

    @property
    def trust_root(self) -> str:
        """The root DID this IPMF's own issuances chain back to."""
        return self.parent_chain[0].issuer if self.parent_chain else self.did

    def trust_policy(self, require_revocation_check: bool = True) -> TrustPolicy:
        roots = {self.trust_root} | self.trusted_foreign_roots
        return TrustPolicy(trusted_roots=frozenset(roots),
                           require_revocation_check=require_revocation_check)

    @classmethod
    def from_config(cls, config: IpmfConfig, registry) -> "Ipmf":
        return cls(
            name=config.name,
            registry=registry,
            keys=generate_keypair(config.seed) if config.seed else None,
            parent_chain=config.parent_chain,
            policy=config.policy,
            trusted_foreign_roots=config.trusted_foreign_roots,
            allow_direct_issuance=config.allow_direct_issuance,
            issuance_log=config.issuance_log,
        )

    def bootstrap(self, host: str = "127.0.0.1", port: int = 0,
                  serve: bool = True) -> None:
        """Register the DID, create the revocation registry, start serving.

        Roots that only delegate can pass serve=False; they still need a
        registered DID so delegation chains can be verified against it.
        Bootstrapping is restart-safe: an already registered DID gets its
        document republished, and the revocation registry is recovered
        rather than recreated, so previously issued credentials keep
        pointing at a live registry.
        """
        endpoint = None
        if serve:
            self.server = EnvelopeHttpServer(self, self.handle, host, port)
            endpoint = self.server.endpoint
        self.doc_version = publish_document(self.registry, self.resolver, self.keys,
                                            endpoint).version
        if self.revocation_registry_id is None:
            self.revocation_registry_id = self._ensure_revocation_registry()
        if self.server is not None:
            self.server.start()

    def _ensure_revocation_registry(self) -> str:
        # The nonce is a fixed function of the signing key, so a restarted
        # IPMF arrives back at the registry id its issued credentials
        # already reference instead of abandoning it.
        nonce = sha256(b"sbacl/revocation-registry/" + self.keys.signing_public)[:16]
        request = revocation_request_bytes(self.did, nonce)
        try:
            return self.registry.create_revocation_registry(
                self.did, nonce, self._sign(request)
            )
        except RegistryError as exc:
            if exc.code != "already_exists":
                raise
            return sha256(request).hex()

    def shutdown(self) -> None:
        if self.server is not None:
            self.server.stop()

    def _sign(self, data: bytes) -> bytes:
        return ed25519_sign(self.keys.signing_secret, data)

    # -- issuance log -----------------------------------------------------------

    def _log_issued(self, vc: VerifiableCredential) -> None:
        self._issued_ids.add(vc.credential_id)
        self._log.append({
            "credential_id": vc.credential_id,
            "kind": vc.kind,
            "subject": vc.subject,
            "issued_at": vc.issued_at,
        })

    # -- direct operations (in-process / CLI) -------------------------------------

    def issue_credential_to(self, subject: str, kind: str, claims: dict[str, str],
                            validity: int | None = None) -> VerifiableCredential:
        """Issue directly, bypassing the wire protocol. Used for bootstrap
        provisioning and administrative issuance."""
        if self.is_root and not self.allow_direct_issuance and kind != KIND_DEL:
            raise IssuanceError(
                "root_issuance_disabled",
                "this root only delegates; set allow_direct_issuance to override",
            )
        vc = creds.issue_credential(
            issuer_key=self.keys,
            issuer_did=self.did,
            kind=kind,
            subject=str(subject),
            claims=claims,
            validity=validity,
            revocation_registry_id=self.revocation_registry_id,
            chain=self.parent_chain,
        )
        self._log_issued(vc)
        return vc

    def delegate_to_child(self, child_did: str, rights,
                          validity: int | None = None) -> VerifiableCredential:
        vc = creds.issue_delegation(
            parent_key=self.keys,
            parent_did=self.did,
            child_did=str(child_did),
            rights=rights,
            parent_chain=self.parent_chain,
            validity=validity,
            revocation_registry_id=self.revocation_registry_id,
        )
        self._log_issued(vc)
        return vc

    def revoke_credential(self, credential_id: str) -> None:
        if credential_id not in self._issued_ids:
            raise IssuanceError("not_issuer", f"{credential_id} is not in this IPMF's log")
        if self.revocation_registry_id is None:
            raise IssuanceError("no_registry", "IPMF has no revocation registry yet")
        signature = self._sign(revoke_request_bytes(self.revocation_registry_id, credential_id))
        self.registry.revoke(self.revocation_registry_id, credential_id, signature)

    # -- the issuance protocol, issuer side -----------------------------------------

    def handle(self, msg: ProtocolMessage, sender: str) -> ProtocolMessage:
        if msg.type == MSG_OFFER:
            return self._on_offer(msg, sender)
        session = self.sessions.get(msg.thread_id)
        if session is None or session.subject_did != sender:
            return msg.reply(MSG_DENY, {"reason": "unknown_thread"})
        if msg.type == MSG_PRESENTATION:
            return self._on_identification(msg, session)
        if msg.type == MSG_REQUEST:
            return self._on_request(msg, session)
        self._fail(session)
        return msg.reply(MSG_DENY, {"reason": f"unexpected {msg.type}"})

    def _fail(self, session: IssuanceSession) -> None:
        session.fail()
        self.sessions.drop(session.thread_id)

    def _on_offer(self, msg: ProtocolMessage, sender: str) -> ProtocolMessage:
        kind = msg.body.get("kind")
        if kind not in KINDS or kind == KIND_DEL:
            # Delegation runs through the administrative path, never the
            # NF-facing protocol.
            return msg.reply(MSG_DENY, {"reason": f"cannot offer kind {kind!r}"})
        session = IssuanceSession(thread_id=msg.thread_id, role="issuer", offered_kind=kind,
                                  subject_did=sender, challenge=fresh_challenge())
        session.advance("offered")
        self.sessions.put(session)
        return msg.reply(MSG_PRESENT_REQUEST, {
            "challenge": b64u_encode(session.challenge),
            "kinds": [KIND_AUTHN],
        })

    def _on_identification(self, msg: ProtocolMessage,
                           session: IssuanceSession) -> ProtocolMessage:
        vp = body_field(msg, "presentation", VerifiablePresentation.from_dict)
        if vp is None:
            self._fail(session)
            return msg.reply(MSG_DENY, {"reason": "malformed_message"})
        verdict = verify_presentation(
            vp, session.challenge, self.trust_policy(), self.resolver,
            revocation_client=self.registry, expected_holder=session.subject_did,
        )
        if not verdict.ok:
            log.info("%s: rejecting identification of %s: %s",
                     self.name, session.subject_did, verdict.failures)
            self._fail(session)
            return msg.reply(MSG_DENY, {"failures": verdict.failures})
        merged: dict[str, str] = {}
        for vc in vp.credentials:
            if vc.kind == KIND_AUTHN:
                merged.update(vc.claims)
        session.authn_claims = merged
        return msg.reply(MSG_ACK, {})

    def _on_request(self, msg: ProtocolMessage, session: IssuanceSession) -> ProtocolMessage:
        if session.authn_claims is None:
            self._fail(session)
            return msg.reply(MSG_DENY, {"reason": "not_identified"})
        kind = msg.body.get("kind")
        requested = dict(msg.body.get("claims", {}))
        if kind != session.offered_kind:
            self._fail(session)
            return msg.reply(MSG_DENY, {"reason": "request_differs_from_offer"})
        session.advance("requested")
        if creds.REQUIRED_RIGHT.get(kind) not in self.effective_rights:
            self._fail(session)
            return msg.reply(MSG_DENY, {"reason": "insufficient_rights"})
        rule = next(
            (r for r in self.policy
             if r.matches(session.authn_claims, kind, requested)),
            None,
        )
        if rule is None:
            log.info("%s: no policy rule for %s request by %s",
                     self.name, kind, session.subject_did)
            self._fail(session)
            return msg.reply(MSG_DENY, {"reason": "policy_denied"})
        granted = dict(rule.grant) if rule.grant else requested
        try:
            vc = self.issue_credential_to(session.subject_did, kind, granted,
                                          validity=rule.validity)
        except IssuanceError as exc:
            self._fail(session)
            return msg.reply(MSG_DENY, {"reason": exc.code})
        session.advance("issued")
        session.advance("done")
        self.sessions.drop(session.thread_id)
        return msg.reply(MSG_ISSUE, {"credential": vc.to_dict()})
