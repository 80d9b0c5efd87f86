"""The identity and permission management function.

An IPMF is the trusted party NFs get their credentials from. A root IPMF
sits at the top of a domain and by default only delegates; child IPMFs hold
a delegation chain from their root and run the operational issuance
protocol towards NFs. Policy is a first-match rule list evaluated against
the requester's verified bootstrap claims and the requested grant.

Everything an IPMF issues is recorded in an append-only issuance log.
Revocation authority is the IPMF's DID key, which signs each revocation;
the log only keeps an IPMF from revoking ids it never issued.
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
    string_map,
    verify_presentation,
)
from .encoding import JsonLines, b64u_decode, b64u_encode
from .envelope import (
    MSG_DENY,
    MSG_ISSUE,
    MSG_OFFER,
    MSG_PRESENT_REQUEST,
    MSG_PRESENTATION,
    ProtocolMessage,
)
from .envelope_http import EnvelopeHttpServer
from .crypto import ed25519_sign
from .errors import ConfigError, IssuanceError, RegistryError, RevocationCheckError
from .identity import KeyPair, Resolver, create_registry_did, generate_keypair, publish_document
from .protocols import Session, SessionStore, body_field
from .vdr import revoke_request_bytes

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

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyRule":
        return cls(
            kind=data["kind"],
            match=dict(data.get("match", {})),
            request_match=dict(data.get("request_match", {})),
            grant=dict(data.get("grant", {})),
            validity=data.get("validity"),
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
    ):
        self.name = name
        self.registry = registry
        self.keys = keys if keys is not None else generate_keypair()
        self.parent_chain = list(parent_chain or [])
        self.policy = list(policy or [])
        self.trusted_foreign_roots = set(trusted_foreign_roots)
        self.allow_direct_issuance = allow_direct_issuance
        self.resolver = Resolver(registry)
        self.did = create_registry_did(self.keys)[0]
        self.doc_version = 1
        self.server: EnvelopeHttpServer | None = None
        self.sessions = SessionStore()
        self._log = JsonLines(issuance_log)
        self._issued_ids = set()
        for line_no, line in self._log.lines():
            try:
                self._issued_ids.add(json.loads(line)["credential_id"])
            except (ValueError, KeyError, TypeError) as exc:
                raise IssuanceError("corrupt_log", f"issuance log {self._log.path} line {line_no} "
                                                   "is not a record with a credential_id") from exc

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

    def trust_policy(self) -> TrustPolicy:
        roots = {self.trust_root} | self.trusted_foreign_roots
        return TrustPolicy(trusted_roots=frozenset(roots))

    @classmethod
    def from_config(cls, config: dict, registry) -> "Ipmf":
        """Build an IPMF from the keys an `ipmf run` config holds.

        Keys: `name`; `seed`, 32 bytes in base64url, optional unless
        `parent_chain` is given; `parent_chain`, the delegation credentials
        from the root down to this IPMF; `policy`, a list of `PolicyRule`
        dicts; `trusted_foreign_roots`, root DIDs of other domains;
        `allow_direct_issuance`; and `issuance_log`, a file path. Every
        problem found is reported in one `ConfigError`.
        """
        problems: list[str] = []
        keys = None
        if config.get("seed") is not None:
            seed = b64u_decode(config["seed"])
            if len(seed) == 32:
                keys = generate_keypair(seed)
            else:
                problems.append("seed must decode to 32 bytes")
        chain = [VerifiableCredential.from_dict(c) for c in config.get("parent_chain", [])]
        policy = [PolicyRule.from_dict(r) for r in config.get("policy", [])]

        if chain and keys is None:
            problems.append("parent_chain requires a fixed seed so the DID matches the delegation")
        try:
            effective = chain_rights(chain)
        except ValueError as exc:
            problems.append(f"parent_chain terminal rights unparseable: {exc}")
            effective = frozenset()
        for index, rule in enumerate(policy):
            if rule.kind not in KINDS:
                problems.append(f"policy[{index}]: unknown kind {rule.kind!r}")
            elif creds.REQUIRED_RIGHT[rule.kind] not in effective:
                problems.append(
                    f"policy[{index}]: grants {rule.kind} but effective rights are {sorted(effective)}"
                )
        if chain and keys is not None:
            own_did = create_registry_did(keys)[0]
            if chain[-1].subject != own_did:
                problems.append(
                    f"parent_chain terminates at {chain[-1].subject}, but the seed derives {own_did}"
                )
        if problems:
            raise ConfigError(problems)
        return cls(
            name=config.get("name", "ipmf"),
            registry=registry,
            keys=keys,
            parent_chain=chain,
            policy=policy,
            trusted_foreign_roots=config.get("trusted_foreign_roots", []),
            allow_direct_issuance=bool(config.get("allow_direct_issuance", False)),
            issuance_log=config.get("issuance_log"),
        )

    def bootstrap(self, host: str = "127.0.0.1", port: int = 0,
                  serve: bool = True) -> None:
        """Register the DID, which is also its revocation registry, and serve.

        Roots that only delegate can pass serve=False; they still need a
        registered DID so delegation chains can be verified against it.
        Bootstrapping is restart-safe: an already registered DID gets its
        document republished.
        """
        endpoint = None
        if serve:
            self.server = EnvelopeHttpServer(self, self.handle, host, port)
            endpoint = self.server.endpoint
        self.doc_version = publish_document(self.registry, self.resolver, self.keys,
                                            endpoint).version
        if self.server is not None:
            self.server.start()

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
            subject=subject,
            claims=claims,
            validity=validity,
            revocation_registry_id=self.did,
            chain=self.parent_chain,
        )
        self._log_issued(vc)
        return vc

    def delegate_to_child(self, child_did: str, rights,
                          validity: int | None = None) -> VerifiableCredential:
        vc = creds.issue_delegation(
            parent_key=self.keys,
            parent_did=self.did,
            child_did=child_did,
            rights=rights,
            parent_chain=self.parent_chain,
            validity=validity,
            revocation_registry_id=self.did,
        )
        self._log_issued(vc)
        return vc

    def revoke_credential(self, credential_id: str) -> None:
        if credential_id not in self._issued_ids:
            raise IssuanceError("not_issuer", f"{credential_id} is not in this IPMF's log")
        signature = self._sign(revoke_request_bytes(self.did, credential_id))
        self.registry.revoke(self.did, credential_id, signature)

    # -- the issuance protocol, issuer side -----------------------------------------

    def handle(self, msg: ProtocolMessage, sender: str) -> ProtocolMessage:
        if msg.type == MSG_OFFER:
            return self._on_offer(msg, sender)
        session = self.sessions.take(msg.thread_id, sender)
        if session is None:
            return msg.reply(MSG_DENY, {"reason": "unknown_thread"})
        if msg.type == MSG_PRESENTATION:
            return self._on_presentation(msg, session)
        return msg.reply(MSG_DENY, {"reason": f"unexpected {msg.type}"})

    def _on_offer(self, msg: ProtocolMessage, sender: str) -> ProtocolMessage:
        kind = msg.body.get("kind")
        if kind not in KINDS or kind == KIND_DEL:
            # Delegation runs through the administrative path, never the
            # NF-facing protocol.
            return msg.reply(MSG_DENY, {"reason": f"cannot offer kind {kind!r}"})
        requested = body_field(msg, "claims", string_map)
        if requested is None:
            return msg.reply(MSG_DENY, {"reason": "malformed_message"})
        session = Session(thread_id=msg.thread_id, peer=sender, challenge=fresh_challenge(),
                          request=(kind, requested))
        self.sessions.put(session)
        return msg.reply(MSG_PRESENT_REQUEST, {"challenge": b64u_encode(session.challenge)})

    def _on_presentation(self, msg: ProtocolMessage, session: Session) -> ProtocolMessage:
        vp = body_field(msg, "presentation", VerifiablePresentation.from_dict)
        if vp is None:
            return msg.reply(MSG_DENY, {"reason": "malformed_message"})
        try:
            verdict = verify_presentation(vp, session.challenge, self.trust_policy(),
                                          self.resolver, expected_holder=session.peer)
        except (RegistryError, RevocationCheckError) as exc:
            log.warning("%s: cannot check revocation for %s: %s", self.name, session.peer, exc)
            return msg.reply(MSG_DENY, {"reason": "revocation_unchecked"})
        if not verdict.ok:
            log.info("%s: rejecting identification of %s: %s",
                     self.name, session.peer, verdict.failures)
            return msg.reply(MSG_DENY, {"failures": verdict.failures})
        authn_claims: dict[str, str] = {}
        for vc in vp.credentials:
            if vc.kind == KIND_AUTHN:
                authn_claims.update(vc.claims)
        kind, requested = session.request
        if creds.REQUIRED_RIGHT.get(kind) not in self.effective_rights:
            return msg.reply(MSG_DENY, {"reason": "insufficient_rights"})
        rule = next(
            (r for r in self.policy
             if r.matches(authn_claims, kind, requested)),
            None,
        )
        if rule is None:
            log.info("%s: no policy rule for %s request by %s",
                     self.name, kind, session.peer)
            return msg.reply(MSG_DENY, {"reason": "policy_denied"})
        granted = dict(rule.grant) if rule.grant else requested
        try:
            vc = self.issue_credential_to(session.peer, kind, granted,
                                          validity=rule.validity)
        except IssuanceError as exc:
            return msg.reply(MSG_DENY, {"reason": exc.code})
        return msg.reply(MSG_ISSUE, {"credential": vc.to_dict()})
