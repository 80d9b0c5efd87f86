"""Verifiable credentials, presentations, and the verification pipeline.

A credential is issuer-signed claims about a subject. A presentation wraps
credentials with a holder signature over a verifier-chosen challenge, which
is what proves the holder controls the subject DID right now rather than
replaying an old transcript.

Verification is three conditions, matching how a producer decides whether
to trust a consumer: the credentials verify against their issuers' resolved
key material, the presentation verifies against the holder's resolved key
material, and (optionally) nothing presented has been revoked. On top of
that sits delegation-chain trace-back: a credential from a non-root issuer
is only as good as the chain of Del credentials connecting that issuer to
a root the verifier actually trusts.

Failures are verdicts, not exceptions. Only infrastructure faults (registry
unreachable, revocation check impossible) raise, because treating those as
"invalid credential" would be wrong in both directions.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass, field

from . import crypto
from .encoding import b64u_decode, b64u_encode, canonical_json
from .errors import (
    IssuanceError,
    PresentationError,
    RegistryError,
    RegistryUnavailableError,
    RevocationCheckError,
    SbaclError,
)
from .identity import Did, KeyPair

KIND_AUTHN = "AuthN"
KIND_AUTHZ = "AuthZ"
KIND_DEL = "Del"
KINDS = (KIND_AUTHN, KIND_AUTHZ, KIND_DEL)

RIGHT_ISSUE_AUTHN = "issue_authn"
RIGHT_ISSUE_AUTHZ = "issue_authz"
RIGHT_DELEGATE = "delegate"
ALL_RIGHTS = frozenset({RIGHT_ISSUE_AUTHN, RIGHT_ISSUE_AUTHZ, RIGHT_DELEGATE})

# Which delegated right licenses issuing which credential kind.
REQUIRED_RIGHT = {
    KIND_AUTHN: RIGHT_ISSUE_AUTHN,
    KIND_AUTHZ: RIGHT_ISSUE_AUTHZ,
    KIND_DEL: RIGHT_DELEGATE,
}

CHALLENGE_SIZE = 32

FAIL_BAD_VC_SIGNATURE = "bad_vc_signature"
FAIL_BAD_VP_SIGNATURE = "bad_vp_signature"
FAIL_EXPIRED = "expired"
FAIL_REVOKED = "revoked"
FAIL_CHAIN_BROKEN = "chain_broken"
FAIL_CHAIN_UNTRUSTED = "chain_untrusted"
FAIL_SUBJECT_MISMATCH = "subject_mismatch"
FAIL_CHALLENGE_MISMATCH = "challenge_mismatch"
FAIL_INSUFFICIENT_RIGHTS = "insufficient_rights"


def parse_rights(text: str) -> frozenset[str]:
    """Parse a comma-set rights claim; unknown right names are an error."""
    rights = frozenset(part.strip() for part in text.split(",") if part.strip())
    unknown = rights - ALL_RIGHTS
    if unknown:
        raise ValueError(f"unknown rights: {sorted(unknown)}")
    return rights


def format_rights(rights) -> str:
    return ",".join(sorted(rights))


def fresh_challenge() -> bytes:
    return os.urandom(CHALLENGE_SIZE)


@dataclass
class VerifiableCredential:
    credential_id: str
    kind: str
    issuer: str
    subject: str
    claims: dict[str, str]
    issued_at: int
    expires_at: int | None = None
    revocation: tuple[str, str] | None = None  # (registry_id, credential_id)
    delegation_chain: list["VerifiableCredential"] = field(default_factory=list)
    proof: bytes | None = None

    def to_dict(self, include_proof: bool = True) -> dict:
        out = {
            "credential_id": self.credential_id,
            "kind": self.kind,
            "issuer": self.issuer,
            "subject": self.subject,
            "claims": dict(self.claims),
            "issued_at": self.issued_at,
        }
        if self.expires_at is not None:
            out["expires_at"] = self.expires_at
        if self.revocation is not None:
            out["revocation"] = {
                "registry_id": self.revocation[0],
                "credential_id": self.revocation[1],
            }
        if self.delegation_chain:
            out["delegation_chain"] = [c.to_dict() for c in self.delegation_chain]
        if include_proof and self.proof is not None:
            out["proof"] = b64u_encode(self.proof)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "VerifiableCredential":
        revocation = None
        if "revocation" in data:
            revocation = (data["revocation"]["registry_id"], data["revocation"]["credential_id"])
        return cls(
            credential_id=data["credential_id"],
            kind=data["kind"],
            issuer=data["issuer"],
            subject=data["subject"],
            claims=dict(data["claims"]),
            issued_at=int(data["issued_at"]),
            expires_at=int(data["expires_at"]) if "expires_at" in data else None,
            revocation=revocation,
            delegation_chain=[cls.from_dict(c) for c in data.get("delegation_chain", [])],
            proof=b64u_decode(data["proof"]) if "proof" in data else None,
        )

    def signing_bytes(self) -> bytes:
        return canonical_json(self.to_dict(include_proof=False))


@dataclass
class VerifiablePresentation:
    holder: str
    credentials: list[VerifiableCredential]
    challenge: bytes
    created_at: int
    proof: bytes | None = None

    def to_dict(self, include_proof: bool = True) -> dict:
        out = {
            "holder": self.holder,
            "credentials": [c.to_dict() for c in self.credentials],
            "challenge": b64u_encode(self.challenge),
            "created_at": self.created_at,
        }
        if include_proof and self.proof is not None:
            out["proof"] = b64u_encode(self.proof)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "VerifiablePresentation":
        return cls(
            holder=data["holder"],
            credentials=[VerifiableCredential.from_dict(c) for c in data["credentials"]],
            challenge=b64u_decode(data["challenge"]),
            created_at=int(data["created_at"]),
            proof=b64u_decode(data["proof"]) if "proof" in data else None,
        )

    def signing_bytes(self) -> bytes:
        return canonical_json(self.to_dict(include_proof=False))


@dataclass(frozen=True)
class TrustPolicy:
    trusted_roots: frozenset[str]
    require_revocation_check: bool = False
    clock_skew_tolerance: int = 30

    @classmethod
    def trusting(cls, *roots, require_revocation_check: bool = False) -> "TrustPolicy":
        return cls(
            trusted_roots=frozenset(str(r) for r in roots),
            require_revocation_check=require_revocation_check,
        )


@dataclass
class Verdict:
    ok: bool
    failures: list[str]

    @classmethod
    def from_failures(cls, failures) -> "Verdict":
        deduped: list[str] = []
        for code in failures:
            if code not in deduped:
                deduped.append(code)
        return cls(ok=not deduped, failures=deduped)


# --- issuance -----------------------------------------------------------------


def chain_rights(chain: list[VerifiableCredential]) -> frozenset[str]:
    """Effective rights carried by a delegation chain; all rights when empty."""
    if not chain:
        return ALL_RIGHTS
    return parse_rights(chain[-1].claims.get("rights", ""))


def issue_credential(
    issuer_key: KeyPair,
    issuer_did: Did | str,
    kind: str,
    subject: Did | str,
    claims: dict[str, str],
    validity: int | None = None,
    revocation_registry_id: str | None = None,
    chain: list[VerifiableCredential] | None = None,
    issued_at: int | None = None,
) -> VerifiableCredential:
    """Create and sign a credential.

    When the issuer is a delegated (non-root) issuer, `chain` is the
    delegation chain it received; the chain is embedded in the credential
    so verifiers can trace it back without talking to anyone but the
    registry. Issuing a kind the chain does not license is refused here,
    before a signature ever exists.
    """
    if kind not in KINDS:
        raise IssuanceError("bad_kind", f"unknown credential kind {kind!r}")
    issuer_did = str(issuer_did)
    subject = str(subject)
    chain = list(chain or [])
    if chain:
        if chain[-1].subject != issuer_did:
            raise IssuanceError(
                "chain_terminal_mismatch",
                "delegation chain does not terminate at the issuing DID",
            )
        rights = chain_rights(chain)
        if REQUIRED_RIGHT[kind] not in rights:
            raise IssuanceError(
                "insufficient_rights",
                f"chain grants {sorted(rights)}, {kind} issuance needs {REQUIRED_RIGHT[kind]}",
            )
    issued_at = int(time.time()) if issued_at is None else int(issued_at)
    expires_at = issued_at + int(validity) if validity is not None else None
    credential_id = str(uuid.uuid4())
    vc = VerifiableCredential(
        credential_id=credential_id,
        kind=kind,
        issuer=issuer_did,
        subject=subject,
        claims={str(k): str(v) for k, v in claims.items()},
        issued_at=issued_at,
        expires_at=expires_at,
        revocation=(revocation_registry_id, credential_id) if revocation_registry_id else None,
        delegation_chain=chain,
    )
    vc.proof = crypto.ed25519_sign(issuer_key.signing_secret, vc.signing_bytes())
    return vc


def issue_delegation(
    parent_key: KeyPair,
    parent_did: Did | str,
    child_did: Did | str,
    rights,
    parent_chain: list[VerifiableCredential] | None = None,
    validity: int | None = None,
    revocation_registry_id: str | None = None,
) -> VerifiableCredential:
    """Delegate a subset of the parent's rights to a child issuer.

    A root parent (empty chain) holds all rights implicitly. Everyone else
    is bounded by the terminal element of its own chain and additionally
    needs the `delegate` right to pass anything on. The issued credential
    embeds the parent's chain, so the child's future issuances carry the
    full path back to the root.
    """
    parent_did = str(parent_did)
    child_did = str(child_did)
    rights = frozenset(rights)
    if not rights or not rights <= ALL_RIGHTS:
        raise IssuanceError("bad_rights", f"rights must be a non-empty subset of {sorted(ALL_RIGHTS)}")
    parent_chain = list(parent_chain or [])
    effective = chain_rights(parent_chain)
    if parent_chain:
        if parent_chain[-1].subject != parent_did:
            raise IssuanceError(
                "chain_terminal_mismatch",
                "parent chain does not terminate at the delegating DID",
            )
        if RIGHT_DELEGATE not in effective:
            raise IssuanceError("missing_delegate_right", "parent was never granted `delegate`")
    if not rights <= effective:
        raise IssuanceError(
            "rights_escalation",
            f"attempt to delegate {sorted(rights - effective)} beyond {sorted(effective)}",
        )
    return issue_credential(
        issuer_key=parent_key,
        issuer_did=parent_did,
        kind=KIND_DEL,
        subject=child_did,
        claims={"rights": format_rights(rights)},
        validity=validity,
        revocation_registry_id=revocation_registry_id,
        chain=parent_chain,
    )


def build_presentation(
    holder_key: KeyPair,
    holder_did: Did | str,
    creds: list[VerifiableCredential],
    challenge: bytes,
    created_at: int | None = None,
) -> VerifiablePresentation:
    """Bundle credentials under the holder's signature for one challenge."""
    holder_did = str(holder_did)
    if len(challenge) != CHALLENGE_SIZE:
        raise PresentationError(f"challenge must be {CHALLENGE_SIZE} bytes, got {len(challenge)}")
    if not creds:
        raise PresentationError("a presentation needs at least one credential")
    for vc in creds:
        if vc.subject != holder_did:
            raise PresentationError(
                f"credential {vc.credential_id} is bound to {vc.subject}, not the holder"
            )
    vp = VerifiablePresentation(
        holder=holder_did,
        credentials=list(creds),
        challenge=challenge,
        created_at=int(time.time()) if created_at is None else int(created_at),
    )
    vp.proof = crypto.ed25519_sign(holder_key.signing_secret, vp.signing_bytes())
    return vp


# --- verification --------------------------------------------------------------


def _resolved_signing_key(resolver, did_str: str) -> bytes | None:
    """Signing key for a DID, or None when the DID cannot be authenticated.

    Registry outages propagate; a malformed or unregistered DID yields None
    because no signature could ever be attributed to it.
    """
    try:
        return resolver.resolve(did_str).signing_key
    except RegistryUnavailableError:
        raise
    except RegistryError as exc:
        if exc.code == "unknown_did":
            return None
        raise
    except SbaclError:
        # Malformed DID strings land here via IdentityError.
        return None


def verify_delegation_chain(
    vc: VerifiableCredential,
    trusted_roots: frozenset[str],
    resolver,
) -> list[str]:
    """Trace a credential's issuer back to a trusted root.

    Walks the embedded chain from the root end downward checking linkage,
    per-element signatures, monotonically shrinking rights, and that the
    terminal element licenses this credential's kind. A credential with no
    chain is fine exactly when its direct issuer is itself trusted.

    Chain elements are not themselves checked for expiry or revocation;
    revoking a delegation is done by revoking the credentials issued under
    it, and the round-trip oracle in the test suite pins this scope.
    """
    chain = vc.delegation_chain
    if not chain:
        return [] if vc.issuer in trusted_roots else [FAIL_CHAIN_UNTRUSTED]

    failures: list[str] = []
    if chain[0].issuer not in trusted_roots:
        failures.append(FAIL_CHAIN_UNTRUSTED)

    prev_rights: frozenset[str] | None = None
    for index, link in enumerate(chain):
        terminal = index == len(chain) - 1
        if link.kind != KIND_DEL:
            failures.append(FAIL_CHAIN_BROKEN)
            break
        try:
            rights = parse_rights(link.claims.get("rights", ""))
        except ValueError:
            failures.append(FAIL_CHAIN_BROKEN)
            break
        expected_subject = vc.issuer if terminal else chain[index + 1].issuer
        if link.subject != expected_subject:
            failures.append(FAIL_CHAIN_BROKEN)
            break
        key = _resolved_signing_key(resolver, link.issuer)
        if key is None or link.proof is None or not crypto.ed25519_verify(
            key, link.proof, link.signing_bytes()
        ):
            failures.append(FAIL_CHAIN_BROKEN)
            break
        if prev_rights is not None and not rights <= prev_rights:
            failures.append(FAIL_INSUFFICIENT_RIGHTS)
            break
        if not terminal and RIGHT_DELEGATE not in rights:
            failures.append(FAIL_INSUFFICIENT_RIGHTS)
            break
        if terminal and REQUIRED_RIGHT[vc.kind] not in rights:
            failures.append(FAIL_INSUFFICIENT_RIGHTS)
            break
        prev_rights = rights
    return failures


def verify_presentation(
    vp: VerifiablePresentation,
    expected_challenge: bytes,
    policy: TrustPolicy,
    resolver,
    revocation_client=None,
    now: int | None = None,
    expected_holder: str | None = None,
) -> Verdict:
    """Full presentation verification; returns a Verdict, raises only on
    infrastructure faults (registry unreachable, revocation unavailable).

    With `expected_holder`, a presentation that passes every other check
    but was made by someone else fails as subject_mismatch."""
    now = int(time.time()) if now is None else int(now)
    failures: list[str] = []

    holder_key = _resolved_signing_key(resolver, vp.holder)
    if holder_key is None or vp.proof is None or not crypto.ed25519_verify(
        holder_key, vp.proof, vp.signing_bytes()
    ):
        failures.append(FAIL_BAD_VP_SIGNATURE)

    if vp.challenge != expected_challenge:
        failures.append(FAIL_CHALLENGE_MISMATCH)

    for vc in vp.credentials:
        if vc.subject != vp.holder:
            failures.append(FAIL_SUBJECT_MISMATCH)

        issuer_key = _resolved_signing_key(resolver, vc.issuer)
        if issuer_key is None or vc.proof is None or not crypto.ed25519_verify(
            issuer_key, vc.proof, vc.signing_bytes()
        ):
            failures.append(FAIL_BAD_VC_SIGNATURE)

        if vc.expires_at is not None and now > vc.expires_at + policy.clock_skew_tolerance:
            failures.append(FAIL_EXPIRED)

        if policy.require_revocation_check and vc.revocation is not None:
            if revocation_client is None:
                raise RevocationCheckError(
                    "policy requires revocation checking but no revocation client was given"
                )
            registry_id, credential_id = vc.revocation
            status = revocation_client.check_status(registry_id, credential_id)
            if status == "revoked":
                failures.append(FAIL_REVOKED)

        failures.extend(verify_delegation_chain(vc, policy.trusted_roots, resolver))

    if not failures and expected_holder is not None and vp.holder != expected_holder:
        failures.append(FAIL_SUBJECT_MISMATCH)
    return Verdict.from_failures(failures)


def evaluate_authorization(
    authz_claims: list[dict[str, str]],
    requested: tuple[str, str, str],
) -> bool:
    """Decide one access request against verified AuthZ claims.

    `requested` is (producer NF type, service name, operation). A claims set
    grants it when producer and service match (exactly or by `*`) and the
    operation is in the comma-set `ops` (or ops is `*`). Call this only with
    claims from presentations that already passed verify_presentation.
    """
    producer, service, operation = requested
    for claims in authz_claims:
        if claims.get("producer") not in ("*", producer):
            continue
        if claims.get("service") not in ("*", service):
            continue
        ops = claims.get("ops", "")
        if ops == "*" or operation in {part.strip() for part in ops.split(",")}:
            return True
    return False
