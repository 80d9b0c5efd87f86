"""Key pairs, DIDs, DID documents, and resolution.

A DID is a plain string, `did:svdr:` plus the base58 fingerprint of its
initial signing key. Its document lives in the registry and evolves
through signed, hash-chained versions, so its owner can rotate keys
without anyone re-issuing anything.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, replace

from . import crypto
from .encoding import b58decode, b58encode, b64u_decode, b64u_encode, canonical_json, sha256
from .errors import IdentityError, RegistryError, RegistryUnavailableError

log = logging.getLogger(__name__)

REGISTRY_PREFIX = "did:svdr:"

DEFAULT_CACHE_MAX_AGE = 300.0
# After a failed registry fetch, a DID with a stale copy is not fetched again
# for this many times the failed fetch's duration: a registry that hangs for
# its client's whole timeout costs each DID at most one wait in three.
OUTAGE_BACKOFF = 2.0


@dataclass(frozen=True)
class KeyPair:
    """Raw 32-byte key material for one identity.

    Signing (Ed25519) and agreement (X25519) halves are independent pairs;
    nothing in the package ever converts one into the other.
    """

    signing_public: bytes
    signing_secret: bytes
    agreement_public: bytes
    agreement_secret: bytes


def generate_keypair(seed: bytes | None = None) -> KeyPair:
    """Create a key pair, deterministically when a 32-byte seed is given.

    The two secrets are derived from the seed through HKDF with distinct
    labels, so a seed never yields correlated signing and agreement keys.
    """
    if seed is not None and len(seed) != 32:
        raise IdentityError(f"seed must be exactly 32 bytes, got {len(seed)}")
    if seed is None:
        signing_secret = crypto.ed25519_generate_seed()
        agreement_secret = crypto.x25519_generate_secret()
    else:
        signing_secret = crypto.hkdf_sha256(seed, b"sbacl/keypair/signing")
        agreement_secret = crypto.hkdf_sha256(seed, b"sbacl/keypair/agreement")
    return KeyPair(
        signing_public=crypto.ed25519_public_from_seed(signing_secret),
        signing_secret=signing_secret,
        agreement_public=crypto.x25519_public_from_secret(agreement_secret),
        agreement_secret=agreement_secret,
    )


def parse_did(text: str) -> str:
    """`text` when it is `did:svdr:` plus base58; any other DID raises."""
    if not isinstance(text, str) or not text.startswith(REGISTRY_PREFIX):
        raise IdentityError(f"not a registry DID: {text!r}")
    identifier = text[len(REGISTRY_PREFIX):]
    if not identifier:
        raise IdentityError(f"empty DID identifier: {text!r}")
    try:
        b58decode(identifier)
    except ValueError as exc:
        raise IdentityError(f"DID identifier is not base58: {text!r}") from exc
    return text


@dataclass(frozen=True)
class DidDocument:
    """One version of the public record for a DID."""

    did: str
    version: int
    signing_key: bytes
    agreement_key: bytes
    service_endpoint: str | None = None
    prev_version_hash: bytes | None = None

    def to_dict(self) -> dict:
        out = {
            "id": self.did,
            "version": self.version,
            "signingKey": b64u_encode(self.signing_key),
            "agreementKey": b64u_encode(self.agreement_key),
        }
        if self.service_endpoint is not None:
            out["serviceEndpoint"] = self.service_endpoint
        if self.prev_version_hash is not None:
            out["prevVersionHash"] = b64u_encode(self.prev_version_hash)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DidDocument":
        try:
            return cls(
                did=parse_did(data["id"]),
                version=int(data["version"]),
                signing_key=b64u_decode(data["signingKey"]),
                agreement_key=b64u_decode(data["agreementKey"]),
                service_endpoint=data.get("serviceEndpoint"),
                prev_version_hash=(
                    b64u_decode(data["prevVersionHash"]) if "prevVersionHash" in data else None
                ),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise IdentityError(f"malformed DID document: {exc}") from exc

    def canonical_bytes(self) -> bytes:
        return canonical_json(self.to_dict())


def document_hash(doc: DidDocument) -> bytes:
    return sha256(doc.canonical_bytes())


def _did_of(signing_key: bytes) -> str:
    return REGISTRY_PREFIX + b58encode(sha256(signing_key)[:16])


def create_registry_did(kp: KeyPair, endpoint: str | None = None) -> tuple[str, DidDocument]:
    """Derive a registry-anchored DID and its initial (unregistered) document.

    The identifier fingerprints only the signing key, so later rotations
    never change the DID string.
    """
    did = _did_of(kp.signing_public)
    doc = DidDocument(did=did, version=1, signing_key=kp.signing_public,
                      agreement_key=kp.agreement_public, service_endpoint=endpoint)
    return did, doc


@dataclass(frozen=True)
class SignedDocumentUpdate:
    """A new document version plus the authorizing signature.

    The signature is always by the signing key of the version being
    superseded; for version 1 it is a self-signature.
    """

    document: DidDocument
    signature: bytes

    def to_dict(self) -> dict:
        return {"document": self.document.to_dict(), "signature": b64u_encode(self.signature)}

    @classmethod
    def from_dict(cls, data: dict) -> "SignedDocumentUpdate":
        try:
            return cls(
                document=DidDocument.from_dict(data["document"]),
                signature=b64u_decode(data["signature"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IdentityError(f"malformed document update: {exc}") from exc


def self_sign_document(doc: DidDocument, kp: KeyPair) -> SignedDocumentUpdate:
    """Sign a version-1 document with its own key, ready for registration."""
    if doc.version != 1:
        raise IdentityError("self-signing applies to version 1 only")
    return SignedDocumentUpdate(doc, crypto.ed25519_sign(kp.signing_secret, doc.canonical_bytes()))


def rotate_document(
    current: DidDocument,
    new_keys: KeyPair,
    sign_with: bytes,
    service_endpoint: str | None = None,
) -> SignedDocumentUpdate:
    """Build the next document version, authorized by the current signing key.

    `sign_with` is the secret half of `current.signing_key`; the registry
    checks the produced signature against that public key, which is what
    makes rotation owner-controlled.
    """
    doc = replace(
        current,
        version=current.version + 1,
        signing_key=new_keys.signing_public,
        agreement_key=new_keys.agreement_public,
        service_endpoint=service_endpoint if service_endpoint is not None else current.service_endpoint,
        prev_version_hash=document_hash(current),
    )
    return SignedDocumentUpdate(doc, crypto.ed25519_sign(sign_with, doc.canonical_bytes()))


def publish_document(registry, resolver, keys: KeyPair, endpoint: str | None) -> DidDocument:
    """Register the DID of `keys` on first run; republish it on a restart.

    A restarted service usually binds a fresh port, so the same identity
    needs a new document version for the new endpoint even though its keys
    are unchanged. A document that already names this key and endpoint is
    reused as it is.
    """
    did, doc = create_registry_did(keys, endpoint)
    try:
        registry.register(self_sign_document(doc, keys))
        return doc
    except RegistryError as exc:
        if exc.code != "already_exists":
            raise
    latest = resolver.refresh(did)
    if latest.signing_key == keys.signing_public and latest.service_endpoint == endpoint:
        return latest
    update = rotate_document(latest, keys, keys.signing_secret, service_endpoint=endpoint)
    registry.update(update)
    return update.document


def check_successor(prev: DidDocument | None, update: SignedDocumentUpdate) -> None:
    """The version rule: with no `prev`, `update` is a version 1 whose DID
    fingerprints its signing key and which that key signed; otherwise it
    names `prev`'s DID, is numbered one past it, carries its hash and is
    signed by its key. Raises `RegistryError` naming the failed check."""
    doc = update.document
    if prev is None:
        if doc.version != 1:
            raise RegistryError("bad_version", f"a history starts at version 1, not {doc.version}")
        if doc.prev_version_hash is not None:
            raise RegistryError("bad_request", "version 1 must not carry a prev hash")
        if doc.did != _did_of(doc.signing_key):
            raise RegistryError("bad_request", "DID is not the registry fingerprint of its key")
    elif doc.did != prev.did:
        raise RegistryError("bad_request", f"version {doc.version} names {doc.did}, not {prev.did}")
    elif doc.version != prev.version + 1:
        raise RegistryError("version_gap", f"expected version {prev.version + 1}, got {doc.version}")
    elif doc.prev_version_hash != document_hash(prev):
        raise RegistryError("hash_mismatch", f"version {doc.version} misses its predecessor's hash")
    signer = (prev or doc).signing_key
    if not crypto.ed25519_verify(signer, update.signature, doc.canonical_bytes()):
        raise RegistryError("bad_signature", f"version {doc.version} is not signed by "
                                             f"{'the key it supersedes' if prev else 'its own key'}")


def verify_document_chain(history: list[SignedDocumentUpdate],
                          verified: DidDocument | None = None) -> DidDocument:
    """The latest document of a signed history, each step checked by
    `check_successor`. `verified`, a version checked before, must appear
    unchanged at its place, so a history never goes back behind it; only
    the versions after it are checked."""
    start = 0 if verified is None else verified.version
    if len(history) < max(start, 1):
        raise RegistryError("bad_version", f"history ends before version {max(start, 1)}")
    if verified is not None and history[start - 1].document != verified:
        raise RegistryError("hash_mismatch", f"version {start} differs from the one verified")
    latest = verified
    for update in history[start:]:
        check_successor(latest, update)
        latest = update.document
    return latest


class ResolutionCache:
    """Time-bounded DID document cache, safe for concurrent readers."""

    def __init__(self, max_age: float = DEFAULT_CACHE_MAX_AGE):
        self.max_age = max_age
        self._entries: dict[str, tuple[DidDocument, float | None]] = {}
        self._lock = threading.Lock()

    def get(self, did: str, now: float | None = None) -> DidDocument | None:
        """The cached document, or None when absent, expired or older than `max_age`."""
        now = time.time() if now is None else now
        with self._lock:
            doc, stamp = self._entries.get(did, (None, None))
        return doc if stamp is not None and now - stamp <= self.max_age else None

    def last(self, did: str) -> DidDocument | None:
        """The cached document however old, even expired, or None when absent."""
        with self._lock:
            return self._entries.get(did, (None, None))[0]

    def put(self, doc: DidDocument, now: float | None = None) -> None:
        """Keep `doc` unless a later version is held; refreshes can finish out of order."""
        now = time.time() if now is None else now
        with self._lock:
            held = self._entries.get(doc.did)
            if held is None or held[0].version <= doc.version:
                self._entries[doc.did] = (doc, now)

    def expire(self, did: str) -> None:
        """Make `get` miss until the next `put`, keeping the copy for `last`."""
        with self._lock:
            if did in self._entries:
                self._entries[did] = (self._entries[did][0], None)


class Resolver:
    """The one place DID documents and revocation status are read from.

    A DID is served from the cache while younger than `max_age`, otherwise
    its history is
    fetched from `registry_client`, which also answers revocation status
    checks, and must extend the cached copy under `verify_document_chain`,
    or it is refused as `unknown_did`. When the registry cannot be reached,
    a cached copy of any age is kept, and `resolve` serves it without
    asking again until the `OUTAGE_BACKOFF` hold-off has passed."""

    def __init__(self, registry_client=None, max_age: float = DEFAULT_CACHE_MAX_AGE):
        self.registry_client = registry_client
        self.cache = ResolutionCache(max_age)
        self._retry_at: dict[str, float] = {}  # DID -> monotonic end of its hold-off

    def resolve(self, did: str) -> DidDocument:
        """The DID's current document, from the cache when fresh enough."""
        doc = self.cache.get(did)
        if doc is None and time.monotonic() < self._retry_at.get(did, 0.0):
            doc = self.cache.last(did)
        return doc if doc is not None else self.refresh(did)

    def refresh(self, did: str) -> DidDocument:
        """Fetch and check the DID's current document, regardless of the
        cached copy's age. A registry outage keeps any cached copy."""
        parse_did(did)
        if self.registry_client is None:
            raise IdentityError(f"DID {did} needs a registry client to resolve")
        started = time.monotonic()
        cached = self.cache.last(did)
        try:
            history = self.registry_client.resolve_did(did)
        except RegistryUnavailableError as exc:
            if cached is None:
                raise
            failed = time.monotonic()
            self._retry_at[did] = failed + OUTAGE_BACKOFF * (failed - started)
            log.warning("keeping stale document for %s: %s", did, exc)
            return cached
        try:
            doc = verify_document_chain(history, cached)
            if doc.did != did:
                raise RegistryError("bad_request", f"the history is of {doc.did}")
        except RegistryError as exc:
            raise RegistryError("unknown_did", f"{did} history refused: {exc.code}: {exc}") from exc
        self._retry_at.pop(did, None)
        self.cache.put(doc)
        return doc
