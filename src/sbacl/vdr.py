"""The verifiable data registry: DID-document versions and revocation state.

One trusted service with two stores. DID records are append-only version
lists where every new version must be signed by the key it replaces, which
is what makes updates owner-controlled without the registry holding any
secrets. Revocation registries are monotonic credential-id sets writable
only by their issuer.

Each accepted write is appended to a JSON-lines log, which is opened for
that one write and closed again; a restarted registry replays the log
through the same validation paths, so a corrupted or hand-edited log is
rejected rather than trusted.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import crypto
from .encoding import JsonLines, b58encode, b64u_decode, b64u_encode, canonical_json, sha256
from .errors import RegistryError, UnknownDidError
from .identity import (
    Did,
    DidDocument,
    SignedDocumentUpdate,
    document_hash,
    extract_peer_document,
    parse_did,
)


def revocation_request_bytes(issuer: str, nonce: bytes) -> bytes:
    """Canonical signing target for creating a revocation registry."""
    return canonical_json({"issuer": issuer, "nonce": b64u_encode(nonce)})


def revoke_request_bytes(registry_id: str, credential_id: str) -> bytes:
    """Canonical signing target for one revocation."""
    return canonical_json({"credentialId": credential_id, "registryId": registry_id})


@dataclass
class RevocationRegistry:
    registry_id: str
    issuer: str
    revoked: set[str] = field(default_factory=set)
    updated_at: int = 0


class Registry:
    """In-process registry; the HTTP layer wraps this same object."""

    def __init__(self, log_path: str | Path | None = None):
        self._records: dict[str, list[SignedDocumentUpdate]] = {}
        self._revregs: dict[str, RevocationRegistry] = {}
        self._lock = threading.RLock()
        self._log = JsonLines(log_path)
        for line_no, line in self._log.lines():
            try:
                self._apply(json.loads(line))
            except (ValueError, KeyError, RegistryError) as exc:
                raise RegistryError(
                    "corrupt_log", f"log line {line_no} failed replay: {exc}"
                ) from exc

    # -- persistence ----------------------------------------------------------

    def _apply(self, event: dict) -> None:
        kind = event["event"]
        if kind == "register":
            self.register(SignedDocumentUpdate.from_dict(event["update"]), _record=False)
        elif kind == "update":
            self.update(SignedDocumentUpdate.from_dict(event["update"]), _record=False)
        elif kind == "create_revreg":
            self.create_revocation_registry(
                event["issuer"],
                b64u_decode(event["nonce"]),
                b64u_decode(event["signature"]),
                _record=False,
            )
        elif kind == "revoke":
            self.revoke(
                event["registryId"],
                event["credentialId"],
                b64u_decode(event["signature"]),
                _record=False,
            )
        else:
            raise RegistryError("corrupt_log", f"unknown event kind {kind!r}")

    # -- DID records -----------------------------------------------------------

    def register(self, update: SignedDocumentUpdate, _record: bool = True) -> None:
        doc = update.document
        if doc.did.method != "registry":
            raise RegistryError("bad_request", "only registry DIDs can be registered")
        if doc.version != 1:
            raise RegistryError("bad_version", "registration requires document version 1")
        if doc.prev_version_hash is not None:
            raise RegistryError("bad_request", "version 1 must not carry a prev hash")
        expected_id = b58encode(sha256(doc.signing_key)[:16])
        if doc.did.identifier != expected_id:
            raise RegistryError("bad_request", "identifier is not the signing-key fingerprint")
        if not crypto.ed25519_verify(doc.signing_key, update.signature, doc.canonical_bytes()):
            raise RegistryError("bad_signature", "self-signature does not verify")
        with self._lock:
            key = str(doc.did)
            if key in self._records:
                raise RegistryError("already_exists", f"{key} is already registered")
            self._records[key] = [update]
            if _record:
                self._log.append({"event": "register", "update": update.to_dict()})

    def update(self, update: SignedDocumentUpdate, _record: bool = True) -> None:
        doc = update.document
        with self._lock:
            versions = self._records.get(str(doc.did))
            if versions is None:
                raise UnknownDidError(str(doc.did))
            latest = versions[-1].document
            if doc.version != latest.version + 1:
                raise RegistryError(
                    "version_gap",
                    f"expected version {latest.version + 1}, got {doc.version}",
                )
            if doc.prev_version_hash != document_hash(latest):
                raise RegistryError("hash_mismatch", "prev hash does not match latest version")
            if not crypto.ed25519_verify(latest.signing_key, update.signature,
                                         doc.canonical_bytes()):
                raise RegistryError("bad_signature", "update not signed by the current key")
            versions.append(update)
            if _record:
                self._log.append({"event": "update", "update": update.to_dict()})

    def resolve_did(self, did: Did | str) -> DidDocument:
        with self._lock:
            versions = self._records.get(str(did))
            if versions is None:
                raise UnknownDidError(str(did))
            return versions[-1].document

    def versions(self, did: Did | str) -> list[SignedDocumentUpdate]:
        with self._lock:
            versions = self._records.get(str(did))
            if versions is None:
                raise UnknownDidError(str(did))
            return list(versions)

    def _signing_key_of(self, did_str: str) -> bytes:
        did = parse_did(did_str)
        if did.method == "peer":
            return extract_peer_document(did).signing_key
        with self._lock:
            versions = self._records.get(did_str)
        if versions is None:
            raise UnknownDidError(did_str)
        return versions[-1].document.signing_key

    # -- revocation registries ---------------------------------------------------

    def create_revocation_registry(
        self, issuer: str, nonce: bytes, signature: bytes, _record: bool = True
    ) -> str:
        issuer_key = self._signing_key_of(issuer)
        if not crypto.ed25519_verify(issuer_key, signature,
                                     revocation_request_bytes(issuer, nonce)):
            raise RegistryError("bad_signature", "creation request not signed by issuer")
        registry_id = sha256(revocation_request_bytes(issuer, nonce)).hex()
        with self._lock:
            if registry_id in self._revregs:
                raise RegistryError("already_exists", "identical creation request replayed")
            self._revregs[registry_id] = RevocationRegistry(
                registry_id=registry_id, issuer=issuer, updated_at=int(time.time())
            )
            if _record:
                self._log.append({
                    "event": "create_revreg",
                    "issuer": issuer,
                    "nonce": b64u_encode(nonce),
                    "signature": b64u_encode(signature),
                })
        return registry_id

    def revoke(
        self, registry_id: str, credential_id: str, signature: bytes, _record: bool = True
    ) -> None:
        with self._lock:
            reg = self._revregs.get(registry_id)
        if reg is None:
            raise RegistryError("unknown_registry", f"no revocation registry {registry_id}")
        issuer_key = self._signing_key_of(reg.issuer)
        if not crypto.ed25519_verify(issuer_key, signature,
                                     revoke_request_bytes(registry_id, credential_id)):
            raise RegistryError("not_issuer", "revocation not signed by the registry issuer")
        with self._lock:
            # Re-revoking is an idempotent success: the set only grows.
            reg.revoked.add(credential_id)
            reg.updated_at = int(time.time())
            if _record:
                self._log.append({
                    "event": "revoke",
                    "registryId": registry_id,
                    "credentialId": credential_id,
                    "signature": b64u_encode(signature),
                })

    def check_status(self, registry_id: str, credential_id: str) -> str:
        with self._lock:
            reg = self._revregs.get(registry_id)
            if reg is None:
                raise RegistryError("unknown_registry", f"no revocation registry {registry_id}")
            return "revoked" if credential_id in reg.revoked else "active"
