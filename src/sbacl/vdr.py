"""The verifiable data registry: DID-document versions and revocation state.

One service with two stores. DID records are append-only version lists
where every new version must pass `identity.check_successor`, which every
reader checks again, so updates are owner-controlled without the registry
holding any secrets. Revocation registries are monotonic credential-id
sets writable only by their issuer.

Each accepted write is appended to a JSON-lines log, which is opened for
that one write and closed again; a restarted registry replays the log
through the same validation paths, so a corrupted or hand-edited log is
rejected rather than trusted.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

from . import crypto
from .encoding import JsonLines, b64u_decode, b64u_encode, canonical_json, sha256
from .errors import RegistryError, UnknownDidError
from .identity import SignedDocumentUpdate, check_successor


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


class Registry:
    """In-process registry; the HTTP layer wraps this same object."""

    def __init__(self, log_path: str | Path | None = None):
        self._records: dict[str, list[SignedDocumentUpdate]] = {}
        self._revregs: dict[str, RevocationRegistry] = {}
        self._lock = threading.RLock()
        # Replay through the public methods while the log drops appends,
        # then attach the real log.
        self._log = JsonLines(None)
        log = JsonLines(log_path)
        for line_no, line in log.lines():
            try:
                self._apply(json.loads(line))
            except (ValueError, KeyError, RegistryError) as exc:
                raise RegistryError(
                    "corrupt_log", f"log line {line_no} failed replay: {exc}"
                ) from exc
        self._log = log

    # -- persistence ----------------------------------------------------------

    def _apply(self, event: dict) -> None:
        kind = event["event"]
        if kind == "register":
            self.register(SignedDocumentUpdate.from_dict(event["update"]))
        elif kind == "update":
            self.update(SignedDocumentUpdate.from_dict(event["update"]))
        elif kind == "create_revreg":
            self.create_revocation_registry(
                event["issuer"],
                b64u_decode(event["nonce"]),
                b64u_decode(event["signature"]),
            )
        elif kind == "revoke":
            self.revoke(
                event["registryId"],
                event["credentialId"],
                b64u_decode(event["signature"]),
            )
        else:
            raise RegistryError("corrupt_log", f"unknown event kind {kind!r}")

    # -- DID records -----------------------------------------------------------

    def register(self, update: SignedDocumentUpdate) -> None:
        check_successor(None, update)
        with self._lock:
            key = update.document.did
            if key in self._records:
                raise RegistryError("already_exists", f"{key} is already registered")
            self._records[key] = [update]
            self._log.append({"event": "register", "update": update.to_dict()})

    def update(self, update: SignedDocumentUpdate) -> None:
        with self._lock:
            versions = self._history(update.document.did)
            check_successor(versions[-1].document, update)
            versions.append(update)
            self._log.append({"event": "update", "update": update.to_dict()})

    def resolve_did(self, did: str) -> list[SignedDocumentUpdate]:
        """The DID's signed version history, oldest first."""
        with self._lock:
            return list(self._history(did))

    def _history(self, did: str) -> list[SignedDocumentUpdate]:
        versions = self._records.get(did)
        if versions is None:
            raise UnknownDidError(did)
        return versions

    def _signing_key_of(self, did: str) -> bytes:
        with self._lock:
            return self._history(did)[-1].document.signing_key

    # -- revocation registries ---------------------------------------------------

    def create_revocation_registry(self, issuer: str, nonce: bytes, signature: bytes) -> str:
        issuer_key = self._signing_key_of(issuer)
        if not crypto.ed25519_verify(issuer_key, signature,
                                     revocation_request_bytes(issuer, nonce)):
            raise RegistryError("bad_signature", "creation request not signed by issuer")
        registry_id = sha256(revocation_request_bytes(issuer, nonce)).hex()
        with self._lock:
            if registry_id in self._revregs:
                raise RegistryError("already_exists", "identical creation request replayed")
            self._revregs[registry_id] = RevocationRegistry(registry_id=registry_id, issuer=issuer)
            self._log.append({
                "event": "create_revreg",
                "issuer": issuer,
                "nonce": b64u_encode(nonce),
                "signature": b64u_encode(signature),
            })
        return registry_id

    def revoke(self, registry_id: str, credential_id: str, signature: bytes) -> None:
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
            self._log.append({
                "event": "revoke",
                "registryId": registry_id,
                "credentialId": credential_id,
                "signature": b64u_encode(signature),
            })

    def check_status(self, registry_id: str, credential_ids) -> dict[str, str]:
        """`{credential_id: "active" | "revoked"}` for each id, in one read."""
        with self._lock:
            reg = self._revregs.get(registry_id)
            if reg is None:
                raise RegistryError("unknown_registry", f"no revocation registry {registry_id}")
            return {cid: "revoked" if cid in reg.revoked else "active" for cid in credential_ids}
