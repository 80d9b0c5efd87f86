"""The verifiable data registry: DID-document versions and revocation state.

One service with two stores. DID records are append-only version lists
where every new version must pass `identity.check_successor`, which every
reader checks again, so updates are owner-controlled without the registry
holding any secrets. Every registered DID is also its own revocation
registry: a monotonic set of credential ids that only revocations signed
by the DID's current key can grow.

Each accepted write is appended to a JSON-lines log, which is opened for
that one write and closed again; a restarted registry replays the log
through the same validation paths, so a corrupted or hand-edited log is
rejected rather than trusted.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from . import crypto
from .encoding import JsonLines, b64u_decode, b64u_encode, canonical_json
from .errors import RegistryError
from .identity import SignedDocumentUpdate, check_successor


def revoke_request_bytes(registry_id: str, credential_id: str) -> bytes:
    """Canonical signing target for one revocation."""
    return canonical_json({"credentialId": credential_id, "registryId": registry_id})


class Registry:
    """In-process registry; the HTTP layer wraps this same object."""

    def __init__(self, log_path: str | Path | None = None):
        self._records: dict[str, list[SignedDocumentUpdate]] = {}
        self._revoked: dict[str, set[str]] = {}
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
            raise RegistryError("unknown_did", f"no record for {did}")
        return versions

    # -- revocation: each registered DID is the registry of what it issued ------

    def revoke(self, registry_id: str, credential_id: str, signature: bytes) -> None:
        with self._lock:
            versions = self._records.get(registry_id)
        if versions is None:
            raise RegistryError("unknown_registry", f"{registry_id} is not a registered DID")
        if not crypto.ed25519_verify(versions[-1].document.signing_key, signature,
                                     revoke_request_bytes(registry_id, credential_id)):
            raise RegistryError("not_issuer", "revocation not signed by the registry issuer")
        with self._lock:
            # Re-revoking is an idempotent success: the set only grows.
            self._revoked.setdefault(registry_id, set()).add(credential_id)
            self._log.append({
                "event": "revoke",
                "registryId": registry_id,
                "credentialId": credential_id,
                "signature": b64u_encode(signature),
            })

    def check_status(self, registry_id: str, credential_ids) -> dict[str, str]:
        """`{credential_id: "active" | "revoked"}` for each id, in one read."""
        with self._lock:
            if registry_id not in self._records:
                raise RegistryError("unknown_registry", f"{registry_id} is not a registered DID")
            revoked = self._revoked.get(registry_id, ())
            return {cid: "revoked" if cid in revoked else "active" for cid in credential_ids}
