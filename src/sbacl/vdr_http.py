"""HTTP face of the registry and the matching client.

The client mirrors the in-process `Registry` surface exactly, so everything
above this layer (resolvers, IPMFs, sidecars) works against either without
knowing which it holds.
"""

from __future__ import annotations

import json

from .encoding import b64u_decode, b64u_encode
from .errors import IdentityError, RegistryError, RegistryUnavailableError
from .identity import SignedDocumentUpdate
from .httputil import HTTP_ERRORS, HttpClient, HttpService, QuietHandler
from .vdr import Registry

_STATUS_BY_CODE = {
    "bad_request": 400,
    "bad_version": 400,
    "bad_signature": 403,
    "not_issuer": 403,
    "unknown_did": 404,
    "unknown_registry": 404,
    "already_exists": 409,
    "version_gap": 409,
    "hash_mismatch": 409,
}


def _make_handler(registry: Registry):
    class RegistryHandler(QuietHandler):
        def _dispatch(self) -> None:
            try:
                self._route(self.command)
            except RegistryError as exc:
                status = _STATUS_BY_CODE.get(exc.code, 400)
                self.send_json(status, {"error": exc.code, "message": str(exc)})
            except (ValueError, KeyError, TypeError, IdentityError) as exc:
                self.send_json(400, {"error": "bad_request", "message": str(exc)})

        def _route(self, method: str) -> None:
            parts = [p for p in self.path.split("/") if p]
            if method == "POST" and parts == ["dids"]:
                update = SignedDocumentUpdate.from_dict(json.loads(self.read_body()))
                registry.register(update)
                self.send_json(201, {"ok": True})
            elif method == "PUT" and len(parts) == 2 and parts[0] == "dids":
                update = SignedDocumentUpdate.from_dict(json.loads(self.read_body()))
                if update.document.did != parts[1]:
                    raise RegistryError("bad_request", "path DID does not match body")
                registry.update(update)
                self.send_json(200, {"ok": True})
            elif method == "GET" and len(parts) == 2 and parts[0] == "dids":
                history = registry.resolve_did(parts[1])
                self.send_json(200, {"versions": [v.to_dict() for v in history]})
            elif method == "POST" and len(parts) == 3 \
                    and parts[0] == "revocation-registries" and parts[2] == "revocations":
                body = json.loads(self.read_body())
                registry.revoke(parts[1], body["credentialId"], b64u_decode(body["signature"]))
                self.send_json(200, {"ok": True})
            elif method == "POST" and len(parts) == 3 \
                    and parts[0] == "revocation-registries" and parts[2] == "status":
                ids = json.loads(self.read_body())["credentialIds"]
                if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
                    raise ValueError("credentialIds must be a list of strings")
                self.send_json(200, {"statuses": registry.check_status(parts[1], ids)})
            else:
                self.send_json(404, {"error": "not_found", "message": self.path})

        # Other methods keep the stdlib's 501.
        do_GET = do_POST = do_PUT = _dispatch

    return RegistryHandler


class RegistryServer(HttpService):
    def __init__(self, registry: Registry | None = None, host: str = "127.0.0.1", port: int = 0):
        self.registry = registry if registry is not None else Registry()
        super().__init__(_make_handler(self.registry), host, port)


class RegistryHttpClient:
    """Same call surface as `Registry`, spoken over HTTP."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self._http = HttpClient(timeout)

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        try:
            status, _, data = self._http.request(
                method, self.base_url + path, body, {"Content-Type": "application/json"}
            )
        except HTTP_ERRORS as exc:
            raise RegistryUnavailableError(f"registry at {self.base_url}: {exc}") from exc
        if status >= 400:
            try:
                error = json.loads(data)
                raise RegistryError(error["error"], error.get("message", ""))
            except (ValueError, KeyError):
                raise RegistryError("http_error", f"HTTP {status}") from None
        return json.loads(data)

    def register(self, update: SignedDocumentUpdate) -> None:
        self._request("POST", "/dids", update.to_dict())

    def update(self, update: SignedDocumentUpdate) -> None:
        self._request("PUT", f"/dids/{update.document.did}", update.to_dict())

    def resolve_did(self, did: str) -> list[SignedDocumentUpdate]:
        body = self._request("GET", f"/dids/{did}")
        versions = body.get("versions") if isinstance(body, dict) else None
        if not isinstance(versions, list):
            raise IdentityError(f"registry answered {did} with no version list")
        return [SignedDocumentUpdate.from_dict(v) for v in versions]

    def revoke(self, registry_id: str, credential_id: str, signature: bytes) -> None:
        self._request("POST", f"/revocation-registries/{registry_id}/revocations", {
            "credentialId": credential_id,
            "signature": b64u_encode(signature),
        })

    def check_status(self, registry_id: str, credential_ids) -> dict[str, str]:
        body = self._request("POST", f"/revocation-registries/{registry_id}/status",
                             {"credentialIds": list(credential_ids)})
        return body["statuses"]
