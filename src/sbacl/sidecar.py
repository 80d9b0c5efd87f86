"""The per-NF sidecar: interception, handshakes, tunneling, enforcement.

One process holds three cooperating pieces. The intercept listener takes
plain HTTP from the local NF, derives the target DID from the route table,
and tunnels the request to the peer sidecar inside envelopes. The peer
endpoint receives envelopes, feeds protocol messages to the handshake
responder, and forwards authorized tunnel requests to the local NF. The
association store remembers which peers are established so a restart does
not repeat handshakes.

Authorization is enforced where it matters: on the producer side, per
inbound request, against the AuthZ claims the consumer presented during the
handshake. A denied request is answered with a 403-equivalent tunnel
response and the local NF never sees it.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
import uuid
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

from .credentials import (
    KIND_AUTHN,
    KIND_AUTHZ,
    TrustPolicy,
    VerifiableCredential,
    build_presentation,
    evaluate_authorization,
)
from .encoding import JsonLines, b64u_decode, b64u_encode
from .envelope import (
    MSG_REHANDSHAKE,
    MSG_TUNNEL_REQUEST,
    MSG_TUNNEL_RESPONSE,
    ProtocolMessage,
)
from .envelope_http import EnvelopeChannel, EnvelopeHttpServer
from .errors import (
    HandshakeRejectedError,
    PeerUnreachableError,
    ProtocolError,
    RegistryUnavailableError,
    StalePeerKeyError,
)
from .httputil import HTTP_ERRORS, HttpClient, HttpService, QuietHandler
from .identity import (
    KeyPair,
    Resolver,
    create_registry_did,
    generate_keypair,
    publish_document,
    rotate_document,
)
from .protocols import (
    HandshakeProfile,
    HandshakeResponder,
    HandshakeSession,
    producer_authz_gate,
    run_handshake,
)

log = logging.getLogger(__name__)

# Headers that belong to one hop and must not be tunneled.
HOP_HEADERS = frozenset({
    "connection", "keep-alive", "proxy-authenticate", "proxy-authorization",
    "te", "trailer", "transfer-encoding", "upgrade", "host", "content-length",
})


@dataclass(frozen=True)
class RouteRule:
    """Maps an intercepted request to a peer DID, first match wins."""

    host: str
    target_did: str
    path_prefix: str = "/"
    service: str = ""

    def matches(self, host: str, path: str) -> bool:
        return host.lower() == self.host.lower() and path.startswith(self.path_prefix)


@dataclass(frozen=True)
class LocalService:
    """Names one of the local NF's services by path prefix, for enforcement."""

    name: str
    path_prefix: str


@dataclass
class Association:
    peer: str
    direction: str  # "outbound" | "inbound"
    established: bool = False
    authz_claims: list[dict] = dc_field(default_factory=list)
    created_at: int = dc_field(default_factory=lambda: int(time.time()))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Association":
        return cls(
            peer=data["peer"],
            direction=data["direction"],
            established=bool(data["established"]),
            authz_claims=list(data.get("authz_claims", [])),
            created_at=int(data.get("created_at", 0)),
        )


class AssociationStore(JsonLines):
    """One record per association state change.

    Loading takes the last record per (peer, direction). A corrupt file is
    treated as absent: the sidecar starts with no associations and logs a
    warning, because guessing at partial state would be worse.
    """

    def load(self) -> dict[tuple[str, str], Association]:
        try:
            records = [Association.from_dict(json.loads(line)) for _, line in self.lines()]
        except (ValueError, KeyError, TypeError) as exc:
            log.warning("association store %s is corrupt (%s); starting empty",
                        self.path, exc)
            return {}
        return {(assoc.peer, assoc.direction): assoc for assoc in records}

    def append(self, assoc: Association) -> None:
        super().append(assoc.to_dict())


class Sidecar:
    """The proxy guarding one NF."""

    def __init__(
        self,
        name: str,
        nf_type: str,
        registry,
        local_nf_url: str,
        trusted_roots,
        routes: list[RouteRule] | None = None,
        local_services: list[LocalService] | None = None,
        keys: KeyPair | None = None,
        association_store: str | Path | None = None,
        cache_max_age: float = 300.0,
        refresh_enabled: bool = True,
        require_revocation_check: bool = True,
        session_timeout: float = 10.0,
    ):
        self.name = name
        self.nf_type = nf_type
        self.registry = registry
        self.local_nf_url = local_nf_url.rstrip("/")
        self.routes = list(routes or [])
        self.local_services = list(local_services or [])
        self.keys = keys if keys is not None else generate_keypair()
        self.resolver = Resolver(registry)
        self.trust = TrustPolicy(
            trusted_roots=frozenset(str(r) for r in trusted_roots),
            require_revocation_check=require_revocation_check,
        )
        self.cache_max_age = cache_max_age
        self.refresh_enabled = refresh_enabled
        self.session_timeout = session_timeout

        did, self.current_doc = create_registry_did(self.keys)
        self.did = str(did)

        self.authn_creds: list[VerifiableCredential] = []
        self.authz_creds: list[VerifiableCredential] = []

        self._store = AssociationStore(association_store)
        self.associations: dict[tuple[str, str], Association] = self._store.load()
        self._assoc_lock = threading.Lock()
        self._handshake_locks: dict[str, threading.Lock] = {}

        self._channels: dict[str, EnvelopeChannel] = {}

        self.peer_server: EnvelopeHttpServer | None = None
        self.intercept_server: HttpService | None = None
        self.handshakes_initiated = 0
        self._local_http = HttpClient(session_timeout)

        self.responder = HandshakeResponder(
            profile=HandshakeProfile(
                local_did=self.did,
                trust=self.trust,
                resolver=self.resolver,
                revocation_client=self.registry,
                identity_vp=self._identity_vp,
                authz_gate=producer_authz_gate(self.nf_type),
            ),
            on_established=self._on_inbound_established,
            session_timeout=session_timeout,
        )

    # -- lifecycle ---------------------------------------------------------------

    def bootstrap(self, host: str = "127.0.0.1", peer_port: int = 0,
                  intercept_port: int = 0) -> None:
        """Bind both listeners, register the DID, and start serving."""
        self.peer_server = EnvelopeHttpServer(self, self.handle_inbound, host, peer_port)
        self.current_doc = publish_document(self.registry, self.resolver, self.keys,
                                            self.peer_server.endpoint)
        self.intercept_server = HttpService(_make_intercept_handler(self), host, intercept_port)
        self.peer_server.start()
        self.intercept_server.start()

    def shutdown(self) -> None:
        if self.peer_server is not None:
            self.peer_server.stop()
        if self.intercept_server is not None:
            self.intercept_server.stop()

    @property
    def doc_version(self) -> int:
        return self.current_doc.version

    @property
    def intercept_url(self) -> str:
        return self.intercept_server.base_url

    @property
    def peer_endpoint(self) -> str:
        return self.peer_server.endpoint

    def add_credential(self, vc: VerifiableCredential) -> None:
        if vc.kind == KIND_AUTHN:
            self.authn_creds.append(vc)
        elif vc.kind == KIND_AUTHZ:
            self.authz_creds.append(vc)
        else:
            raise ValueError("sidecars hold AuthN and AuthZ credentials only")

    def rotate_keys(self) -> None:
        """Generate fresh keys and publish the next document version."""
        new_keys = generate_keypair()
        update = rotate_document(self.current_doc, new_keys, self.keys.signing_secret)
        self.registry.update(update)
        self.keys = new_keys
        self.current_doc = update.document

    # -- presentations ------------------------------------------------------------

    def _identity_vp(self, challenge: bytes):
        return build_presentation(self.keys, self.did, list(self.authn_creds), challenge)

    def _combined_vp(self, challenge: bytes):
        # All AuthZ credentials travel along; the producer's gate picks out
        # whatever names it. Selecting by peer NF type would require knowing
        # it before the handshake finishes.
        return build_presentation(
            self.keys, self.did, list(self.authn_creds) + list(self.authz_creds), challenge
        )

    # -- peer documents -------------------------------------------------------------

    def _peer_doc(self, peer: str):
        # Staleness policy is the sidecar's own: with refresh disabled a
        # cached document is used however old it is.
        max_age = self.cache_max_age if self.refresh_enabled else math.inf
        doc = self.resolver.cache.get(peer, max_age=max_age)
        return doc if doc is not None else self.refresh_peer_document(peer)

    def refresh_peer_document(self, peer: str):
        """Fetch the peer's current document, regardless of age or the
        refresh setting. A registry outage keeps any stale cached copy."""
        try:
            return self.resolver.resolve(peer, policy="force_fresh")
        except RegistryUnavailableError as exc:
            stale = self.resolver.cache.get(peer, max_age=math.inf)
            if stale is None:
                raise
            log.warning("%s: keeping stale document for %s: %s", self.name, peer, exc)
            return stale

    # -- outbound path ---------------------------------------------------------------

    def _channel(self, peer: str) -> EnvelopeChannel:
        channel = self._channels.get(peer)
        if channel is None:
            channel = EnvelopeChannel(self, lambda: self._peer_doc(peer), self.session_timeout)
            self._channels[peer] = channel
        return channel

    def _route(self, host: str, path: str) -> RouteRule | None:
        host = host.split(":", 1)[0]
        for rule in self.routes:
            if rule.matches(host, path):
                return rule
        return None

    def _handshake_lock(self, peer: str) -> threading.Lock:
        with self._assoc_lock:
            return self._handshake_locks.setdefault(peer, threading.Lock())

    def _ensure_established(self, peer: str) -> None:
        """Run the handshake once per peer; later calls find the association."""
        with self._handshake_lock(peer):
            assoc = self.associations.get((peer, "outbound"))
            if assoc is not None and assoc.established:
                return
            profile = HandshakeProfile(
                local_did=self.did,
                trust=self.trust,
                resolver=self.resolver,
                revocation_client=self.registry,
                combined_vp=self._combined_vp,
            )
            self.handshakes_initiated += 1
            run_handshake(self._channel(peer), profile, peer)
            assoc = Association(peer=peer, direction="outbound", established=True)
            with self._assoc_lock:
                self.associations[(peer, "outbound")] = assoc
            self._store.append(assoc)

    def _drop_outbound(self, peer: str) -> None:
        with self._assoc_lock:
            self.associations.pop((peer, "outbound"), None)

    def forget_peer(self, peer: str) -> None:
        """Drop the outbound association so the next call re-handshakes.

        Operational hook: after a credential change the operator can force
        the pair through a fresh handshake instead of waiting for expiry.
        """
        self._drop_outbound(peer)
        self._channels.pop(peer, None)
        self.resolver.cache.drop(peer)

    def intercept(self, method: str, path: str, headers: list[tuple[str, str]],
                  body: bytes, host: str) -> tuple[int, list[tuple[str, str]], bytes]:
        """Handle one intercepted local request; returns (status, headers, body)."""
        rule = self._route(host, path)
        if rule is None:
            return _json_error(502, "no_route", f"no rule for host {host!r} path {path!r}")
        peer = rule.target_did
        try:
            self._ensure_established(peer)
            return self._tunnel(peer, method, path, headers, body, retry_left=1)
        except HandshakeRejectedError as exc:
            return _json_error(502, "handshake_rejected", exc.reason)
        except StalePeerKeyError as exc:
            return _json_error(502, "stale_peer_key", str(exc))
        except PeerUnreachableError as exc:
            return _json_error(504, "peer_timeout", str(exc))
        except ProtocolError as exc:
            return _json_error(502, "tunnel_failed", str(exc))

    def _tunnel(self, peer: str, method: str, path: str,
                headers: list[tuple[str, str]], body: bytes,
                retry_left: int) -> tuple[int, list[tuple[str, str]], bytes]:
        correlation_id = str(uuid.uuid4())
        msg = ProtocolMessage(MSG_TUNNEL_REQUEST, {
            "correlation_id": correlation_id,
            "method": method,
            "path": path,
            "headers": [[k, v] for k, v in headers if k.lower() not in HOP_HEADERS],
            "body": b64u_encode(body),
        })
        reply = self._channel(peer).request(msg)
        if reply.type == MSG_REHANDSHAKE:
            # The peer lost its side of the association (restart with a wiped
            # store). Re-run the handshake once and retry.
            if retry_left <= 0:
                raise ProtocolError(f"{peer} keeps demanding a re-handshake")
            log.info("%s: %s requests re-handshake (%s)", self.name, peer,
                     reply.body.get("reason"))
            self._drop_outbound(peer)
            self._ensure_established(peer)
            return self._tunnel(peer, method, path, headers, body, retry_left - 1)
        if reply.type != MSG_TUNNEL_RESPONSE:
            raise ProtocolError(f"expected tunnel response, got {reply.type}")
        if reply.body.get("correlation_id") != correlation_id:
            raise ProtocolError("tunnel response correlates to a different request")
        status = int(reply.body["status"])
        resp_headers = [(k, v) for k, v in reply.body.get("headers", [])
                        if k.lower() not in HOP_HEADERS]
        return status, resp_headers, b64u_decode(reply.body["body"])

    # -- inbound path -----------------------------------------------------------------

    def _on_inbound_established(self, session: HandshakeSession) -> None:
        assoc = Association(
            peer=session.peer,
            direction="inbound",
            established=True,
            authz_claims=list(session.authz_claims),
        )
        with self._assoc_lock:
            self.associations[(session.peer, "inbound")] = assoc
        self._store.append(assoc)
        log.info("%s: association established with %s", self.name, session.peer)

    def handle_inbound(self, msg: ProtocolMessage, sender: str) -> ProtocolMessage:
        if msg.type == MSG_TUNNEL_REQUEST:
            return self._on_tunnel_request(msg, sender)
        if msg.type in (MSG_TUNNEL_RESPONSE, MSG_REHANDSHAKE):
            return msg.reply(MSG_REHANDSHAKE, {"reason": f"unexpected {msg.type}"})
        return self.responder.handle(msg, sender)

    def _local_service_for(self, path: str) -> str | None:
        for service in self.local_services:
            if path.startswith(service.path_prefix):
                return service.name
        return None

    def _on_tunnel_request(self, msg: ProtocolMessage, sender: str) -> ProtocolMessage:
        with self._assoc_lock:
            assoc = self.associations.get((sender, "inbound"))
        if assoc is None or not assoc.established:
            log.info("%s: tunnel frame from %s without association", self.name, sender)
            return msg.reply(MSG_REHANDSHAKE, {"reason": "unknown_association"})
        method = msg.body["method"]
        path = msg.body["path"]
        service = self._local_service_for(path)
        # Unknown paths fail closed: no service name, no grant can cover it.
        if service is None or not evaluate_authorization(
            assoc.authz_claims, (self.nf_type, service, method)
        ):
            log.info("%s: denying %s %s for %s", self.name, method, path, sender)
            return self._tunnel_response(msg, 403, {"error": "authorization_denied"})
        try:
            status, resp_headers, resp_body = self._local_http.request(
                method, self.local_nf_url + path, b64u_decode(msg.body["body"]),
                # framing is ours: a peer's Content-Length could smuggle a request
                {k: v for k, v in msg.body.get("headers", []) if k.lower() not in HOP_HEADERS},
            )
        except HTTP_ERRORS as exc:
            log.warning("%s: local NF unreachable: %s", self.name, exc)
            return self._tunnel_response(msg, 502, {"error": "local_nf_unreachable"})
        headers = [[k, v] for k, v in resp_headers.items() if k.lower() not in HOP_HEADERS]
        return msg.reply(MSG_TUNNEL_RESPONSE, {
            "correlation_id": msg.body["correlation_id"],
            "status": status,
            "headers": headers,
            "body": b64u_encode(resp_body),
        })

    @staticmethod
    def _tunnel_response(msg: ProtocolMessage, status: int, body: dict) -> ProtocolMessage:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        return msg.reply(MSG_TUNNEL_RESPONSE, {
            "correlation_id": msg.body.get("correlation_id", ""),
            "status": status,
            "headers": [["Content-Type", "application/json"]],
            "body": b64u_encode(payload),
        })


def _json_error(status: int, code: str, detail: str) -> tuple[int, list, bytes]:
    body = json.dumps({"error": code, "detail": detail}).encode("utf-8")
    return status, [("Content-Type", "application/json")], body


def _make_intercept_handler(sidecar: Sidecar):
    class InterceptHandler(QuietHandler):
        def _proxy(self) -> None:
            host = self.headers.get("Host", "")
            headers = [(k, v) for k, v in self.headers.items()]
            body = self.read_body()
            status, resp_headers, resp_body = sidecar.intercept(
                self.command, self.path, headers, body, host
            )
            content_type = "application/octet-stream"
            extra = []
            for key, value in resp_headers:
                if key.lower() == "content-type":
                    content_type = value
                else:
                    extra.append((key, value))
            self.send_bytes(status, resp_body, content_type, extra)

        do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _proxy

    return InterceptHandler
