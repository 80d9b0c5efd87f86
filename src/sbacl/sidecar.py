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
import threading
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path
from typing import ClassVar

from .credentials import (
    KIND_AUTHN,
    KIND_AUTHZ,
    TrustPolicy,
    VerifiableCredential,
    build_presentation,
    evaluate_authorization,
)
from .encoding import JsonLines, b64u_decode
from .envelope import (
    MSG_REHANDSHAKE,
    MSG_TUNNEL_REQUEST,
    MSG_TUNNEL_RESPONSE,
    ProtocolMessage,
)
from .envelope_http import EnvelopeChannel, EnvelopeHttpServer
from .errors import (
    ConfigError,
    HandshakeRejectedError,
    IdentityError,
    PeerUnreachableError,
    ProtocolError,
    RegistryError,
    RegistryUnavailableError,
    RevocationCheckError,
    StalePeerKeyError,
    WireFormatError,
)
from .httputil import HTTP_ERRORS, HttpClient, HttpService, QuietHandler
from .identity import (
    DEFAULT_CACHE_MAX_AGE,
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
    body_field,
    producer_authz_gate,
    run_handshake,
)

log = logging.getLogger(__name__)

# Headers that belong to one hop and must not be tunneled.
HOP_HEADERS = frozenset({
    "connection", "keep-alive", "proxy-authenticate", "proxy-authorization",
    "te", "trailer", "transfer-encoding", "upgrade", "host", "content-length",
})

# Seconds either HTTP client (peers and IPMFs, the local NF) waits on a hop.
HTTP_TIMEOUT = 10.0


@dataclass(frozen=True)
class RouteRule:
    """Maps an intercepted request to a peer DID, first match wins."""

    host: str
    target_did: str
    path_prefix: str = "/"

    def matches(self, host: str, path: str) -> bool:
        return host.lower() == self.host.lower() and path.startswith(self.path_prefix)


@dataclass(frozen=True)
class LocalService:
    """Names one of the local NF's services by path prefix, for enforcement."""

    name: str
    path_prefix: str


@dataclass
class Association:
    """A completed handshake with one peer, in one direction."""

    # perfbench/loadgen.py reads this to tell a warm pair from a cold one
    established: ClassVar[bool] = True

    peer: str
    direction: str  # "outbound" | "inbound"
    authz_claims: list[dict] = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Association":
        return cls(
            peer=data["peer"],
            direction=data["direction"],
            authz_claims=list(data.get("authz_claims", [])),
        )


class AssociationStore(JsonLines):
    """The live associations by (peer, direction), and the file that keeps them.

    `append` and `drop` change `live` and the file together under one lock,
    so memory and a reload never disagree. The file holds one record per
    change: loading takes the last record per pair, and a `dropped` record
    removes its pair. A corrupt file counts as absent: the store starts
    empty and logs a warning, as guessing at partial state would be worse.
    Past 2 x live + `COMPACT_FLOOR` lines the file is rewritten to the live set.
    """

    COMPACT_FLOOR = 32

    def __init__(self, path: str | Path | None):
        super().__init__(path)
        self.live: dict[tuple[str, str], Association] = {}
        self.load()

    def load(self) -> dict[tuple[str, str], Association]:
        """Re-read the file into `live`, and return a copy of it."""
        with self._lock:
            rows = list(self.lines())
            self.live.clear()
            self._lines = len(rows)
            try:
                for _, line in rows:
                    self._apply(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                log.warning("association store %s is corrupt (%s); starting empty",
                            self.path, exc)
                self.live.clear()
            return dict(self.live)

    def append(self, assoc: Association) -> None:
        self._write(assoc.to_dict())

    def drop(self, peer: str, direction: str) -> None:
        with self._lock:
            if (peer, direction) in self.live:
                self._write({"peer": peer, "direction": direction, "dropped": True})

    def _apply(self, record: dict) -> None:
        key = (record["peer"], record["direction"])
        if record.get("dropped"):
            self.live.pop(key, None)
        else:
            self.live[key] = Association.from_dict(record)

    def _write(self, record: dict) -> None:
        with self._lock:
            self._apply(record)
            if self.path is None:
                return
            if self._lines < 2 * len(self.live) + self.COMPACT_FLOOR:
                super().append(record)
                self._lines += 1
            else:
                self.rewrite(assoc.to_dict() for assoc in self.live.values())
                self._lines = len(self.live)


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
        cache_max_age: float = DEFAULT_CACHE_MAX_AGE,
    ):
        self.name = name
        self.nf_type = nf_type
        self.registry = registry
        self.local_nf_url = local_nf_url.rstrip("/")
        self.routes = list(routes or [])
        self.local_services = list(local_services or [])
        self.keys = keys if keys is not None else generate_keypair()
        # One max age for every peer document, outbound and inbound.
        self.resolver = Resolver(registry, max_age=cache_max_age)
        self.trust = TrustPolicy.trusting(*trusted_roots)

        self.did, self.current_doc = create_registry_did(self.keys)

        self.authn_creds: list[VerifiableCredential] = []
        self.authz_creds: list[VerifiableCredential] = []

        self._store = AssociationStore(association_store)
        # Guards the per-peer handshake locks and the handshake counter.
        self._lock = threading.Lock()
        self._handshake_locks: dict[str, threading.Lock] = {}

        self.peer_server: EnvelopeHttpServer | None = None
        self.intercept_server: HttpService | None = None
        self.handshakes_initiated = 0
        # One client for every envelope hop (peers and IPMFs), one for the NF.
        self.http = HttpClient(HTTP_TIMEOUT)
        self._local_http = HttpClient(HTTP_TIMEOUT)

        self.profile = HandshakeProfile(
            trust=self.trust,
            resolver=self.resolver,
            identity_vp=self._identity_vp,
            combined_vp=self._combined_vp,
            authz_gate=producer_authz_gate(self.nf_type),
        )
        self.responder = HandshakeResponder(
            profile=self.profile,
            on_established=self._on_inbound_established,
        )

    @classmethod
    def from_config(cls, config: dict, registry) -> "Sidecar":
        """Build a sidecar from the keys a `sidecar run` config holds.

        Keys: `name`; `nf_type`; `local_nf_url`; `trusted_roots`, the root
        DIDs whose chains it accepts; `seed`, 32 bytes in base64url;
        `routes`, `{"host", "target_did", "path_prefix"}` each; `local_services`,
        `{"name", "path_prefix"}` each; `association_store`, a file path; and
        `cache_max_age`, seconds a resolved peer document is trusted. The
        first three are required; one `ConfigError` names every one missing.
        """
        missing = [key for key in ("name", "nf_type", "local_nf_url") if key not in config]
        if missing:
            raise ConfigError([f"config needs {key}" for key in missing])
        return cls(
            name=config["name"],
            nf_type=config["nf_type"],
            registry=registry,
            local_nf_url=config["local_nf_url"],
            trusted_roots=config.get("trusted_roots", []),
            keys=generate_keypair(b64u_decode(config["seed"])) if config.get("seed") else None,
            routes=[RouteRule(r["host"], r["target_did"], r.get("path_prefix", "/"))
                    for r in config.get("routes", [])],
            local_services=[LocalService(s["name"], s["path_prefix"])
                            for s in config.get("local_services", [])],
            association_store=config.get("association_store"),
            cache_max_age=float(config.get("cache_max_age", DEFAULT_CACHE_MAX_AGE)),
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
        self.http.close()
        self._local_http.close()

    @property
    def associations(self) -> dict[tuple[str, str], Association]:
        return self._store.live

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

    # -- outbound path ---------------------------------------------------------------

    def _route(self, host: str, path: str) -> RouteRule | None:
        host = host.split(":", 1)[0]
        for rule in self.routes:
            if rule.matches(host, path):
                return rule
        return None

    def _handshake_lock(self, peer: str) -> threading.Lock:
        with self._lock:
            return self._handshake_locks.setdefault(peer, threading.Lock())

    def _ensure_established(self, peer: str) -> None:
        """Run the handshake once per peer; later calls find the association."""
        with self._handshake_lock(peer):
            assoc = self.associations.get((peer, "outbound"))
            if assoc is not None:
                return
            with self._lock:
                self.handshakes_initiated += 1
            run_handshake(EnvelopeChannel(self, peer), self.profile, peer)
            self._store.append(Association(peer=peer, direction="outbound"))

    def forget_peer(self, peer: str) -> None:
        """Drop the outbound association so the next call re-handshakes.

        Operational hook: after a credential change the operator can force
        the pair through a fresh handshake instead of waiting for expiry.
        The peer's document expires but is kept, so the next history read
        must still extend it."""
        self._store.drop(peer, "outbound")
        self.resolver.expire(peer)

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
            return _json_error(502, "handshake_rejected", str(exc))
        except StalePeerKeyError as exc:
            return _json_error(502, "stale_peer_key", str(exc))
        except PeerUnreachableError as exc:
            return _json_error(504, "peer_timeout", str(exc))
        except RegistryUnavailableError as exc:
            return _json_error(503, "registry_unavailable", str(exc))
        except (RegistryError, IdentityError) as exc:
            if isinstance(exc, RegistryError) and exc.code != "unknown_did":
                return _json_error(502, "registry_refused", f"{exc.code}: {exc}")
            return _json_error(502, "unknown_peer", str(exc))
        except RevocationCheckError as exc:
            return _json_error(502, "revocation_unchecked", str(exc))
        except ProtocolError as exc:
            return _json_error(502, "tunnel_failed", str(exc))
        except WireFormatError as exc:  # only our own frame can be refused here
            return _json_error(413, "body_too_large", str(exc))

    def _tunnel(self, peer: str, method: str, path: str,
                headers: list[tuple[str, str]], body: bytes,
                retry_left: int) -> tuple[int, list[tuple[str, str]], bytes]:
        msg = ProtocolMessage(MSG_TUNNEL_REQUEST, {
            "method": method,
            "path": path,
            "headers": [[k, v] for k, v in headers if k.lower() not in HOP_HEADERS],
        }, payload=body)
        reply = EnvelopeChannel(self, peer).request(msg)
        if reply.type == MSG_REHANDSHAKE:
            # The peer lost its side of the association (restart with a wiped
            # store). Re-run the handshake once and retry.
            if retry_left <= 0:
                raise ProtocolError(f"{peer} keeps demanding a re-handshake")
            log.info("%s: %s requests re-handshake (%s)", self.name, peer,
                     reply.body.get("reason"))
            self._store.drop(peer, "outbound")
            self._ensure_established(peer)
            return self._tunnel(peer, method, path, headers, body, retry_left - 1)
        if reply.type != MSG_TUNNEL_RESPONSE:
            raise ProtocolError(f"expected tunnel response, got {reply.type}")
        status = body_field(reply, "status", int)
        resp_headers = _headers(reply)
        if None in (status, resp_headers):
            raise ProtocolError("tunnel response carries no usable status or headers")
        return status, resp_headers, reply.payload

    # -- inbound path -----------------------------------------------------------------

    def _on_inbound_established(self, peer: str, authz_claims: list[dict]) -> None:
        self._store.append(Association(peer=peer, direction="inbound", authz_claims=authz_claims))
        log.info("%s: association established with %s", self.name, peer)

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
        assoc = self.associations.get((sender, "inbound"))
        if assoc is None:
            log.info("%s: tunnel frame from %s without association", self.name, sender)
            return msg.reply(MSG_REHANDSHAKE, {"reason": "unknown_association"})
        method, path = (body_field(msg, key, _string) for key in ("method", "path"))
        req_headers = _headers(msg)
        if None in (method, path, req_headers):
            log.info("%s: malformed tunnel frame from %s", self.name, sender)
            return self._tunnel_response(msg, 400, {"error": "malformed_message"})
        service = self._local_service_for(path)
        # Unknown paths fail closed: no service name, no grant can cover it.
        if service is None or not evaluate_authorization(
            assoc.authz_claims, (self.nf_type, service, method)
        ):
            log.info("%s: denying %s %s for %s", self.name, method, path, sender)
            return self._tunnel_response(msg, 403, {"error": "authorization_denied"})
        try:
            status, resp_headers, resp_body = self._local_http.request(
                method, self.local_nf_url + path, msg.payload, dict(req_headers))
        except HTTP_ERRORS as exc:
            log.warning("%s: local NF unreachable: %s", self.name, exc)
            return self._tunnel_response(msg, 502, {"error": "local_nf_unreachable"})
        headers = [[k, v] for k, v in resp_headers.items() if k.lower() not in HOP_HEADERS]
        return msg.reply(MSG_TUNNEL_RESPONSE, {
            "status": status,
            "headers": headers,
        }, resp_body)

    @staticmethod
    def _tunnel_response(msg: ProtocolMessage, status: int, body: dict) -> ProtocolMessage:
        return msg.reply(MSG_TUNNEL_RESPONSE, {
            "status": status,
            "headers": [["Content-Type", "application/json"]],
        }, json.dumps(body, sort_keys=True).encode("utf-8"))


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _headers(msg: ProtocolMessage) -> list[tuple[str, str]] | None:
    """A tunnel frame's `[[name, value], ...]` minus hop headers: [] when it
    sends none, None when it is anything but a list of string pairs."""
    if "headers" not in msg.body:
        return []
    return body_field(msg, "headers", _header_pairs)


def _header_pairs(value) -> list[tuple[str, str]]:
    if not isinstance(value, list) or any(not isinstance(p, list) or len(p) != 2 for p in value):
        raise ValueError("expected a list of [name, value] pairs")
    pairs = [(_string(k), _string(v)) for k, v in value]
    # framing is ours: a peer's Content-Length could smuggle a request
    return [(k, v) for k, v in pairs if k.lower() not in HOP_HEADERS]


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
