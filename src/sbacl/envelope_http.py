"""Envelope transport over HTTP: one POST per message, reply in the response.

Every envelope-speaking service (IPMF, sidecar peer endpoint) mounts an
`EnvelopeHttpServer` and supplies a dispatch function; clients use an
`EnvelopeChannel` bound to one peer. The request body and the response body
are both wire-encoded envelopes, so nothing meaningful ever crosses this
hop in the clear.

Errors that prevent even opening the envelope (stale key version, unknown
sender, garbage bytes) cannot be answered with an encrypted reply, so they
come back as plain JSON error bodies with HTTP 400. A registry outage
that leaves a DID unresolved or a revocation status unread is HTTP 503
`registry_unavailable`. A request declaring more than `MAX_FRAME` bytes is
refused unread with HTTP 413 `frame_too_large`, and its connection closed;
a reply that would exceed it is answered with HTTP 502 `response_too_large`.
"""

from __future__ import annotations

import json
import logging

from .envelope import MAX_FRAME, ProtocolMessage, decode_wire, encode_wire, pack, unpack
from .errors import (
    EnvelopeError,
    IdentityError,
    PeerUnreachableError,
    ProtocolError,
    RegistryError,
    RegistryUnavailableError,
    StaleKeyError,
    StalePeerKeyError,
    WireFormatError,
)
from .httputil import HTTP_ERRORS, HttpService, QuietHandler

log = logging.getLogger(__name__)

ENVELOPE_PATH = "/envelope"
_CONTENT_TYPE = "application/octet-stream"


class EnvelopeChannel:
    """Request/reply envelope exchange with a single peer.

    `owner` supplies the live identity as it does for `EnvelopeHttpServer`:
    `did`, `keys` and `resolver` are read per request, and requests go out
    through `owner.http`, the one `HttpClient` the owner keeps for all its
    peers. The peer's document is resolved through `owner.resolver` on
    every request, so a refreshed document takes effect on the next call;
    requests go to the service endpoint it publishes.
    """

    def __init__(self, owner, peer_did: str):
        self.owner = owner
        self.peer_did = peer_did

    def request(self, msg: ProtocolMessage) -> ProtocolMessage:
        peer_doc = self.owner.resolver.resolve(self.peer_did)
        url = peer_doc.service_endpoint
        if not url:
            raise ProtocolError(f"peer {self.peer_did} publishes no service endpoint")
        # One read, so the reply opens with the key the request went out with.
        keys = self.owner.keys
        wire = encode_wire(pack(msg, keys, self.owner.did, peer_doc))
        try:
            status, _, body = self.owner.http.request(
                "POST", url.rstrip("/") + ENVELOPE_PATH, wire, {"Content-Type": _CONTENT_TYPE}
            )
        except HTTP_ERRORS as exc:
            raise PeerUnreachableError(f"{self.peer_did} at {url}: {exc}") from exc
        if status != 200:
            self._raise_for_error(status, body)
        try:
            reply, sender = unpack(decode_wire(body), keys, self.owner.resolver)
        except EnvelopeError as exc:
            raise ProtocolError(f"undecodable reply from {self.peer_did}: {exc}") from exc
        if sender != self.peer_did:
            raise ProtocolError(f"reply authenticated as {sender}, expected {self.peer_did}")
        if reply.thread_id != msg.thread_id:
            raise ProtocolError("reply does not belong to the request thread")
        return reply

    @staticmethod
    def _raise_for_error(status: int, body: bytes) -> None:
        text = body.decode("utf-8", "replace")
        try:
            error = json.loads(text)
            code = error.get("error", "")
        except ValueError:
            error, code = {}, ""
        if code == "stale_recipient_key":
            raise StalePeerKeyError(
                f"peer holds key version {error.get('current')}, envelope used {error.get('got')}"
            )
        raise ProtocolError(f"peer returned HTTP {status}: {code or text[:200]}")


def _make_handler(owner, dispatch):
    class EnvelopeHandler(QuietHandler):
        def do_POST(self):
            if self.content_length > MAX_FRAME:
                # refused unread, so the connection must close: the body would follow
                self.send_bytes(413, b'{"error": "frame_too_large"}', "application/json",
                                [("Connection", "close")])
                return
            # Read first: an unread body would be parsed as the next request.
            body = self.read_body()
            if self.path != ENVELOPE_PATH:
                self.send_json(404, {"error": "not_found", "message": self.path})
                return
            try:
                msg, sender = unpack(decode_wire(body), owner.keys, owner.resolver,
                                     local_key_version=owner.doc_version)
            except StaleKeyError as exc:
                self.send_json(
                    400,
                    {"error": "stale_recipient_key", "got": exc.got, "current": exc.current},
                )
                return
            except RegistryUnavailableError as exc:
                self.registry_unavailable(exc)
                return
            except (RegistryError, IdentityError) as exc:
                log.warning("dropping envelope from unresolvable sender: %s", exc)
                self.send_json(400, {"error": "unknown_sender", "message": str(exc)})
                return
            except EnvelopeError as exc:
                log.warning("dropping undecryptable envelope: %s", exc)
                self.send_json(400, {"error": "bad_envelope", "message": str(exc)})
                return
            except Exception:
                log.exception("cannot open envelope")
                self.send_json(500, {"error": "internal"})
                return
            try:
                reply = dispatch(msg, sender)
                sender_doc = owner.resolver.resolve(sender)
                wire = encode_wire(pack(reply, owner.keys, owner.did, sender_doc))
            except RegistryUnavailableError as exc:
                self.registry_unavailable(exc)
                return
            except WireFormatError as exc:  # the reply outgrew the frame limit
                log.warning("cannot answer %s from %s: %s", msg.type, sender, exc)
                self.send_json(502, {"error": "response_too_large"})
                return
            except Exception:
                log.exception("dispatch failed for %s from %s", msg.type, sender)
                self.send_json(500, {"error": "internal"})
                return
            self.send_bytes(200, wire, _CONTENT_TYPE)

        def registry_unavailable(self, exc: RegistryUnavailableError) -> None:
            log.warning("cannot answer envelope while the registry is down: %s", exc)
            self.send_json(503, {"error": "registry_unavailable"})

    return EnvelopeHandler


class EnvelopeHttpServer(HttpService):
    """Peer-facing endpoint of an envelope-speaking service.

    `owner` supplies the live identity: attributes `did`, `keys`,
    `doc_version`, and `resolver` are read per request, so a key rotation
    takes effect without touching the server. `dispatch(msg, sender_did)`
    must return the reply message.
    """

    def __init__(self, owner, dispatch, host: str = "127.0.0.1", port: int = 0):
        super().__init__(_make_handler(owner, dispatch), host, port)

    @property
    def endpoint(self) -> str:
        return self.base_url
