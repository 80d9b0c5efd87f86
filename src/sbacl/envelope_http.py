"""Envelope transport over HTTP: one POST per message, reply in the response.

Every envelope-speaking service (IPMF, sidecar peer endpoint) mounts an
`EnvelopeHttpServer` and supplies a dispatch function; clients use an
`EnvelopeChannel` bound to one peer. The request body and the response body
are both wire-encoded envelopes, so nothing meaningful ever crosses this
hop in the clear.

Errors that prevent even opening the envelope (stale key version, unknown
sender, garbage bytes) cannot be answered with an encrypted reply, so they
come back as plain JSON error bodies with HTTP 400.
"""

from __future__ import annotations

import json
import logging

from .envelope import ProtocolMessage, decode_wire, encode_wire, pack, unpack
from .errors import (
    EnvelopeError,
    IdentityError,
    PeerUnreachableError,
    ProtocolError,
    RegistryError,
    StaleKeyError,
    StalePeerKeyError,
    WireFormatError,
)
from .httputil import HTTP_ERRORS, HttpClient, HttpService, QuietHandler
from .identity import DidDocument

log = logging.getLogger(__name__)

ENVELOPE_PATH = "/envelope"
_CONTENT_TYPE = "application/octet-stream"


class EnvelopeChannel:
    """Request/reply envelope exchange with a single peer.

    `owner` supplies the live identity as it does for `EnvelopeHttpServer`:
    `did`, `keys` and `resolver` are read per request. `peer_doc` is a
    zero-argument callable so the owner can swap in a refreshed document
    between calls; requests go to the service endpoint it publishes.
    """

    def __init__(self, owner, peer_doc, timeout: float = 10.0):
        self.owner = owner
        self._peer_doc = peer_doc
        self._http = HttpClient(timeout)

    def request(self, msg: ProtocolMessage) -> ProtocolMessage:
        peer_doc: DidDocument = self._peer_doc()
        url = peer_doc.service_endpoint
        if not url:
            raise ProtocolError(f"peer {peer_doc.did} publishes no service endpoint")
        # One read, so the reply opens with the key the request went out with.
        keys = self.owner.keys
        wire = encode_wire(pack(msg, keys, self.owner.did, peer_doc))
        try:
            status, _, body = self._http.request(
                "POST", url.rstrip("/") + ENVELOPE_PATH, wire, {"Content-Type": _CONTENT_TYPE}
            )
        except HTTP_ERRORS as exc:
            raise PeerUnreachableError(f"{peer_doc.did} at {url}: {exc}") from exc
        if status != 200:
            self._raise_for_error(status, body)
        reply, sender = unpack(decode_wire(body), keys, self.owner.resolver)
        if sender != str(peer_doc.did):
            raise ProtocolError(f"reply authenticated as {sender}, expected {peer_doc.did}")
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
            except (RegistryError, IdentityError) as exc:
                log.warning("dropping envelope from unresolvable sender: %s", exc)
                self.send_json(400, {"error": "unknown_sender", "message": str(exc)})
                return
            except (WireFormatError, EnvelopeError) as exc:
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
            except Exception:
                log.exception("dispatch failed for %s from %s", msg.type, sender)
                self.send_json(500, {"error": "internal"})
                return
            self.send_bytes(200, wire, _CONTENT_TYPE)

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
