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

import logging

import requests

from .envelope import ProtocolMessage, decode_wire, encode_wire, pack, unpack
from .errors import (
    EnvelopeError,
    PeerUnreachableError,
    ProtocolError,
    RegistryError,
    StaleKeyError,
    StalePeerKeyError,
    WireFormatError,
)
from .httputil import HttpService, QuietHandler
from .identity import DidDocument

log = logging.getLogger(__name__)

ENVELOPE_PATH = "/envelope"
_CONTENT_TYPE = "application/octet-stream"


class EnvelopeChannel:
    """Request/reply envelope exchange with a single peer.

    `peer_doc` is a zero-argument callable so the owner can swap in a
    refreshed document between calls; `endpoint` defaults to the service
    endpoint published in that document.
    """

    def __init__(
        self,
        local_did,
        local_keys,
        peer_doc,
        resolver,
        endpoint: str | None = None,
        timeout: float = 10.0,
        tap=None,
    ):
        self.local_did = str(local_did)
        self.local_keys = local_keys
        self._peer_doc = peer_doc
        self.resolver = resolver
        self._endpoint = endpoint
        self.timeout = timeout
        self.tap = tap
        self._session = requests.Session()

    def request(self, msg: ProtocolMessage) -> ProtocolMessage:
        peer_doc: DidDocument = self._peer_doc()
        url = self._endpoint or peer_doc.service_endpoint
        if not url:
            raise ProtocolError(f"peer {peer_doc.did} publishes no service endpoint")
        wire = encode_wire(pack(msg, self.local_keys, self.local_did, peer_doc))
        if self.tap is not None:
            self.tap("send", wire)
        try:
            resp = self._session.post(
                url.rstrip("/") + ENVELOPE_PATH,
                data=wire,
                headers={"Content-Type": _CONTENT_TYPE},
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise PeerUnreachableError(f"{peer_doc.did} at {url}: {exc}") from exc
        if resp.status_code != 200:
            self._raise_for_error(resp)
        if self.tap is not None:
            self.tap("recv", resp.content)
        reply, sender = unpack(decode_wire(resp.content), self.local_keys, self.resolver)
        if sender != str(peer_doc.did):
            raise ProtocolError(f"reply authenticated as {sender}, expected {peer_doc.did}")
        if reply.thread_id != msg.thread_id:
            raise ProtocolError("reply does not belong to the request thread")
        return reply

    @staticmethod
    def _raise_for_error(resp) -> None:
        try:
            body = resp.json()
            code = body.get("error", "")
        except ValueError:
            body, code = {}, ""
        if code == "stale_recipient_key":
            raise StalePeerKeyError(
                f"peer holds key version {body.get('current')}, envelope used {body.get('got')}"
            )
        raise ProtocolError(f"peer returned HTTP {resp.status_code}: {code or resp.text[:200]}")


def _make_handler(owner, dispatch):
    class EnvelopeHandler(QuietHandler):
        def do_POST(self):
            if self.path != ENVELOPE_PATH:
                self.send_json(404, {"error": "not_found", "message": self.path})
                return
            try:
                env = decode_wire(self.read_body())
                msg, sender = unpack(
                    env, owner.keys, owner.resolver, local_key_version=owner.doc_version
                )
            except StaleKeyError as exc:
                self.send_json(
                    400,
                    {"error": "stale_recipient_key", "got": exc.got, "current": exc.current},
                )
                return
            except RegistryError as exc:
                log.warning("dropping envelope from unresolvable sender: %s", exc)
                self.send_json(400, {"error": "unknown_sender", "message": str(exc)})
                return
            except (WireFormatError, EnvelopeError) as exc:
                log.warning("dropping undecryptable envelope: %s", exc)
                self.send_json(400, {"error": "bad_envelope", "message": str(exc)})
                return
            try:
                reply = dispatch(msg, sender)
            except Exception:
                log.exception("dispatch failed for %s from %s", msg.type, sender)
                self.send_json(500, {"error": "internal"})
                return
            sender_doc = owner.resolver.resolve(sender)
            wire = encode_wire(pack(reply, owner.keys, owner.did, sender_doc))
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
