"""Authenticated-encryption envelopes between two DIDs.

The construction is sender-authenticated ("authcrypt") by direct key
agreement: HKDF over the static-static X25519 secret between the sender's
and recipient's long-term keys, with the header hash in its info string,
yields a payload key and a 16-byte key commitment. The header carries a
fresh random nonce, so both are unique per envelope. The payload is sealed
under XChaCha20-Poly1305 with that key, and the commitment travels in the
frame. Whoever derives the same commitment has therefore already
authenticated the sender named in the header; no separate signature is
needed.

The protected header travels in cleartext but is hashed into the key
derivation and bound as the AEAD associated data, so any header mutation
fails the commitment check.
The header is the only JSON in the binary frame; inside the seal, raw
`payload` bytes follow the message's JSON head.
"""

from __future__ import annotations

import hmac
import json
import struct
import uuid
from dataclasses import dataclass, field
from typing import Any

from . import crypto
from .encoding import b64u_decode, b64u_encode, canonical_json, sha256
from .errors import (
    EnvelopeError,
    EnvelopeIntegrityError,
    IdentityError,
    NotIntendedRecipientError,
    StaleKeyError,
    WireFormatError,
)
from .identity import DidDocument, KeyPair, parse_did

CONTENT_ENCRYPTION = "XC20P"
NONCE_SIZE = 24
MAX_FRAME = 16 * 1024 * 1024  # whole-frame limit, enforced both directions
COMMITMENT_SIZE = 16
TAG_SIZE = 16

_HEADER_LEN = struct.Struct(">H")  # frame: uint16 BE len(header) ‖ header ‖ commit ‖ ct ‖ tag
_HEAD_LEN = struct.Struct(">I")  # plaintext: uint32 BE len(head) ‖ head ‖ payload

_KEY_INFO_PREFIX = b"sbacl/envelope/key/"

# Every message type that may travel in an envelope. Anything else is
# rejected at pack and unpack time.
MSG_OFFER = "acl/1.0/offer"
MSG_ISSUE = "acl/1.0/issue"
MSG_PRESENT_REQUEST = "acl/1.0/present-request"
MSG_PRESENTATION = "acl/1.0/presentation"
MSG_ACK = "acl/1.0/ack"
MSG_DENY = "acl/1.0/deny"
MSG_TUNNEL_REQUEST = "tunnel/1.0/request"
MSG_TUNNEL_RESPONSE = "tunnel/1.0/response"
MSG_REHANDSHAKE = "tunnel/1.0/rehandshake"

REGISTERED_TYPES = frozenset({
    MSG_OFFER,
    MSG_ISSUE,
    MSG_PRESENT_REQUEST,
    MSG_PRESENTATION,
    MSG_ACK,
    MSG_DENY,
    MSG_TUNNEL_REQUEST,
    MSG_TUNNEL_RESPONSE,
    MSG_REHANDSHAKE,
})


@dataclass
class ProtocolMessage:
    """A JSON `body` plus opaque `payload` bytes (a tunneled HTTP body)."""

    type: str
    body: dict[str, Any]
    thread_id: str = field(default_factory=lambda: str(uuid.uuid4()))
    payload: bytes = b""

    def to_dict(self) -> dict:
        return {"type": self.type, "thread_id": self.thread_id, "body": self.body}

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolMessage":
        return cls(type=data["type"], body=data["body"], thread_id=data["thread_id"])

    def reply(self, type: str, body: dict[str, Any], payload: bytes = b"") -> "ProtocolMessage":
        """A new message on the same thread."""
        return ProtocolMessage(type=type, body=body, thread_id=self.thread_id, payload=payload)


@dataclass
class Envelope:
    protected_header: dict[str, Any]
    key_commitment: bytes
    ciphertext: bytes
    auth_tag: bytes


def _envelope_key(own_secret: bytes, peer_doc: DidDocument,
                  header_bytes: bytes) -> tuple[bytes, bytes]:
    """The payload key and the key commitment for one header, from the
    static-static secret with `peer_doc`'s published agreement key. A key
    that yields no secret (wrong size, low order) makes the DID unusable."""
    try:
        shared = crypto.x25519_shared_secret(own_secret, peer_doc.agreement_key)
    except ValueError as exc:
        raise IdentityError(f"{peer_doc.did} publishes an unusable agreement key: {exc}") from exc
    okm = crypto.hkdf_sha256(shared, _KEY_INFO_PREFIX + sha256(header_bytes), 32 + COMMITMENT_SIZE)
    return okm[:32], okm[32:]


def pack(
    msg: ProtocolMessage,
    sender_keys: KeyPair,
    sender_did: str,
    recipient_doc: DidDocument,
) -> Envelope:
    if msg.type not in REGISTERED_TYPES:
        raise EnvelopeError(f"unregistered message type {msg.type!r}")
    nonce = crypto.random_bytes(NONCE_SIZE)
    header = {
        "sender": sender_did,
        "recipient": recipient_doc.did,
        "recipient_key_version": recipient_doc.version,
        "content_encryption": CONTENT_ENCRYPTION,
        "nonce": b64u_encode(nonce),
    }
    header_bytes = canonical_json(header)
    key, commitment = _envelope_key(sender_keys.agreement_secret, recipient_doc, header_bytes)
    head = canonical_json(msg.to_dict())
    plaintext = b"".join((_HEAD_LEN.pack(len(head)), head, msg.payload))
    sealed = crypto.xchacha_encrypt(key, nonce, plaintext, header_bytes)
    return Envelope(
        protected_header=header,
        key_commitment=commitment,
        ciphertext=sealed[:-TAG_SIZE],
        auth_tag=sealed[-TAG_SIZE:],
    )


def unpack(
    env: Envelope,
    recipient_keys: KeyPair,
    resolver,
    local_key_version: int | None = None,
) -> tuple[ProtocolMessage, str]:
    """Open an envelope; returns the message and the authenticated sender DID.

    The sender DID comes from the header, but it is only returned after the
    key commitment matches, which requires the agreement secret matching
    that DID's published key. A header naming someone else's DID therefore
    fails exactly like an envelope addressed to someone else.

    Resolution errors for the claimed sender propagate to the caller; an
    unreachable registry must never look like a tampered envelope.
    """
    header = env.protected_header
    try:
        sender = header["sender"]
        encryption = header["content_encryption"]
        nonce = b64u_decode(header["nonce"])
        key_version = int(header["recipient_key_version"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed protected header: {exc}") from exc
    if encryption != CONTENT_ENCRYPTION:
        raise EnvelopeError(f"unsupported content encryption {encryption!r}")
    if len(nonce) != NONCE_SIZE:
        raise WireFormatError("nonce has the wrong size")
    if local_key_version is not None and key_version != local_key_version:
        raise StaleKeyError(got=key_version, current=local_key_version)

    sender_doc = resolver.resolve(parse_did(sender))
    header_bytes = canonical_json(header)
    key, commitment = _envelope_key(recipient_keys.agreement_secret, sender_doc, header_bytes)
    if not hmac.compare_digest(commitment, env.key_commitment):
        raise NotIntendedRecipientError(
            "key commitment mismatch: wrong recipient or forged sender"
        )
    try:
        plaintext = crypto.xchacha_decrypt(key, nonce, env.ciphertext + env.auth_tag, header_bytes)
    except ValueError:
        raise EnvelopeIntegrityError("payload authentication failed") from None
    head_end = _HEAD_LEN.size + int.from_bytes(plaintext[:_HEAD_LEN.size], "big")
    if head_end > len(plaintext):
        raise EnvelopeError("message head overruns the plaintext")
    try:
        msg = ProtocolMessage.from_dict(json.loads(plaintext[_HEAD_LEN.size:head_end]))
    except (KeyError, TypeError, ValueError) as exc:
        raise EnvelopeError(f"decrypted payload is not a protocol message: {exc}") from exc
    msg.payload = plaintext[head_end:]
    if msg.type not in REGISTERED_TYPES:
        raise EnvelopeError(f"unregistered message type {msg.type!r}")
    return msg, sender


def encode_wire(env: Envelope) -> bytes:
    header = canonical_json(env.protected_header)
    size = (_HEADER_LEN.size + len(header) + len(env.key_commitment) + len(env.ciphertext)
            + len(env.auth_tag))
    if size > MAX_FRAME or len(header) > 0xFFFF:
        raise WireFormatError(f"frame of {size} bytes (header {len(header)}) exceeds "
                              f"{MAX_FRAME} bytes (header 65535)")
    return b"".join((_HEADER_LEN.pack(len(header)), header, env.key_commitment, env.ciphertext,
                     env.auth_tag))


def decode_wire(data: bytes) -> Envelope:
    if len(data) > MAX_FRAME:
        raise WireFormatError(f"frame of {len(data)} bytes exceeds {MAX_FRAME} bytes")
    key_at = _HEADER_LEN.size + int.from_bytes(data[:_HEADER_LEN.size], "big")
    ct_at = key_at + COMMITMENT_SIZE
    if len(data) < ct_at + TAG_SIZE:
        raise WireFormatError(f"frame of {len(data)} bytes is shorter than its fixed parts")
    try:
        header = json.loads(data[_HEADER_LEN.size:key_at])
    except ValueError as exc:
        raise WireFormatError(f"protected header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise WireFormatError("protected header is not a JSON object")
    return Envelope(header, data[key_at:ct_at], data[ct_at:-TAG_SIZE], data[-TAG_SIZE:])
