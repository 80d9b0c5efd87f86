"""Independent reference implementations used to cross-check the package.

Nothing in here imports sbacl's encoding, crypto, or credential logic; the
point is to recompute the same answers from primary definitions (RFC 7539
block function, the base58 alphabet, raw Ed25519 via the cryptography
package) so agreement is meaningful.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

# --- ChaCha20 / HChaCha20 from the RFC 7539 definitions -------------------------


def _rotl32(v: int, n: int) -> int:
    v &= 0xFFFFFFFF
    return ((v << n) | (v >> (32 - n))) & 0xFFFFFFFF


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & 0xFFFFFFFF
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & 0xFFFFFFFF
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & 0xFFFFFFFF
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & 0xFFFFFFFF
    state[b] = _rotl32(state[b] ^ state[c], 7)


def _double_rounds(state: list[int], rounds: int = 20) -> list[int]:
    working = list(state)
    for _ in range(rounds // 2):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    return working


_SIGMA = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    state = list(_SIGMA)
    state += list(struct.unpack("<8L", key))
    state.append(counter & 0xFFFFFFFF)
    state += list(struct.unpack("<3L", nonce))
    working = _double_rounds(state)
    out = [(w + s) & 0xFFFFFFFF for w, s in zip(working, state)]
    return struct.pack("<16L", *out)


def hchacha20(key: bytes, inp: bytes) -> bytes:
    """HChaCha20: the 20-round core without the final state addition."""
    state = list(_SIGMA)
    state += list(struct.unpack("<8L", key))
    state += list(struct.unpack("<4L", inp))
    working = _double_rounds(state)
    return struct.pack("<8L", *(working[0:4] + working[12:16]))


def xchacha20_keystream(key: bytes, nonce24: bytes, length: int) -> bytes:
    subkey = hchacha20(key, nonce24[:16])
    nonce = b"\x00" * 4 + nonce24[16:24]
    out = bytearray()
    counter = 1  # block 0 is reserved for the Poly1305 one-time key
    while len(out) < length:
        out += chacha20_block(subkey, counter, nonce)
        counter += 1
    return bytes(out[:length])


# --- independent base58 ------------------------------------------------------------

_B58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


def b58decode(text: str) -> bytes:
    acc = 0
    for ch in text:
        acc = acc * 58 + _B58.index(ch)
    raw = acc.to_bytes((acc.bit_length() + 7) // 8, "big") if acc else b""
    pad = len(text) - len(text.lstrip("1"))
    return b"\x00" * pad + raw


# --- independent delegation chain checker ---------------------------------------


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def _verify(pub: bytes | None, sig_b64u: str, data: bytes) -> bool:
    import base64
    if pub is None:
        return False
    try:
        sig = base64.urlsafe_b64decode(sig_b64u + "=" * (-len(sig_b64u) % 4))
        Ed25519PublicKey.from_public_bytes(pub).verify(sig, data)
        return True
    except (InvalidSignature, ValueError):
        return False


def _rights_of(vc_dict: dict) -> set[str] | None:
    raw = vc_dict.get("claims", {}).get("rights", "")
    rights = {r for r in raw.split(",") if r}
    if not rights or not rights <= {"issue_authn", "issue_authz", "delegate"}:
        return None
    return rights


REQUIRED = {"AuthN": "issue_authn", "AuthZ": "issue_authz", "Del": "delegate"}


def chain_is_valid(vc_dict: dict, trusted_roots: set[str],
                   signing_keys: dict[str, bytes]) -> bool:
    """Walk the embedded chain of a credential dict, recomputing everything.

    Works purely on the serialized form: signatures are recomputed over the
    dict minus its proof, each issuer's public key comes from `signing_keys`
    (DID -> raw Ed25519 key, as the caller generated them), and right
    subsets are compared link by link down to the credential kind.
    """
    chain = vc_dict.get("delegation_chain", [])
    if not chain:
        return vc_dict["issuer"] in trusted_roots
    if chain[0]["issuer"] not in trusted_roots:
        return False
    previous_rights: set[str] | None = None
    for position, link in enumerate(chain):
        if link.get("kind") != "Del":
            return False
        unsigned = {k: v for k, v in link.items() if k != "proof"}
        issuer_key = signing_keys.get(link["issuer"])
        if not _verify(issuer_key, link.get("proof", ""), _canonical(unsigned)):
            return False
        rights = _rights_of(link)
        if rights is None:
            return False
        if previous_rights is not None and not rights <= previous_rights:
            return False
        terminal = position == len(chain) - 1
        if terminal:
            if link["subject"] != vc_dict["issuer"]:
                return False
            if REQUIRED[vc_dict["kind"]] not in rights:
                return False
        else:
            if link["subject"] != chain[position + 1]["issuer"]:
                return False
            if "delegate" not in rights:
                return False
        previous_rights = rights
    return True


# --- independent DID history checker --------------------------------------------


def _b64u(text: str) -> bytes:
    return base64.urlsafe_b64decode(text + "=" * (-len(text) % 4))


def document_chain_is_valid(history_json: list[dict]) -> bool:
    """Check a registry DID's serialized history from version 1, recomputing
    the version rule.

    Version 1 must carry no prev hash, its DID must be `did:svdr:` plus the
    base58 of the first 16 bytes of SHA-256 over its signing key, and that
    key must sign it. Every later version must name the same DID, be
    numbered one higher, carry the SHA-256 of the previous document's
    canonical JSON, and be signed by the previous version's signing key.
    """
    prefix = "did:svdr:"
    prev = None
    for entry in history_json:
        doc = entry["document"]
        if prev is None:
            try:
                fingerprint = b58decode(doc["id"][len(prefix):])
            except ValueError:
                return False
            if not doc["id"].startswith(prefix) or doc["version"] != 1 \
                    or "prevVersionHash" in doc \
                    or fingerprint != hashlib.sha256(_b64u(doc["signingKey"])).digest()[:16]:
                return False
            signer = doc["signingKey"]
        else:
            if doc["id"] != prev["id"] or doc["version"] != prev["version"] + 1:
                return False
            if _b64u(doc.get("prevVersionHash", "")) != hashlib.sha256(_canonical(prev)).digest():
                return False
            signer = prev["signingKey"]
        if not _verify(_b64u(signer), entry["signature"], _canonical(doc)):
            return False
        prev = doc
    return prev is not None
