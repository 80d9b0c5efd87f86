"""Thin raw-bytes layer over the cryptographic primitives.

Keys travel through the rest of the package as raw 32-byte strings so that
documents and credentials can embed them with plain encodings. This module
is the only place that touches hazmat types.

XChaCha20-Poly1305 is assembled here from ChaCha20-Poly1305 plus HChaCha20
because the underlying library exposes no extended-nonce AEAD. HChaCha20 is
recovered from the raw ChaCha20 keystream: the first keystream block equals
the serialized initial state added word-wise to the permuted state, so
subtracting the known initial state yields the permutation output, of which
HChaCha20 keeps words 0..3 and 12..15. The construction is pinned by test
vectors and an independent reimplementation in the test suite.
"""

from __future__ import annotations

import functools
import os
import struct

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.ciphers.algorithms import ChaCha20
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)

_RAW_PRIVATE = (Encoding.Raw, PrivateFormat.Raw, NoEncryption())
_RAW_PUBLIC = (Encoding.Raw, PublicFormat.Raw)

# Static-static X25519 secrets remembered per process, one per exact key pair.
AGREEMENTS_CACHED = 1024

# "expand 32-byte k" as four little-endian words, the ChaCha constant row.
_CHACHA_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


def random_bytes(n: int) -> bytes:
    return os.urandom(n)


# --- Ed25519 -----------------------------------------------------------------


def ed25519_generate_seed() -> bytes:
    return os.urandom(32)


def ed25519_public_from_seed(seed: bytes) -> bytes:
    priv = Ed25519PrivateKey.from_private_bytes(seed)
    return priv.public_key().public_bytes(*_RAW_PUBLIC)


def ed25519_sign(seed: bytes, message: bytes) -> bytes:
    return Ed25519PrivateKey.from_private_bytes(seed).sign(message)


def ed25519_verify(public_key: bytes, signature: bytes, message: bytes) -> bool:
    """True when the signature checks out, False otherwise. Never raises."""
    if len(public_key) != 32 or len(signature) != 64:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# --- X25519 ------------------------------------------------------------------


def x25519_generate_secret() -> bytes:
    return X25519PrivateKey.generate().private_bytes(*_RAW_PRIVATE)


def x25519_public_from_secret(secret: bytes) -> bytes:
    priv = X25519PrivateKey.from_private_bytes(secret)
    return priv.public_key().public_bytes(*_RAW_PUBLIC)


def x25519_shared_secret(secret: bytes, peer_public: bytes) -> bytes:
    """The X25519 secret of two keys, a pure function of both (RFC 7748 6.1).

    It is remembered on the exact (secret, peer_public) pair, so a rotated
    key on either side is a new pair. A key that yields no secret raises
    `ValueError` on every call: a failure is never remembered."""
    return _x25519_exchange(secret, peer_public)


@functools.lru_cache(maxsize=AGREEMENTS_CACHED)
def _x25519_exchange(secret: bytes, peer_public: bytes) -> bytes:
    priv = X25519PrivateKey.from_private_bytes(secret)
    return priv.exchange(X25519PublicKey.from_public_bytes(peer_public))


# --- Hashing and key derivation ----------------------------------------------


def hkdf_sha256(ikm: bytes, info: bytes, length: int = 32, salt: bytes | None = None) -> bytes:
    return HKDF(algorithm=SHA256(), length=length, salt=salt, info=info).derive(ikm)


# --- XChaCha20-Poly1305 ------------------------------------------------------


def hchacha20(key: bytes, inp: bytes) -> bytes:
    """HChaCha20: 32-byte key and 16-byte input to a 32-byte subkey."""
    if len(key) != 32 or len(inp) != 16:
        raise ValueError("hchacha20 needs a 32-byte key and a 16-byte input")
    # The library's ChaCha20 treats its 16-byte nonce as state words 12..15,
    # which is exactly where HChaCha20 places its input.
    ks = Cipher(ChaCha20(key, inp), mode=None).encryptor().update(b"\x00" * 64)
    ks_words = struct.unpack("<16I", ks)
    init_words = (
        _CHACHA_CONSTANTS
        + struct.unpack("<8I", key)
        + struct.unpack("<4I", inp)
    )
    permuted = [(k - i) & 0xFFFFFFFF for k, i in zip(ks_words, init_words)]
    return struct.pack("<8I", *(permuted[0:4] + permuted[12:16]))


def _xchacha_parts(key: bytes, nonce: bytes) -> tuple[ChaCha20Poly1305, bytes]:
    if len(nonce) != 24:
        raise ValueError("XChaCha20-Poly1305 nonce must be 24 bytes")
    subkey = hchacha20(key, nonce[:16])
    return ChaCha20Poly1305(subkey), b"\x00" * 4 + nonce[16:]


def xchacha_encrypt(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    """Returns ciphertext with the 16-byte Poly1305 tag appended."""
    aead, inner_nonce = _xchacha_parts(key, nonce)
    return aead.encrypt(inner_nonce, plaintext, aad)


def xchacha_decrypt(key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
    """Raises ValueError when the tag does not authenticate."""
    aead, inner_nonce = _xchacha_parts(key, nonce)
    try:
        return aead.decrypt(inner_nonce, ciphertext, aad)
    except InvalidTag:
        raise ValueError("authentication tag mismatch") from None
