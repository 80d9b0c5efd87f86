"""Primitive-level checks against published vectors and the pure-Python oracle."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbacl import crypto
from sbacl.envelope import MSG_ACK, ProtocolMessage, pack, unpack
from sbacl.identity import Resolver
from sbacl.vdr import Registry

import oracles
from conftest import registered_identity

# RFC 8032, Ed25519 TEST 1
ED25519_SEED = bytes.fromhex(
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
)
ED25519_PUB = bytes.fromhex(
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
)
ED25519_SIG = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)


def test_ed25519_rfc8032_test1():
    assert crypto.ed25519_public_from_seed(ED25519_SEED) == ED25519_PUB
    assert crypto.ed25519_sign(ED25519_SEED, b"") == ED25519_SIG
    assert crypto.ed25519_verify(ED25519_PUB, ED25519_SIG, b"")


def test_ed25519_verify_is_total():
    assert not crypto.ed25519_verify(ED25519_PUB, ED25519_SIG, b"x")
    assert not crypto.ed25519_verify(ED25519_PUB, b"\x00" * 64, b"")
    assert not crypto.ed25519_verify(b"\x00" * 31, ED25519_SIG, b"")
    assert not crypto.ed25519_verify(ED25519_PUB, b"short", b"")


# RFC 7748 section 6.1 Diffie-Hellman vector
X25519_A = bytes.fromhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
X25519_B = bytes.fromhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
X25519_SHARED = bytes.fromhex("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")


def test_x25519_rfc7748_dh_vector():
    pub_a = crypto.x25519_public_from_secret(X25519_A)
    pub_b = crypto.x25519_public_from_secret(X25519_B)
    assert crypto.x25519_shared_secret(X25519_A, pub_b) == X25519_SHARED
    assert crypto.x25519_shared_secret(X25519_B, pub_a) == X25519_SHARED


@pytest.fixture()
def exchanges(monkeypatch):
    """The peer keys of every X25519 exchange computed, from an empty memo on."""
    computed = []
    real = crypto.X25519PrivateKey

    class Counted:
        generate = staticmethod(real.generate)

        def __init__(self, key):
            self._key = key

        @classmethod
        def from_private_bytes(cls, secret):
            return cls(real.from_private_bytes(secret))

        def public_key(self):
            return self._key.public_key()

        def exchange(self, peer):
            computed.append(peer)
            return self._key.exchange(peer)

    crypto._x25519_exchange.cache_clear()
    monkeypatch.setattr(crypto, "X25519PrivateKey", Counted)
    yield computed
    crypto._x25519_exchange.cache_clear()


def test_each_key_pair_costs_one_exchange(exchanges):
    pub_a = crypto.x25519_public_from_secret(X25519_A)
    pub_b = crypto.x25519_public_from_secret(X25519_B)
    assert crypto.x25519_shared_secret(X25519_A, pub_b) == X25519_SHARED
    assert crypto.x25519_shared_secret(X25519_A, pub_b) == X25519_SHARED
    assert len(exchanges) == 1
    assert crypto.x25519_shared_secret(X25519_B, pub_a) == X25519_SHARED
    assert len(exchanges) == 2
    # a new own secret, then a new peer key: each is a new pair with its own secret
    other = crypto.x25519_generate_secret()
    with_other_secret = crypto.x25519_shared_secret(other, pub_b)
    assert len(exchanges) == 3
    pub_other = crypto.x25519_public_from_secret(other)
    with_other_peer = crypto.x25519_shared_secret(X25519_A, pub_other)
    assert len(exchanges) == 4
    assert len({X25519_SHARED, with_other_secret, with_other_peer}) == 3


def test_a_key_without_a_shared_secret_fails_on_every_call(exchanges):
    for _ in range(2):
        with pytest.raises(ValueError):
            crypto.x25519_shared_secret(X25519_A, b"\0" * 32)  # low order: no secret
    assert len(exchanges) == 2


def test_a_warm_envelope_round_trip_costs_no_exchange(exchanges):
    registry = Registry()
    resolver = Resolver(registry)
    (a_keys, a_did), (b_keys, b_did) = registered_identity(registry), registered_identity(registry)
    msg = ProtocolMessage(MSG_ACK, {"status": "ok"})

    def round_trip():
        env = pack(msg, a_keys, a_did, resolver.resolve(b_did))
        assert unpack(env, b_keys, resolver) == (msg, a_did)

    round_trip()
    assert len(exchanges) == 2  # one per direction: (a, B) to pack, (b, A) to unpack
    round_trip()
    assert len(exchanges) == 2


# RFC 5869 test case 1
def test_hkdf_rfc5869_case1():
    okm = crypto.hkdf_sha256(
        ikm=b"\x0b" * 22,
        info=bytes.fromhex("f0f1f2f3f4f5f6f7f8f9"),
        length=42,
        salt=bytes.fromhex("000102030405060708090a0b0c"),
    )
    assert okm == bytes.fromhex(
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865"
    )


# draft-irtf-cfrg-xchacha-03 section 2.2.1
HCHACHA_KEY = bytes.fromhex(
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
)
HCHACHA_IN = bytes.fromhex("000000090000004a0000000031415927")
HCHACHA_OUT = bytes.fromhex(
    "82413b4227b27bfed30e42508a877d73a0f9e4d58a74a853c12ec41326d3ecdc"
)


def test_hchacha20_draft_vector():
    assert crypto.hchacha20(HCHACHA_KEY, HCHACHA_IN) == HCHACHA_OUT
    assert oracles.hchacha20(HCHACHA_KEY, HCHACHA_IN) == HCHACHA_OUT


@given(st.binary(min_size=32, max_size=32), st.binary(min_size=16, max_size=16))
def test_hchacha20_agrees_with_oracle(key, inp):
    assert crypto.hchacha20(key, inp) == oracles.hchacha20(key, inp)


# draft-irtf-cfrg-xchacha-03 appendix A.3.1 (AEAD_XChaCha20_Poly1305)
AEAD_PLAINTEXT = bytes.fromhex(
    "4c616469657320616e642047656e746c656d656e206f662074686520636c6173"
    "73206f66202739393a204966204920636f756c64206f6666657220796f75206f"
    "6e6c79206f6e652074697020666f7220746865206675747572652c2073756e73"
    "637265656e20776f756c642062652069742e"
)
AEAD_AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
AEAD_KEY = bytes.fromhex(
    "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
)
AEAD_NONCE = bytes.fromhex("404142434445464748494a4b4c4d4e4f5051525354555657")
AEAD_CIPHERTEXT = bytes.fromhex(
    "bd6d179d3e83d43b9576579493c0e939572a1700252bfaccbed2902c21396cbb"
    "731c7f1b0b4aa6440bf3a82f4eda7e39ae64c6708c54c216cb96b72e1213b452"
    "2f8c9ba40db5d945b11b69b982c1bb9e3f3fac2bc369488f76b2383565d3fff9"
    "21f9664c97637da9768812f615c68b13b52e"
)
AEAD_TAG = bytes.fromhex("c0875924c1c7987947deafd8780acf49")


def test_xchacha20poly1305_draft_vector():
    sealed = crypto.xchacha_encrypt(AEAD_KEY, AEAD_NONCE, AEAD_PLAINTEXT, AEAD_AAD)
    assert sealed == AEAD_CIPHERTEXT + AEAD_TAG
    opened = crypto.xchacha_decrypt(AEAD_KEY, AEAD_NONCE, sealed, AEAD_AAD)
    assert opened == AEAD_PLAINTEXT


def test_xchacha_ciphertext_matches_oracle_keystream():
    sealed = crypto.xchacha_encrypt(AEAD_KEY, AEAD_NONCE, AEAD_PLAINTEXT, AEAD_AAD)
    keystream = oracles.xchacha20_keystream(AEAD_KEY, AEAD_NONCE, len(AEAD_PLAINTEXT))
    expected_ct = bytes(p ^ k for p, k in zip(AEAD_PLAINTEXT, keystream))
    assert sealed[:-16] == expected_ct


@settings(max_examples=50)
@given(st.binary(max_size=600), st.binary(max_size=40))
def test_xchacha_roundtrip(plaintext, aad):
    key = os.urandom(32)
    nonce = os.urandom(24)
    sealed = crypto.xchacha_encrypt(key, nonce, plaintext, aad)
    assert crypto.xchacha_decrypt(key, nonce, sealed, aad) == plaintext


@settings(max_examples=50)
@given(st.binary(min_size=1, max_size=200), st.data())
def test_xchacha_rejects_any_bit_flip(plaintext, data):
    key = os.urandom(32)
    nonce = os.urandom(24)
    sealed = bytearray(crypto.xchacha_encrypt(key, nonce, plaintext, b"hdr"))
    index = data.draw(st.integers(0, len(sealed) - 1))
    sealed[index] ^= data.draw(st.integers(1, 255))
    with pytest.raises(ValueError):
        crypto.xchacha_decrypt(key, nonce, bytes(sealed), b"hdr")


def test_xchacha_rejects_wrong_aad():
    key = os.urandom(32)
    nonce = os.urandom(24)
    sealed = crypto.xchacha_encrypt(key, nonce, b"payload", b"right")
    with pytest.raises(ValueError):
        crypto.xchacha_decrypt(key, nonce, sealed, b"wrong")


def test_keypair_derivation_is_deterministic_and_domain_separated():
    from sbacl.identity import generate_keypair

    seed = os.urandom(32)
    kp1 = generate_keypair(seed)
    kp2 = generate_keypair(seed)
    assert kp1 == kp2
    assert kp1.signing_secret != kp1.agreement_secret
    assert generate_keypair().signing_public != kp1.signing_public
