import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbacl import envelope
from sbacl.encoding import b64u_encode, canonical_json
from sbacl.envelope import (
    MAX_FRAME,
    MSG_ACK,
    MSG_TUNNEL_REQUEST,
    Envelope,
    ProtocolMessage,
    decode_wire,
    encode_wire,
    pack,
    unpack,
)
from sbacl.errors import (
    EnvelopeError,
    EnvelopeIntegrityError,
    NotIntendedRecipientError,
    StaleKeyError,
    WireFormatError,
)
from sbacl.identity import Resolver
from sbacl.vdr import Registry

from conftest import registered_identity

REGISTRY = Registry()
RESOLVER = Resolver(REGISTRY)


def make_peer():
    keys, did = registered_identity(REGISTRY)
    return keys, did, RESOLVER.resolve(did)


@pytest.fixture()
def alice():
    return make_peer()


@pytest.fixture()
def bob():
    return make_peer()


def packed(alice, bob, body=None, msg_type=MSG_ACK):
    msg = ProtocolMessage(type=msg_type, body=body or {"status": "ok"})
    env = pack(msg, alice[0], alice[1], bob[2])
    return msg, env


@pytest.mark.parametrize("size", [1, 1024])
def test_roundtrip(alice, bob, size):
    msg, env = packed(alice, bob, body={"blob": "x" * size}, msg_type=MSG_TUNNEL_REQUEST)
    out, sender = unpack(env, bob[0], RESOLVER)
    assert sender == alice[1]
    assert out.type == msg.type
    assert out.body == msg.body
    assert out.thread_id == msg.thread_id


def test_reply_preserves_thread(alice, bob):
    msg, env = packed(alice, bob)
    out, _ = unpack(env, bob[0], RESOLVER)
    reply = out.reply(MSG_ACK, {"done": True})
    _, reply_env = packed(bob, alice, msg_type=MSG_ACK)
    reply_env = pack(reply, bob[0], bob[1], alice[2])
    back, _ = unpack(reply_env, alice[0], RESOLVER)
    assert back.thread_id == msg.thread_id


def test_not_the_recipient(alice, bob):
    eve = make_peer()
    _, env = packed(alice, bob)
    with pytest.raises(NotIntendedRecipientError):
        unpack(env, eve[0], RESOLVER)


def test_forged_sender_identity(alice, bob):
    # Mallory packs with her own keys but names Alice in the header.
    mallory = make_peer()
    msg = ProtocolMessage(type=MSG_ACK, body={})
    env = pack(msg, mallory[0], alice[1], bob[2])
    with pytest.raises(NotIntendedRecipientError):
        unpack(env, bob[0], RESOLVER)


def test_header_field_mutations_are_fatal(alice, bob):
    eve = make_peer()
    cases = {
        "sender": eve[1],
        "recipient": eve[1],
        "recipient_key_version": 7,
        "nonce": b64u_encode(b"\x07" * 24),
    }
    for field_name, value in cases.items():
        _, env = packed(alice, bob)
        env.protected_header[field_name] = value
        with pytest.raises((NotIntendedRecipientError, WireFormatError)):
            unpack(env, bob[0], RESOLVER)


def test_unsupported_encryption_label(alice, bob):
    _, env = packed(alice, bob)
    env.protected_header["content_encryption"] = "A256GCM"
    with pytest.raises(EnvelopeError):
        unpack(env, bob[0], RESOLVER)


def test_malformed_header_nonce(alice, bob):
    _, env = packed(alice, bob)
    env.protected_header["nonce"] = "!!!not-base64!!!"
    with pytest.raises(WireFormatError):
        unpack(env, bob[0], RESOLVER)

    _, env = packed(alice, bob)
    env.protected_header["nonce"] = b64u_encode(b"\x01" * 12)
    with pytest.raises(WireFormatError):
        unpack(env, bob[0], RESOLVER)

    _, env = packed(alice, bob)
    del env.protected_header["sender"]
    with pytest.raises(WireFormatError):
        unpack(env, bob[0], RESOLVER)


def test_ciphertext_and_tag_tampering(alice, bob):
    _, env = packed(alice, bob)
    bad = dataclasses.replace(env, ciphertext=bytes(b ^ 1 for b in env.ciphertext))
    with pytest.raises(EnvelopeIntegrityError):
        unpack(bad, bob[0], RESOLVER)

    bad = dataclasses.replace(env, auth_tag=bytes(b ^ 0x80 for b in env.auth_tag))
    with pytest.raises(EnvelopeIntegrityError):
        unpack(bad, bob[0], RESOLVER)

    bad = dataclasses.replace(env, key_commitment=bytes(b ^ 1 for b in env.key_commitment))
    with pytest.raises(NotIntendedRecipientError):
        unpack(bad, bob[0], RESOLVER)


def test_unregistered_type_refused_both_ways(alice, bob, monkeypatch):
    msg = ProtocolMessage(type="bogus/1.0/noise", body={})
    with pytest.raises(EnvelopeError):
        pack(msg, alice[0], alice[1], bob[2])

    # smuggle one past pack, confirm unpack still refuses it
    monkeypatch.setattr(
        envelope, "REGISTERED_TYPES", envelope.REGISTERED_TYPES | {"bogus/1.0/noise"}
    )
    env = pack(msg, alice[0], alice[1], bob[2])
    monkeypatch.undo()
    with pytest.raises(EnvelopeError):
        unpack(env, bob[0], RESOLVER)


class _ExplodingResolver:
    """Any resolution attempt is a test failure."""

    def __init__(self):
        self.calls = 0

    def resolve(self, did):
        self.calls += 1
        raise AssertionError("resolver consulted before the key-version check")


def test_stale_key_check_precedes_everything(alice, bob):
    _, env = packed(alice, bob)
    probe = _ExplodingResolver()
    sent_version = env.protected_header["recipient_key_version"]
    with pytest.raises(StaleKeyError) as err:
        unpack(env, bob[0], probe, local_key_version=sent_version + 1)
    assert probe.calls == 0
    assert err.value.got == sent_version
    assert err.value.current == sent_version + 1


def test_matching_key_version_passes(alice, bob):
    msg, env = packed(alice, bob)
    out, _ = unpack(env, bob[0], RESOLVER,
                    local_key_version=env.protected_header["recipient_key_version"])
    assert out.body == msg.body


def test_wire_roundtrip(alice, bob):
    _, env = packed(alice, bob, body={"k": "v" * 500})
    frame = encode_wire(env)
    again = decode_wire(frame)
    assert again == env
    msg, _ = unpack(again, bob[0], RESOLVER)
    assert msg.body == {"k": "v" * 500}


def test_wire_truncation_and_padding(alice, bob):
    _, env = packed(alice, bob)
    frame = encode_wire(env)
    for bad in (frame[:-3], frame + b"\x00", frame[:40], b"\x00\x01", b""):
        with pytest.raises(EnvelopeError):
            unpack(decode_wire(bad), bob[0], RESOLVER)


def test_wire_declared_length_cap():
    with pytest.raises(WireFormatError):
        decode_wire(bytes(MAX_FRAME + 1))


def test_wire_body_must_be_an_envelope():
    for header in (b'["not", "an object"]', b"abc", b"\xff\xfe"):
        frame = len(header).to_bytes(2, "big") + header + bytes(64)
        with pytest.raises(WireFormatError):
            decode_wire(frame)


def test_encode_refuses_oversized_frame():
    env = Envelope(
        protected_header={},
        key_commitment=b"",
        ciphertext=b"\x00" * (MAX_FRAME + 1024),
        auth_tag=b"",
    )
    with pytest.raises(WireFormatError):
        encode_wire(env)


def test_envelope_keys_are_fresh_per_envelope(alice, bob):
    msg = ProtocolMessage(type=MSG_ACK, body={"n": 1})
    first = pack(msg, alice[0], alice[1], bob[2])
    second = pack(msg, alice[0], alice[1], bob[2])
    assert first.protected_header["nonce"] != second.protected_header["nonce"]
    assert first.key_commitment != second.key_commitment
    assert first.ciphertext != second.ciphertext


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**31), 2**31),
    st.text(max_size=40),
)
json_bodies = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.one_of(json_scalars, st.lists(json_scalars, max_size=4)),
    max_size=6,
)


@settings(max_examples=25)
@given(body=json_bodies)
def test_roundtrip_property(body):
    sender = make_peer()
    recipient = make_peer()
    msg = ProtocolMessage(type=MSG_TUNNEL_REQUEST, body=body)
    env = pack(msg, sender[0], sender[1], recipient[2])
    wire = encode_wire(env)
    out, claimed = unpack(decode_wire(wire), recipient[0], RESOLVER)
    assert claimed == sender[1]
    assert out.body == body
    assert out.thread_id == msg.thread_id


@settings(max_examples=25)
@given(payload=st.one_of(st.binary(max_size=2048), st.just(b""),
                         st.just(b'{"type": "acl/1.0/ack", "body": {}}'),
                         st.just(b"\x00\x00\x00\xff{}")))
def test_payload_roundtrip_property(payload):
    sender = make_peer()
    recipient = make_peer()
    msg = ProtocolMessage(MSG_TUNNEL_REQUEST, {"method": "POST"}, payload=payload)
    frame = encode_wire(pack(msg, sender[0], sender[1], recipient[2]))
    env = decode_wire(frame)
    # uint16 len(H) ‖ H ‖ commitment ‖ uint32 len(head) ‖ head ‖ payload ‖ tag
    assert len(frame) == (2 + len(canonical_json(env.protected_header)) + 16
                          + 4 + len(canonical_json(msg.to_dict())) + len(payload) + 16)
    out, _ = unpack(env, recipient[0], RESOLVER)
    assert out.payload == payload
    assert out.body == {"method": "POST"}


def test_flipped_payload_byte_is_an_integrity_failure(alice, bob):
    msg = ProtocolMessage(MSG_TUNNEL_REQUEST, {}, payload=b"p" * 100)
    env = pack(msg, alice[0], alice[1], bob[2])
    ct = bytearray(env.ciphertext)
    ct[-1] ^= 1  # the payload is the tail of the plaintext
    with pytest.raises(EnvelopeIntegrityError):
        unpack(dataclasses.replace(env, ciphertext=bytes(ct)), bob[0], RESOLVER)


class _OverlongHead(struct.Struct):
    """Declares a message head 1000 bytes longer than the one that follows."""

    def pack(self, length):
        return super().pack(length + 1000)


def test_head_length_past_the_plaintext_is_refused(alice, bob, monkeypatch):
    monkeypatch.setattr(envelope, "_HEAD_LEN", _OverlongHead(">I"))
    env = pack(ProtocolMessage(MSG_ACK, {}, payload=b"x" * 10), alice[0], alice[1], bob[2])
    monkeypatch.undo()
    with pytest.raises(EnvelopeError, match="overruns"):
        unpack(env, bob[0], RESOLVER)


def test_tunneled_body_travels_without_expansion(alice, bob):
    body = bytes(range(256)) * 256  # 64 KiB
    msg = ProtocolMessage(MSG_TUNNEL_REQUEST, {
        "method": "POST",
        "path": "/nudm-uecm/v1/registrations",
        "headers": [["Content-Type", "application/json"], ["Accept", "*/*"]],
    }, payload=body)
    assert len(encode_wire(pack(msg, alice[0], alice[1], bob[2]))) <= len(body) + 1024
