import logging
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sbacl import identity
from sbacl.errors import IdentityError, RegistryUnavailableError, UnknownDidError
from sbacl.identity import (
    OUTAGE_BACKOFF,
    ResolutionCache,
    Resolver,
    create_peer_did,
    create_registry_did,
    document_hash,
    extract_peer_document,
    generate_keypair,
    parse_did,
    publish_document,
    rotate_document,
    self_sign_document,
    verify_document_chain,
)

from conftest import peer_identity


def test_peer_did_roundtrip():
    keys = generate_keypair()
    did, created_doc = create_peer_did(keys)
    assert str(did).startswith("did:speer:")
    doc = extract_peer_document(did)
    assert doc == created_doc
    assert doc.signing_key == keys.signing_public
    assert doc.agreement_key == keys.agreement_public
    assert doc.version == 1
    assert doc.service_endpoint is None


@given(st.binary(min_size=32, max_size=32))
def test_peer_did_is_deterministic_in_keys(seed):
    keys = generate_keypair(seed)
    assert str(create_peer_did(keys)[0]) == str(create_peer_did(keys)[0])


def test_parse_did_rejects_garbage():
    for bad in ("", "did:speer", "did:other:abc", "urn:uuid:x", "did::"):
        with pytest.raises(IdentityError):
            parse_did(bad)


def test_extract_rejects_wrong_method_and_payload():
    keys = generate_keypair()
    registry_did, _ = create_registry_did(keys)
    with pytest.raises(IdentityError):
        extract_peer_document(registry_did)
    with pytest.raises(IdentityError):
        extract_peer_document(parse_did("did:speer:3yZe7d"))


def test_registry_did_fingerprint_is_bound_to_signing_key():
    keys = generate_keypair()
    did1, doc1 = create_registry_did(keys)
    did2, _ = create_registry_did(keys, "http://127.0.0.1:1")
    assert str(did1) == str(did2)
    assert str(did1).startswith("did:svdr:")
    assert doc1.version == 1 and doc1.prev_version_hash is None
    other = create_registry_did(generate_keypair())[0]
    assert str(other) != str(did1)


def test_document_dict_uses_pinned_key_names():
    keys = generate_keypair()
    _, doc = create_registry_did(keys, "http://127.0.0.1:9")
    data = doc.to_dict()
    assert set(data) == {
        "id", "version", "signingKey", "agreementKey", "serviceEndpoint",
    }
    again = type(doc).from_dict(data)
    assert again == doc
    assert document_hash(again) == document_hash(doc)


def test_rotation_builds_a_verifiable_chain():
    keys1 = generate_keypair()
    _, doc1 = create_registry_did(keys1, "http://127.0.0.1:9")
    upd1 = self_sign_document(doc1, keys1)
    keys2 = generate_keypair()
    upd2 = rotate_document(doc1, keys2, keys1.signing_secret)
    keys3 = generate_keypair()
    upd3 = rotate_document(upd2.document, keys3, keys2.signing_secret,
                           service_endpoint="http://127.0.0.1:10")
    chain = [(upd1.document, upd1.signature),
             (upd2.document, upd2.signature),
             (upd3.document, upd3.signature)]
    assert verify_document_chain(chain)
    assert upd2.document.version == 2
    assert upd2.document.prev_version_hash == document_hash(doc1)
    assert upd3.document.service_endpoint == "http://127.0.0.1:10"
    assert upd2.document.service_endpoint == "http://127.0.0.1:9"


def test_document_chain_detects_breaks():
    keys1 = generate_keypair()
    _, doc1 = create_registry_did(keys1)
    upd1 = self_sign_document(doc1, keys1)
    keys2 = generate_keypair()
    upd2 = rotate_document(doc1, keys2, keys1.signing_secret)

    # signature from a key that never owned the document
    rogue = rotate_document(doc1, keys2, generate_keypair().signing_secret)
    assert not verify_document_chain([(upd1.document, upd1.signature),
                                      (rogue.document, rogue.signature)])

    # hash chain pointing somewhere else
    from dataclasses import replace
    forged = replace(upd2.document, prev_version_hash=b"\x00" * 32)
    assert not verify_document_chain([(upd1.document, upd1.signature),
                                      (forged, upd2.signature)])

    # version gap
    skipped = replace(upd2.document, version=3)
    assert not verify_document_chain([(upd1.document, upd1.signature),
                                      (skipped, upd2.signature)])

    assert verify_document_chain([(upd1.document, upd1.signature),
                                  (upd2.document, upd2.signature)])


def test_peer_documents_cannot_rotate():
    keys = generate_keypair()
    doc = create_peer_did(keys)[1]
    with pytest.raises(IdentityError):
        rotate_document(doc, generate_keypair(), keys.signing_secret)


def test_resolution_cache_expires_entries():
    cache = ResolutionCache(max_age=0.05)
    keys = generate_keypair()
    did, doc = create_peer_did(keys)
    cache.put(doc, now=100.0)
    assert cache.get(did, now=100.04) is doc
    assert cache.get(did, now=100.06) is None
    cache.put(doc)
    cache.drop(did)
    assert cache.get(did) is None


def test_publish_document_registers_then_republishes(registry):
    keys = generate_keypair()
    resolver = Resolver(registry)
    first = publish_document(registry, resolver, keys, "http://127.0.0.1:1")
    assert first.version == 1

    # a restart on the same endpoint reuses the published version
    again = publish_document(registry, resolver, keys, "http://127.0.0.1:1")
    assert again.version == 1

    # a restart on a new endpoint rotates to it, keys unchanged
    moved = publish_document(registry, resolver, keys, "http://127.0.0.1:2")
    assert moved.version == 2
    assert moved.service_endpoint == "http://127.0.0.1:2"
    assert moved.signing_key == keys.signing_public
    assert registry.resolve_did(str(moved.did)) == moved


def test_resolve_peer_needs_no_registry():
    keys, did = peer_identity()
    doc = Resolver().resolve(did)
    assert doc.signing_key == keys.signing_public


def test_resolver_uses_cache_until_forced(registry):
    keys = generate_keypair()
    _, doc = create_registry_did(keys, "http://127.0.0.1:9")
    registry.register(self_sign_document(doc, keys))
    did = str(doc.did)

    resolver = Resolver(registry)
    first = resolver.resolve(did)
    assert first.version == 1

    new_keys = generate_keypair()
    registry.update(rotate_document(doc, new_keys, keys.signing_secret))
    assert resolver.resolve(did).version == 1  # cached
    assert resolver.refresh(did).version == 2
    assert resolver.resolve(did).version == 2  # cache replaced


def test_resolver_keeps_a_cached_copy_through_a_registry_outage(registry_http, caplog):
    registry, server, client = registry_http
    keys = generate_keypair()
    _, doc = create_registry_did(keys, "http://127.0.0.1:9")
    registry.register(self_sign_document(doc, keys))
    unseen = str(create_registry_did(generate_keypair())[0])

    resolver = Resolver(client, max_age=0.0)
    assert resolver.resolve(str(doc.did)) == doc
    server.stop()
    with caplog.at_level(logging.WARNING, logger="sbacl.identity"):
        assert resolver.resolve(str(doc.did)) == doc
        assert resolver.refresh(str(doc.did)) == doc
    assert "keeping stale document" in caplog.text
    with pytest.raises(RegistryUnavailableError):
        resolver.resolve(unseen)


class _Clock:
    """Stands in for the `time` module inside `sbacl.identity`."""

    def __init__(self):
        self.now = 1000.0

    def time(self):
        return self.now

    monotonic = time


class _SlowOutage:
    """A registry client that serves `doc` until `down`, then fails after
    `wait` seconds of the clock."""

    def __init__(self, doc, clock, wait):
        self.doc, self.clock, self.wait = doc, clock, wait
        self.down, self.calls = False, 0

    def resolve_did(self, did):
        self.calls += 1
        if not self.down:
            return self.doc
        self.clock.now += self.wait
        raise RegistryUnavailableError("timed out")


def test_resolver_holds_off_a_registry_that_just_failed(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(identity, "time", clock)
    _, doc = create_registry_did(generate_keypair())
    client = _SlowOutage(doc, clock, wait=10.0)
    resolver = Resolver(client, max_age=0.0)
    assert resolver.resolve(str(doc.did)) == doc
    client.down = True
    clock.now += 1  # the cached copy is past max_age
    assert resolver.resolve(str(doc.did)) == doc  # waits once, keeps the copy
    assert client.calls == 2
    clock.now += OUTAGE_BACKOFF * client.wait - 1
    assert resolver.resolve(str(doc.did)) == doc  # held off: no second wait
    assert client.calls == 2
    clock.now += 1
    client.down = False
    assert resolver.resolve(str(doc.did)) == doc  # the hold-off is over
    assert client.calls == 3


def test_resolve_unknown_registry_did(registry):
    resolver = Resolver(registry)
    keys = generate_keypair()
    did, _ = create_registry_did(keys)
    with pytest.raises(UnknownDidError):
        resolver.resolve(str(did))


def test_resolve_registry_did_without_client_fails():
    keys = generate_keypair()
    did, _ = create_registry_did(keys)
    with pytest.raises(IdentityError):
        Resolver().resolve(str(did))
