import logging
import math
import random
import sys
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sbacl import identity
from sbacl.crypto import ed25519_sign
from sbacl.errors import IdentityError, RegistryError, RegistryUnavailableError
from sbacl.identity import (
    OUTAGE_BACKOFF,
    Resolver,
    SignedDocumentUpdate,
    create_registry_did,
    document_hash,
    generate_keypair,
    parse_did,
    publish_document,
    rotate_document,
    self_sign_document,
    verify_document_chain,
)

from oracles import document_chain_is_valid


@given(st.binary(min_size=32, max_size=32))
def test_registry_did_is_deterministic_in_keys(seed):
    keys = generate_keypair(seed)
    did = create_registry_did(keys)[0]
    assert did == create_registry_did(generate_keypair(seed))[0]
    assert parse_did(did) == did


def test_parse_did_rejects_garbage():
    # a DID of any other method is refused like any other garbage
    for bad in ("", "did:speer", "did:speer:3yZe7d", "did:other:abc", "urn:uuid:x", "did::",
                "did:svdr:", "did:svdr:0OIl", None, 5):
        with pytest.raises(IdentityError):
            parse_did(bad)


def test_registry_did_fingerprint_is_bound_to_signing_key():
    keys = generate_keypair()
    did1, doc1 = create_registry_did(keys)
    did2, _ = create_registry_did(keys, "http://127.0.0.1:1")
    assert did1 == did2
    assert did1.startswith("did:svdr:")
    assert doc1.version == 1 and doc1.prev_version_hash is None
    other = create_registry_did(generate_keypair())[0]
    assert other != did1


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
    assert verify_document_chain([upd1, upd2, upd3]) == upd3.document
    # a reader holding version 2 checks only what follows it
    assert verify_document_chain([upd1, upd2, upd3], upd2.document) == upd3.document
    assert upd2.document.version == 2
    assert upd2.document.prev_version_hash == document_hash(doc1)
    assert upd3.document.service_endpoint == "http://127.0.0.1:10"
    assert upd2.document.service_endpoint == "http://127.0.0.1:9"


def _refused(code, history, verified=None):
    with pytest.raises(RegistryError) as err:
        verify_document_chain(history, verified)
    assert err.value.code == code, err.value


def test_document_chain_detects_breaks():
    keys1 = generate_keypair()
    _, doc1 = create_registry_did(keys1)
    upd1 = self_sign_document(doc1, keys1)
    keys2 = generate_keypair()
    upd2 = rotate_document(doc1, keys2, keys1.signing_secret)

    # signature from a key that never owned the document
    rogue = rotate_document(doc1, keys2, generate_keypair().signing_secret)
    _refused("bad_signature", [upd1, rogue])

    # hash chain pointing somewhere else
    forged = replace(upd2.document, prev_version_hash=b"\x00" * 32)
    _refused("hash_mismatch", [upd1, SignedDocumentUpdate(forged, upd2.signature)])

    # version gap
    skipped = replace(upd2.document, version=3)
    _refused("version_gap", [upd1, SignedDocumentUpdate(skipped, upd2.signature)])

    # a v1 self-signed by a key that does not fingerprint to the DID
    foreign = generate_keypair()
    impostor = replace(doc1, signing_key=foreign.signing_public,
                       agreement_key=foreign.agreement_public)
    _refused("bad_request", [self_sign_document(impostor, foreign)])

    # a v2, signed by the right key, that names a different DID
    other_did = create_registry_did(generate_keypair())[0]
    switched = replace(upd2.document, did=other_did)
    _refused("bad_request", [upd1, SignedDocumentUpdate(
        switched, ed25519_sign(keys1.signing_secret, switched.canonical_bytes()))])

    # nothing, or less than the reader already verified
    _refused("bad_version", [])
    _refused("bad_version", [upd1], upd2.document)
    # a validly signed fork that differs at the version the reader holds
    fork = rotate_document(doc1, generate_keypair(), keys1.signing_secret)
    assert verify_document_chain([upd1, fork]) == fork.document
    _refused("hash_mismatch", [upd1, fork], upd2.document)

    assert verify_document_chain([upd1, upd2]) == upd2.document


HISTORY_MUTATIONS = ("valid", "swapped_agreement_key", "flipped_signature", "version_skip",
                     "wrong_prev_hash", "did_switch", "foreign_v1_key", "truncation")


class _Serving:
    """A registry client that answers every DID with `history`."""

    def __init__(self, history):
        self.history = history

    def resolve_did(self, did):
        return self.history


def _genuine_history(rng, length):
    keys = [generate_keypair(rng.randbytes(32)) for _ in range(length)]
    _, doc = create_registry_did(keys[0], "http://127.0.0.1:9")
    history = [self_sign_document(doc, keys[0])]
    for signer, successor in zip(keys, keys[1:]):
        history.append(rotate_document(history[-1].document, successor, signer.signing_secret))
    return keys, history


def _mutated(rng, name, keys, history):
    """The history served after the mutation, and how many of its genuine
    versions the reader verified before: only versions it does not hold yet
    are mutated."""
    out, n = list(history), len(history)
    if name == "valid":
        return out, rng.randint(0, n)
    if name == "truncation":
        if rng.random() < 0.5:
            return out[rng.randrange(1, n):], 0  # starts past version 1
        return out[:rng.randrange(n)], n  # ends before the reader's copy
    i = 0 if name == "foreign_v1_key" else rng.randrange(
        1 if name in ("wrong_prev_hash", "did_switch") else 0, n)
    doc, signer = out[i].document, keys[max(i - 1, 0)]
    if name == "swapped_agreement_key":
        forged = replace(doc, agreement_key=generate_keypair(rng.randbytes(32)).agreement_public)
        out[i] = SignedDocumentUpdate(forged, out[i].signature)
    elif name == "flipped_signature":
        sig = bytearray(out[i].signature)
        sig[rng.randrange(len(sig))] ^= 1 + rng.randrange(255)
        out[i] = SignedDocumentUpdate(doc, bytes(sig))
    else:
        if name == "version_skip":
            doc = replace(doc, version=doc.version + 1)
        elif name == "wrong_prev_hash":
            doc = replace(doc, prev_version_hash=rng.randbytes(32))
        elif name == "did_switch":
            doc = replace(doc, did=create_registry_did(generate_keypair(rng.randbytes(32)))[0])
        else:  # foreign_v1_key: a v1 that its own foreign key signs
            signer = generate_keypair(rng.randbytes(32))
            doc = replace(doc, signing_key=signer.signing_public)
        out[i] = SignedDocumentUpdate(doc, ed25519_sign(signer.signing_secret,
                                                        doc.canonical_bytes()))
    return out, rng.randint(0, i)


def test_document_chain_oracle_agreement():
    rng = random.Random(20261019)
    samples = 500
    tally = dict.fromkeys(HISTORY_MUTATIONS, 0)
    for _ in range(samples):
        name = rng.choice(HISTORY_MUTATIONS)
        shortest = 2 if name in ("wrong_prev_hash", "did_switch", "truncation") else 1
        keys, genuine = _genuine_history(rng, rng.randint(shortest, 4))
        served, held = _mutated(rng, name, keys, genuine)
        did = genuine[0].document.did
        client = _Serving(genuine[:held])
        resolver = Resolver(client)
        if held:
            assert resolver.refresh(did) == genuine[held - 1].document
        client.history = served
        try:
            library_ok = resolver.refresh(did) == served[-1].document
        except RegistryError as exc:
            assert exc.code == "unknown_did", exc
            library_ok = False

        # The reader trusts the versions it verified, so the oracle judges
        # those plus what the served history adds after them.
        genuine_json = [update.to_dict() for update in genuine]
        served_json = [update.to_dict() for update in served]
        oracle_ok = len(served) >= held and (
            held == 0 or served_json[held - 1]["document"] == genuine_json[held - 1]["document"]
        ) and document_chain_is_valid(genuine_json[:held] + served_json[held:])

        assert library_ok == (name == "valid"), (name, len(genuine), held)
        assert oracle_ok == library_ok, (name, len(genuine), held)
        tally[name] += 1
    assert all(tally.values()), tally
    print(f"document chains: {samples}/{samples} oracle agreements "
          f"({', '.join(f'{k}={v}' for k, v in sorted(tally.items()))})")


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
    assert registry.resolve_did(moved.did)[-1].document == moved


def test_resolver_uses_cache_until_forced(registry):
    keys = generate_keypair()
    _, doc = create_registry_did(keys, "http://127.0.0.1:9")
    registry.register(self_sign_document(doc, keys))
    did = doc.did

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
    unseen = create_registry_did(generate_keypair())[0]

    resolver = Resolver(client, max_age=0.0)
    assert resolver.resolve(doc.did) == doc
    server.stop()
    with caplog.at_level(logging.WARNING, logger="sbacl.identity"):
        assert resolver.resolve(doc.did) == doc
        assert resolver.refresh(doc.did) == doc
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
    """A registry client that serves `history` until `down`, then fails
    after `wait` seconds of the clock."""

    def __init__(self, history, clock, wait):
        self.history, self.clock, self.wait = history, clock, wait
        self.down, self.calls = False, 0

    def resolve_did(self, did):
        self.calls += 1
        if not self.down:
            return self.history
        self.clock.now += self.wait
        raise RegistryUnavailableError("timed out")


def test_resolver_holds_off_a_registry_that_just_failed(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(identity, "time", clock)
    keys = generate_keypair()
    _, doc = create_registry_did(keys)
    client = _SlowOutage([self_sign_document(doc, keys)], clock, wait=10.0)
    resolver = Resolver(client, max_age=0.0)
    assert resolver.resolve(doc.did) == doc
    client.down = True
    clock.now += 1  # the cached copy is past max_age
    assert resolver.resolve(doc.did) == doc  # waits once, keeps the copy
    assert client.calls == 2
    clock.now += OUTAGE_BACKOFF * client.wait - 1
    assert resolver.resolve(doc.did) == doc  # held off: no second wait
    assert client.calls == 2
    clock.now += 1
    client.down = False
    assert resolver.resolve(doc.did) == doc  # the hold-off is over
    assert client.calls == 3


def test_resolver_serves_its_record_until_max_age_or_expire(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(identity, "time", clock)
    _, history = _genuine_history(random.Random(7), 2)
    did, v2 = history[0].document.did, history[1].document
    client = _SlowOutage(history, clock, wait=0.0)
    resolver = Resolver(client, max_age=5.0)
    assert resolver.resolve(did) == v2
    clock.now += 5.0
    assert resolver.resolve(did) == v2  # exactly max_age old: still served
    assert client.calls == 1
    clock.now += 0.5
    assert resolver.resolve(did) == v2  # older than max_age: read again
    assert client.calls == 2
    resolver.expire(did)
    resolver.expire(create_registry_did(generate_keypair())[0])  # no record: nothing to do
    client.history = history[:1]
    with pytest.raises(RegistryError) as err:
        resolver.resolve(did)  # expired, but the next read must still reach version 2
    assert err.value.code == "unknown_did"
    assert client.calls == 3


class _Racing:
    """A registry client whose first read starts, then waits for `release`
    and serves version 1 only; every later read serves the whole history."""

    def __init__(self, history):
        self.history, self.calls = history, 0
        self.first_reading, self.release = threading.Event(), threading.Event()

    def resolve_did(self, did):
        self.calls += 1
        if self.calls > 1:
            return self.history
        self.first_reading.set()
        assert self.release.wait(10)
        return self.history[:1]


def test_resolver_keeps_the_later_version_when_refreshes_finish_out_of_order():
    _, history = _genuine_history(random.Random(8), 2)
    did, v2 = history[0].document.did, history[1].document
    client = _Racing(history)
    resolver = Resolver(client)
    slow = []
    first = threading.Thread(target=lambda: slow.append(resolver.refresh(did)))
    first.start()
    assert client.first_reading.wait(10)
    assert resolver.refresh(did) == v2
    client.release.set()
    first.join(10)
    assert slow == [v2]  # the slow read verified version 1, and version 2 stays
    assert resolver.resolve(did) == v2
    assert client.calls == 2


class _Jittery:
    """Answers with what `client` serves at the call, up to 1 ms later, so
    concurrent reads finish out of order."""

    def __init__(self, client):
        self.client = client

    def resolve_did(self, did):
        history = self.client.resolve_did(did)
        time.sleep(random.random() / 1000)
        return history


def test_concurrent_readers_never_see_a_version_go_back():
    _, history = _genuine_history(random.Random(9), 30)
    did = history[0].document.did
    client = _Serving(history[:1])
    resolver = Resolver(_Jittery(client), max_age=math.inf)  # resolve serves the record as it is
    went_back, done = [], threading.Event()

    def reader(read):
        last = 0
        while not done.is_set():
            version = read(did).version
            if version < last:
                went_back.append((last, version))
            last = version

    readers = [threading.Thread(target=reader, args=(read,))
               for read in (resolver.refresh, resolver.refresh, resolver.resolve, resolver.resolve)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in readers:
            thread.start()
        for length in range(2, len(history) + 1):
            time.sleep(0.002)
            client.history = history[:length]  # the registry gains a version
        time.sleep(0.01)
        done.set()
        for thread in readers:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert went_back == []
    assert resolver.refresh(did) == history[-1].document


def test_resolve_unknown_registry_did(registry):
    resolver = Resolver(registry)
    keys = generate_keypair()
    did, _ = create_registry_did(keys)
    with pytest.raises(RegistryError) as err:
        resolver.resolve(did)
    assert err.value.code == "unknown_did"


def test_resolve_registry_did_without_client_fails():
    keys = generate_keypair()
    did, _ = create_registry_did(keys)
    with pytest.raises(IdentityError):
        Resolver().resolve(did)
