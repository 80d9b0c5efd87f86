import json

import pytest

from sbacl.crypto import ed25519_sign
from sbacl.errors import RegistryError, UnknownDidError
from sbacl.identity import (
    create_registry_did,
    generate_keypair,
    rotate_document,
    self_sign_document,
)
from sbacl.vdr import Registry, revocation_request_bytes, revoke_request_bytes

from conftest import leaked_files, peer_identity


def register_identity(registry, endpoint=None):
    keys = generate_keypair()
    _, doc = create_registry_did(keys, endpoint)
    registry.register(self_sign_document(doc, keys))
    return keys, doc


def test_register_and_resolve(registry):
    keys, doc = register_identity(registry, "http://127.0.0.1:9")
    resolved = registry.resolve_did(str(doc.did))
    assert resolved == doc
    assert len(registry.versions(doc.did)) == 1


def test_register_rejects_duplicate(registry):
    keys, doc = register_identity(registry)
    with pytest.raises(RegistryError) as err:
        registry.register(self_sign_document(doc, keys))
    assert err.value.code == "already_exists"


def test_register_rejects_bad_self_signature(registry):
    keys = generate_keypair()
    _, doc = create_registry_did(keys)
    update = self_sign_document(doc, generate_keypair())
    with pytest.raises(RegistryError) as err:
        registry.register(update)
    assert err.value.code == "bad_signature"


def test_register_rejects_fingerprint_mismatch(registry):
    keys = generate_keypair()
    other = generate_keypair()
    did, _ = create_registry_did(keys)
    _, foreign_doc = create_registry_did(other)
    from dataclasses import replace
    forged = replace(foreign_doc, did=did)
    with pytest.raises(RegistryError) as err:
        registry.register(self_sign_document(forged, other))
    assert err.value.code == "bad_request"


def test_register_rejects_non_initial_version(registry):
    keys = generate_keypair()
    _, doc = create_registry_did(keys)
    from dataclasses import replace
    v2 = replace(doc, version=2)
    from sbacl.identity import SignedDocumentUpdate
    update = SignedDocumentUpdate(v2, ed25519_sign(keys.signing_secret, v2.canonical_bytes()))
    with pytest.raises(RegistryError) as err:
        registry.register(update)
    assert err.value.code == "bad_version"


def test_rotation_must_be_signed_by_previous_key(registry):
    keys, doc = register_identity(registry)
    new_keys = generate_keypair()

    wrong = rotate_document(doc, new_keys, new_keys.signing_secret)
    with pytest.raises(RegistryError) as err:
        registry.update(wrong)
    assert err.value.code == "bad_signature"

    good = rotate_document(doc, new_keys, keys.signing_secret)
    registry.update(good)
    assert registry.resolve_did(doc.did).version == 2

    # replaying the same update is now a version gap
    with pytest.raises(RegistryError) as err:
        registry.update(good)
    assert err.value.code == "version_gap"


def test_rotation_hash_mismatch(registry):
    keys, doc = register_identity(registry)
    new_keys = generate_keypair()
    update = rotate_document(doc, new_keys, keys.signing_secret)
    from dataclasses import replace
    tampered_doc = replace(update.document, prev_version_hash=b"\x00" * 32)
    from sbacl.identity import SignedDocumentUpdate
    tampered = SignedDocumentUpdate(
        tampered_doc, ed25519_sign(keys.signing_secret, tampered_doc.canonical_bytes())
    )
    with pytest.raises(RegistryError) as err:
        registry.update(tampered)
    assert err.value.code == "hash_mismatch"


def test_unknown_did_everywhere(registry):
    did, _ = create_registry_did(generate_keypair())
    with pytest.raises(UnknownDidError):
        registry.resolve_did(did)
    with pytest.raises(UnknownDidError):
        registry.versions(did)
    keys = generate_keypair()
    update = rotate_document(create_registry_did(keys)[1], generate_keypair(),
                             keys.signing_secret)
    with pytest.raises(UnknownDidError):
        registry.update(update)


# -- revocation registries -----------------------------------------------------------


def make_revreg(registry, keys, issuer_did, nonce=b"n" * 16):
    signature = ed25519_sign(keys.signing_secret, revocation_request_bytes(issuer_did, nonce))
    return registry.create_revocation_registry(issuer_did, nonce, signature)


def test_revocation_lifecycle_with_peer_issuer(registry):
    keys, issuer = peer_identity()
    registry_id = make_revreg(registry, keys, issuer)
    assert registry.check_status(registry_id, "cred-1") == "active"

    signature = ed25519_sign(keys.signing_secret, revoke_request_bytes(registry_id, "cred-1"))
    registry.revoke(registry_id, "cred-1", signature)
    assert registry.check_status(registry_id, "cred-1") == "revoked"
    registry.revoke(registry_id, "cred-1", signature)  # idempotent
    assert registry.check_status(registry_id, "cred-2") == "active"


def test_revocation_registry_creation_replay(registry):
    keys, issuer = peer_identity()
    make_revreg(registry, keys, issuer)
    with pytest.raises(RegistryError) as err:
        make_revreg(registry, keys, issuer)
    assert err.value.code == "already_exists"
    # a different nonce is a different registry
    assert make_revreg(registry, keys, issuer, nonce=b"m" * 16)


def test_revoke_requires_issuer_signature(registry):
    keys, issuer = peer_identity()
    registry_id = make_revreg(registry, keys, issuer)
    intruder = generate_keypair()
    signature = ed25519_sign(intruder.signing_secret,
                             revoke_request_bytes(registry_id, "cred-1"))
    with pytest.raises(RegistryError) as err:
        registry.revoke(registry_id, "cred-1", signature)
    assert err.value.code == "not_issuer"
    assert registry.check_status(registry_id, "cred-1") == "active"


def test_unknown_revocation_registry(registry):
    with pytest.raises(RegistryError) as err:
        registry.check_status("f" * 64, "cred-1")
    assert err.value.code == "unknown_registry"


# -- persistence -------------------------------------------------------------------


def test_log_replay_restores_state(tmp_path):
    log = tmp_path / "registry.jsonl"
    registry = Registry(log_path=log)
    keys, doc = register_identity(registry)
    new_keys = generate_keypair()
    registry.update(rotate_document(doc, new_keys, keys.signing_secret))
    peer_keys, peer_did = peer_identity()
    registry_id = make_revreg(registry, peer_keys, peer_did)
    registry.revoke(registry_id, "cred-9",
                    ed25519_sign(peer_keys.signing_secret,
                                 revoke_request_bytes(registry_id, "cred-9")))

    reloaded = Registry(log_path=log)
    assert reloaded.resolve_did(doc.did).version == 2
    assert reloaded.check_status(registry_id, "cred-9") == "revoked"
    assert reloaded.check_status(registry_id, "cred-10") == "active"


def test_log_replay_rejects_tampered_event(tmp_path):
    log = tmp_path / "registry.jsonl"
    registry = Registry(log_path=log)
    register_identity(registry)

    lines = log.read_text().splitlines()
    event = json.loads(lines[0])
    event["update"]["document"]["version"] = 7
    log.write_text(json.dumps(event) + "\n")

    with pytest.raises(RegistryError) as err:
        Registry(log_path=log)
    assert err.value.code == "corrupt_log"


def test_dropped_registry_leaves_no_file_open(tmp_path):
    log = tmp_path / "registry.jsonl"
    assert leaked_files(lambda: register_identity(Registry(log_path=log)), tmp_path) == []
    assert len(log.read_text().splitlines()) == 1


def test_log_replay_rejects_garbage_line(tmp_path):
    log = tmp_path / "registry.jsonl"
    log.write_text("not json at all\n")
    with pytest.raises(RegistryError) as err:
        Registry(log_path=log)
    assert err.value.code == "corrupt_log"


# -- HTTP parity ---------------------------------------------------------------------


def test_http_client_mirrors_registry(registry_http):
    registry, server, client = registry_http

    keys = generate_keypair()
    _, doc = create_registry_did(keys, "http://127.0.0.1:9")
    client.register(self_sign_document(doc, keys))
    assert client.resolve_did(doc.did) == doc

    with pytest.raises(RegistryError) as err:
        client.register(self_sign_document(doc, keys))
    assert err.value.code == "already_exists"

    new_keys = generate_keypair()
    client.update(rotate_document(doc, new_keys, keys.signing_secret))
    assert client.resolve_did(doc.did).version == 2
    assert len(client.versions(doc.did)) == 2

    with pytest.raises(UnknownDidError):
        client.resolve_did(str(create_registry_did(generate_keypair())[0]))

    peer_keys, peer_did = peer_identity()
    nonce = b"q" * 16
    registry_id = client.create_revocation_registry(
        peer_did, nonce,
        ed25519_sign(peer_keys.signing_secret, revocation_request_bytes(peer_did, nonce)),
    )
    assert client.check_status(registry_id, "c1") == "active"
    client.revoke(registry_id, "c1",
                  ed25519_sign(peer_keys.signing_secret,
                               revoke_request_bytes(registry_id, "c1")))
    assert client.check_status(registry_id, "c1") == "revoked"


def test_http_client_unreachable():
    from sbacl.errors import RegistryUnavailableError
    from sbacl.vdr_http import RegistryHttpClient

    client = RegistryHttpClient("http://127.0.0.1:1", timeout=0.2)
    with pytest.raises(RegistryUnavailableError):
        client.resolve_did("did:svdr:3yZe7d")


def test_http_put_path_must_match_body(registry_http):
    registry, server, client = registry_http
    keys = generate_keypair()
    _, doc = create_registry_did(keys)
    client.register(self_sign_document(doc, keys))
    update = rotate_document(doc, generate_keypair(), keys.signing_secret)

    import requests
    resp = requests.put(
        f"{client.base_url}/dids/did:svdr:Somethingelse1",
        json=update.to_dict(), timeout=5,
    )
    assert resp.status_code == 400
    assert resp.json()["error"] == "bad_request"