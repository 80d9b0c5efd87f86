import json
import logging

import pytest

from sbacl.crypto import ed25519_sign
from sbacl.errors import IdentityError, RegistryError, UnknownDidError
from sbacl.identity import (
    create_registry_did,
    generate_keypair,
    rotate_document,
    self_sign_document,
)
from sbacl.vdr import Registry, revoke_request_bytes

from conftest import leaked_files, registered_identity, speer_shaped_did


def register_identity(registry, endpoint=None):
    keys = generate_keypair()
    _, doc = create_registry_did(keys, endpoint)
    registry.register(self_sign_document(doc, keys))
    return keys, doc


def test_register_and_resolve(registry):
    keys, doc = register_identity(registry, "http://127.0.0.1:9")
    history = registry.resolve_did(doc.did)
    assert [update.document for update in history] == [doc]


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
    assert registry.resolve_did(doc.did)[-1] == good

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
    keys = generate_keypair()
    update = rotate_document(create_registry_did(keys)[1], generate_keypair(),
                             keys.signing_secret)
    with pytest.raises(UnknownDidError):
        registry.update(update)


# -- revocation registries: one per registered DID ------------------------------------


def test_revocation_lifecycle(registry):
    keys, registry_id = registered_identity(registry)
    assert registry.check_status(registry_id, ["cred-1"]) == {"cred-1": "active"}

    signature = ed25519_sign(keys.signing_secret, revoke_request_bytes(registry_id, "cred-1"))
    registry.revoke(registry_id, "cred-1", signature)
    assert registry.check_status(registry_id, ["cred-1"]) == {"cred-1": "revoked"}
    registry.revoke(registry_id, "cred-1", signature)  # idempotent
    assert registry.check_status(registry_id, ["cred-1", "cred-2"]) == {
        "cred-1": "revoked", "cred-2": "active",
    }
    assert registry.check_status(registry_id, []) == {}


def test_revoke_requires_issuer_signature(registry):
    keys, registry_id = registered_identity(registry)
    intruder = generate_keypair()
    signature = ed25519_sign(intruder.signing_secret,
                             revoke_request_bytes(registry_id, "cred-1"))
    with pytest.raises(RegistryError) as err:
        registry.revoke(registry_id, "cred-1", signature)
    assert err.value.code == "not_issuer"
    assert registry.check_status(registry_id, ["cred-1"]) == {"cred-1": "active"}


def test_only_a_registered_did_has_a_revocation_registry(registry):
    keys = generate_keypair()
    # unregistered, and of the removed self-contained method
    for issuer in (create_registry_did(keys)[0], speer_shaped_did(keys)):
        with pytest.raises(RegistryError) as err:
            registry.check_status(issuer, ["cred-1"])
        assert err.value.code == "unknown_registry"
        with pytest.raises(RegistryError) as err:
            registry.revoke(issuer, "cred-1", ed25519_sign(
                keys.signing_secret, revoke_request_bytes(issuer, "cred-1")))
        assert err.value.code == "unknown_registry"


def test_unknown_revocation_registry(registry):
    with pytest.raises(RegistryError) as err:
        registry.check_status("f" * 64, ["cred-1"])
    assert err.value.code == "unknown_registry"


# -- persistence -------------------------------------------------------------------


def test_log_replay_restores_state(tmp_path):
    log = tmp_path / "registry.jsonl"
    registry = Registry(log_path=log)
    keys, doc = register_identity(registry)
    new_keys = generate_keypair()
    registry.update(rotate_document(doc, new_keys, keys.signing_secret))
    # the issuer signs with the key its latest version names
    registry_id = doc.did
    registry.revoke(registry_id, "cred-9",
                    ed25519_sign(new_keys.signing_secret,
                                 revoke_request_bytes(registry_id, "cred-9")))

    reloaded = Registry(log_path=log)
    assert reloaded.resolve_did(doc.did) == registry.resolve_did(doc.did)
    assert len(reloaded.resolve_did(doc.did)) == 2
    assert reloaded.check_status(registry_id, ["cred-9", "cred-10"]) == {
        "cred-9": "revoked", "cred-10": "active",
    }


def test_reopening_a_registry_appends_nothing_to_its_log(tmp_path):
    log = tmp_path / "registry.jsonl"
    registry = Registry(log_path=log)
    keys, doc = register_identity(registry)
    new_keys = generate_keypair()
    registry.update(rotate_document(doc, new_keys, keys.signing_secret))
    registry.revoke(doc.did, "cred-1",
                    ed25519_sign(new_keys.signing_secret,
                                 revoke_request_bytes(doc.did, "cred-1")))
    written = log.read_text()
    assert len(written.splitlines()) == 3

    reopened = Registry(log_path=log)
    assert log.read_text() == written
    # the reopened registry still appends what happens after replay
    register_identity(reopened)
    assert len(log.read_text().splitlines()) == 4


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


def test_log_naming_a_created_revocation_registry_is_refused(tmp_path):
    # Revocation registries are registered DIDs; there is no creation event.
    log = tmp_path / "registry.jsonl"
    log.write_text(json.dumps({"event": "create_revreg", "issuer": "did:svdr:x",
                               "nonce": "AA", "signature": "AA"}) + "\n")
    with pytest.raises(RegistryError) as err:
        Registry(log_path=log)
    assert err.value.code == "corrupt_log"


def test_torn_last_line_is_cut_off_on_replay(tmp_path, caplog):
    log = tmp_path / "registry.jsonl"
    registry = Registry(log_path=log)
    docs = [register_identity(registry)[1] for _ in range(3)]
    log.write_bytes(log.read_bytes()[:-40])  # a crash in the middle of the third append
    with caplog.at_level(logging.WARNING, logger="sbacl.encoding"):
        reopened = Registry(log_path=log)
    assert "torn last line" in caplog.text
    assert reopened.resolve_did(docs[1].did)[-1].document == docs[1]
    with pytest.raises(UnknownDidError):
        reopened.resolve_did(docs[2].did)
    # the next append starts on a line of its own, so the log replays again
    _, fourth = register_identity(reopened)
    assert Registry(log_path=log).resolve_did(fourth.did)[-1].document == fourth


def test_bad_line_before_the_last_still_fails_replay(tmp_path):
    log = tmp_path / "registry.jsonl"
    register_identity(Registry(log_path=log))
    log.write_text('{"event": "regis\n' + log.read_text())
    with pytest.raises(RegistryError) as err:
        Registry(log_path=log)
    assert err.value.code == "corrupt_log"


# -- HTTP parity ---------------------------------------------------------------------


def test_http_client_mirrors_registry(registry_http):
    registry, server, client = registry_http

    keys = generate_keypair()
    _, doc = create_registry_did(keys, "http://127.0.0.1:9")
    client.register(self_sign_document(doc, keys))
    assert client.resolve_did(doc.did) == registry.resolve_did(doc.did)
    assert client.resolve_did(doc.did)[0].document == doc

    with pytest.raises(RegistryError) as err:
        client.register(self_sign_document(doc, keys))
    assert err.value.code == "already_exists"

    new_keys = generate_keypair()
    client.update(rotate_document(doc, new_keys, keys.signing_secret))
    assert client.resolve_did(doc.did) == registry.resolve_did(doc.did)
    assert [v.document.version for v in client.resolve_did(doc.did)] == [1, 2]

    with pytest.raises(UnknownDidError):
        client.resolve_did(create_registry_did(generate_keypair())[0])

    issuer_keys, registry_id = registered_identity(registry)
    assert client.check_status(registry_id, ["c1"]) == {"c1": "active"}
    client.revoke(registry_id, "c1",
                  ed25519_sign(issuer_keys.signing_secret,
                               revoke_request_bytes(registry_id, "c1")))
    assert client.check_status(registry_id, ["c1", "c2"]) == {"c1": "revoked", "c2": "active"}


def test_http_client_unreachable():
    from sbacl.errors import RegistryUnavailableError
    from sbacl.vdr_http import RegistryHttpClient

    client = RegistryHttpClient("http://127.0.0.1:1", timeout=0.2)
    with pytest.raises(RegistryUnavailableError):
        client.resolve_did("did:svdr:3yZe7d")


@pytest.mark.parametrize("answer", [
    {"document": {"id": "did:svdr:3yZe7d", "version": 1}},  # one document, no history
    {"versions": "abc"},
    {"versions": [{"document": {"id": 5, "version": 1, "signingKey": "AA",
                                "agreementKey": "AA"}, "signature": "AA"}]},
    [1],
])
def test_http_client_refuses_a_malformed_history(answer):
    from sbacl.httputil import HttpService, QuietHandler
    from sbacl.vdr_http import RegistryHttpClient

    class Answering(QuietHandler):
        def do_GET(self):
            self.send_json(200, answer)

    server = HttpService(Answering).start()
    client = RegistryHttpClient(server.base_url)
    try:
        with pytest.raises(IdentityError):
            client.resolve_did("did:svdr:3yZe7d")
    finally:
        server.stop()
        client._http.close()


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

def test_http_status_read_takes_a_list_of_ids(registry_http):
    registry, _, client = registry_http
    _, registry_id = registered_identity(registry)

    import requests
    for ids in ("c1", [1, 2], None):
        resp = requests.post(f"{client.base_url}/revocation-registries/{registry_id}/status",
                             json={"credentialIds": ids}, timeout=5)
        assert resp.status_code == 400
        assert resp.json()["error"] == "bad_request"
    with pytest.raises(RegistryError) as err:
        client.check_status("f" * 64, ["c1"])
    assert err.value.code == "unknown_registry"


def test_http_wrongly_typed_body_is_a_bad_request(registry_http):
    registry, _, client = registry_http
    _, registry_id = registered_identity(registry)

    import requests
    base = f"{client.base_url}/revocation-registries/{registry_id}"
    for path, body in (("status", []), ("revocations", {"credentialId": "c1", "signature": 5})):
        resp = requests.post(f"{base}/{path}", json=body, timeout=5)
        assert (resp.status_code, resp.json()["error"]) == (400, "bad_request")
    assert client.check_status(registry_id, ["c1"]) == {"c1": "active"}
