import json
import logging
import math
import socket
import sys
import threading
import time
import uuid
from dataclasses import replace

import pytest
import requests

from sbacl.credentials import (
    KIND_AUTHN,
    KIND_AUTHZ,
    KIND_DEL,
    VerifiableCredential,
    build_presentation,
    fresh_challenge,
    issue_credential,
)
from sbacl.crypto import ed25519_sign
from sbacl.encoding import b64u_decode, b64u_encode
from sbacl.envelope import (
    MAX_FRAME,
    MSG_DENY,
    MSG_PRESENT_REQUEST,
    MSG_PRESENTATION,
    MSG_TUNNEL_REQUEST,
    MSG_TUNNEL_RESPONSE,
    ProtocolMessage,
    encode_wire,
    pack,
)
from sbacl.envelope_http import EnvelopeChannel
from sbacl.httputil import HttpService, QuietHandler
from sbacl.identity import (
    SignedDocumentUpdate,
    create_registry_did,
    generate_keypair,
    self_sign_document,
)
from sbacl.ipmf import Ipmf
from sbacl.mocknf import Behavior, MockNf
from sbacl.sidecar import Association, AssociationStore, LocalService, RouteRule, Sidecar
from sbacl.vdr import Registry
from sbacl.vdr_http import RegistryHttpClient, RegistryServer

from conftest import speer_shaped_did


@pytest.fixture()
def world(tmp_path):
    w = World(tmp_path)
    yield w
    w.shutdown()


class World:
    """A producer/consumer sidecar pair under one root, on live listeners."""

    def __init__(self, tmp_path, consumer_grants=None):
        self.tmp_path = tmp_path
        self.registry = Registry()
        self.root = Ipmf("root", self.registry, allow_direct_issuance=True)
        self.root.bootstrap(serve=False)
        self.started = []

        behaviors = [
            Behavior("GET", "/nudm-sdm/v2/data", 200, {"data": "subscriber"}),
            Behavior("POST", "/nudm-uecm/v1/registrations", 201, {"registered": True}),
            Behavior("DELETE", "/nudm-sdm/v2/data", 200, {"deleted": True}),
        ]
        self.producer_nf = MockNf("UDM-1-nf", "UDM", behaviors).start()
        self.started.append(self.producer_nf.stop)
        self.consumer_nf = MockNf("AMF-1-nf", "AMF", []).start()
        self.started.append(self.consumer_nf.stop)

        self.producer = Sidecar(
            "UDM-1", "UDM", self.registry,
            local_nf_url=self.producer_nf.base_url,
            trusted_roots=[self.root.did],
            local_services=[
                LocalService("nudm-sdm", "/nudm-sdm/"),
                LocalService("nudm-uecm", "/nudm-uecm/"),
            ],
            association_store=tmp_path / "producer.assoc",
        )
        self.producer.bootstrap()
        self.started.append(self.producer.shutdown)

        if consumer_grants is None:
            consumer_grants = [
                {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"},
                {"producer": "UDM", "service": "nudm-uecm", "ops": "POST"},
            ]
        self.consumer = self.make_consumer("AMF-1", consumer_grants,
                                           store=tmp_path / "consumer.assoc")

        self.provision(self.producer, {"nf_type": "UDM", "domain": "core"}, [])

    def make_consumer(self, name, grants, store=None, keys=None, registry=None, **kwargs):
        consumer = Sidecar(
            name, "AMF", registry or self.registry,
            local_nf_url=self.consumer_nf.base_url,
            trusted_roots=[self.root.did],
            routes=[RouteRule(host="UDM-1", target_did=self.producer.did)],
            association_store=store,
            keys=keys,
            **kwargs,
        )
        consumer.bootstrap()
        self.started.append(consumer.shutdown)
        self.provision(consumer, {"nf_type": "AMF", "domain": "core"}, grants)
        return consumer

    def provision(self, sidecar, authn_claims, grants):
        sidecar.add_credential(
            self.root.issue_credential_to(sidecar.did, KIND_AUTHN, authn_claims))
        for claims in grants:
            sidecar.add_credential(
                self.root.issue_credential_to(sidecar.did, KIND_AUTHZ, claims))

    def shutdown(self):
        for stop in reversed(self.started):
            stop()

    def call(self, method, path, body=None, headers=None, consumer=None, data=None):
        consumer = consumer or self.consumer
        merged = {"Host": "UDM-1"}
        merged.update(headers or {})
        return requests.request(method, consumer.intercept_url + path,
                                headers=merged,
                                data=json.dumps(body) if body is not None else data,
                                timeout=10)


# --- happy paths ---------------------------------------------------------------


def test_tunneled_get(world):
    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert resp.status_code == 200
    assert resp.json() == {"data": "subscriber"}
    assert world.producer_nf.requests[-1] == ("GET", "/nudm-sdm/v2/data")
    assert world.consumer.handshakes_initiated == 1


def test_tunneled_post_with_body(world):
    resp = world.call("POST", "/nudm-uecm/v1/registrations", body={"imsi": "001"})
    assert resp.status_code == 201
    assert resp.json() == {"registered": True}


def test_handshake_happens_once(world):
    for _ in range(3):
        assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    assert world.consumer.handshakes_initiated == 1

    assert (world.producer.did, "outbound") in world.consumer.associations
    inbound = world.producer.associations[(world.consumer.did, "inbound")]
    assert {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"} in inbound.authz_claims


def test_forget_peer_forces_rehandshake(world):
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    world.consumer.forget_peer(world.producer.did)
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    assert world.consumer.handshakes_initiated == 2


# --- enforcement ----------------------------------------------------------------


def test_ungranted_operation_is_denied_before_the_nf(world):
    before = world.producer_nf.request_count()
    resp = world.call("DELETE", "/nudm-sdm/v2/data")
    assert resp.status_code == 403
    assert resp.json() == {"error": "authorization_denied"}
    assert world.producer_nf.request_count() == before


def test_unknown_path_fails_closed(world):
    before = world.producer_nf.request_count()
    resp = world.call("GET", "/nsmf-pdusession/v1/sm-contexts")
    assert resp.status_code == 403
    assert world.producer_nf.request_count() == before


def test_consumer_without_grant_cannot_associate(world, tmp_path):
    lurker = world.make_consumer("AMF-2", grants=[], store=None)
    resp = world.call("GET", "/nudm-sdm/v2/data", consumer=lurker)
    assert resp.status_code == 502
    assert resp.json()["error"] == "handshake_rejected"
    assert world.producer_nf.request_count() == 0


def test_no_route_for_unknown_host(world):
    resp = world.call("GET", "/nudm-sdm/v2/data", headers={"Host": "PCF-1"})
    assert resp.status_code == 502
    assert resp.json()["error"] == "no_route"


def test_revoked_authz_blocks_the_next_handshake(world):
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    for vc in world.consumer.authz_creds:
        world.root.revoke_credential(vc.credential_id)
    world.consumer.forget_peer(world.producer.did)
    count_before = world.producer_nf.request_count()
    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert resp.status_code == 502
    assert resp.json()["error"] == "handshake_rejected"
    assert world.producer_nf.request_count() == count_before


# --- header hygiene --------------------------------------------------------------


class _EchoHandler(QuietHandler):
    def do_GET(self):
        self.read_body()
        received = {k: v for k, v in self.headers.items()}
        self.send_bytes(200, json.dumps(received).encode("utf-8"),
                        "application/json", [("X-Upstream", "yes")])


def test_hop_headers_do_not_cross_the_tunnel(world, tmp_path):
    echo = HttpService(_EchoHandler, "127.0.0.1", 0)
    echo.start()
    try:
        producer = Sidecar(
            "UDM-2", "UDM", world.registry,
            local_nf_url=echo.base_url,
            trusted_roots=[world.root.did],
            local_services=[LocalService("nudm-sdm", "/nudm-sdm/")],
        )
        producer.bootstrap()
        world.started.append(producer.shutdown)
        world.provision(producer, {"nf_type": "UDM", "domain": "core"}, [])

        consumer = Sidecar(
            "AMF-3", "AMF", world.registry,
            local_nf_url=world.consumer_nf.base_url,
            trusted_roots=[world.root.did],
            routes=[RouteRule(host="UDM-2", target_did=producer.did)],
        )
        consumer.bootstrap()
        world.started.append(consumer.shutdown)
        world.provision(consumer, {"nf_type": "AMF", "domain": "core"},
                        [{"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}])

        resp = requests.get(
            consumer.intercept_url + "/nudm-sdm/v2/data",
            headers={"Host": "UDM-2", "X-Custom": "abc",
                     "Te": "sentinel", "Upgrade": "h2c"},
            timeout=10,
        )
        assert resp.status_code == 200
        seen = resp.json()
        assert seen.get("X-Custom") == "abc"
        assert seen.get("Te") is None
        assert seen.get("Upgrade") is None
        # the Host the local NF sees is its own, not the route alias
        assert "UDM-2" not in seen.get("Host", "")
        # non-hop response headers survive the tunnel
        assert resp.headers.get("X-Upstream") == "yes"
    finally:
        echo.stop()


@pytest.mark.parametrize("framing", [("Content-Length", "0"),
                                     ("Transfer-Encoding", "chunked")])
def test_peer_framing_headers_cannot_smuggle_a_second_request(world, framing):
    # An associated peer that bypasses its own sidecar's header filter must
    # not frame the body for the local NF: the smuggled DELETE below was
    # never authorized and must not reach it.
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    smuggled = (b"DELETE /nudm-sdm/v2/data HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 0\r\n\r\n")
    msg = ProtocolMessage(MSG_TUNNEL_REQUEST, {
        "method": "POST",
        "path": "/nudm-uecm/v1/registrations",
        "headers": [list(framing)],
    }, payload=smuggled)
    reply = world.producer.handle_inbound(msg, world.consumer.did)
    assert reply.body["status"] == 201
    time.sleep(0.3)  # the NF would serve a smuggled request right after
    assert list(world.producer_nf.requests) == [
        ("GET", "/nudm-sdm/v2/data"), ("POST", "/nudm-uecm/v1/registrations")]


@pytest.mark.parametrize("field,value", [
    ("path", None),  # None: the field is missing
    ("path", 7),
    ("method", ["GET"]),
    ("method", None),
    ("headers", "abc"),
    # explicit ids keep each case's name stable when cases are added or removed
    pytest.param("headers", [["a"]], id="headers-value6"),
    pytest.param("headers", [[1, "x"]], id="headers-value7"),
    # unpacks into a pair unless pairs must be lists
    pytest.param("headers", ["ab"], id="headers-value8"),
])
def test_malformed_tunnel_frame_is_refused_before_the_nf(world, field, value):
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    frame = {"method": "GET", "path": "/nudm-sdm/v2/data", "headers": []}
    if value is None:
        del frame[field]
    else:
        frame[field] = value
    reply = world.producer.handle_inbound(ProtocolMessage(MSG_TUNNEL_REQUEST, frame),
                                          world.consumer.did)
    assert reply.type == MSG_TUNNEL_RESPONSE
    assert reply.body["status"] == 400
    assert json.loads(reply.payload) == {"error": "malformed_message"}
    assert list(world.producer_nf.requests) == [("GET", "/nudm-sdm/v2/data")]


@pytest.mark.parametrize("field,value", [
    ("status", None),
    ("status", "ok"),
    ("thread_id", "another-thread"),
    pytest.param("headers", [["x"]], id="headers-value4"),
    ("headers", "abc"),
    pytest.param("headers", [[1, "x"]], id="headers-value6"),
])
def test_malformed_tunnel_response_is_a_tunnel_failure(world, field, value):
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    answer = world.producer._on_tunnel_request

    def garbling(msg, sender):
        reply = answer(msg, sender)
        if field == "thread_id":  # the reply's only tie to its request
            reply.thread_id = value
        elif value is None:
            del reply.body[field]
        else:
            reply.body[field] = value
        return reply

    world.producer._on_tunnel_request = garbling
    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert resp.status_code == 502
    assert resp.json()["error"] == "tunnel_failed"


def test_undecodable_peer_reply_is_a_tunnel_failure(world):
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    request = world.consumer.http.request

    def truncating(*args, **kwargs):
        status, headers, body = request(*args, **kwargs)
        return status, headers, body[:-1]

    world.consumer.http.request = truncating
    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert resp.status_code == 502
    assert resp.json()["error"] == "tunnel_failed"


# --- restarts and state loss -------------------------------------------------------


def test_consumer_restart_reuses_association(world, tmp_path):
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    keys = world.consumer.keys
    store = world.consumer._store.path
    world.consumer.shutdown()

    reborn = Sidecar(
        "AMF-1", "AMF", world.registry,
        local_nf_url=world.consumer_nf.base_url,
        trusted_roots=[world.root.did],
        routes=[RouteRule(host="UDM-1", target_did=world.producer.did)],
        association_store=store,
        keys=keys,
    )
    reborn.bootstrap()
    world.started.append(reborn.shutdown)
    # operational credentials live in memory; a supervisor would re-add them
    for vc in world.consumer.authn_creds + world.consumer.authz_creds:
        reborn.add_credential(vc)

    resp = world.call("GET", "/nudm-sdm/v2/data", consumer=reborn)
    assert resp.status_code == 200
    assert reborn.handshakes_initiated == 0


GRANT = {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}


def test_forgotten_association_stays_forgotten_after_restart(world):
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    world.consumer.forget_peer(world.producer.did)
    world.consumer.shutdown()

    reborn = world.make_consumer("AMF-1", [GRANT], store=world.consumer._store.path,
                                 keys=world.consumer.keys)
    assert (world.producer.did, "outbound") not in reborn.associations
    assert world.call("GET", "/nudm-sdm/v2/data", consumer=reborn).status_code == 200
    assert reborn.handshakes_initiated == 1


def test_association_store_stays_bounded_under_churn(world):
    cycles = AssociationStore.COMPACT_FLOOR + 8
    for _ in range(cycles):
        assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
        world.consumer.forget_peer(world.producer.did)
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    assert world.consumer.handshakes_initiated == cycles + 1

    for sidecar in (world.consumer, world.producer):
        lines = sidecar._store.path.read_text().splitlines()
        assert len(lines) <= 2 * len(sidecar.associations) + AssociationStore.COMPACT_FLOOR
        assert AssociationStore(sidecar._store.path).load() == sidecar.associations


def test_forget_during_a_handshake_leaves_memory_and_store_agreeing(world):
    consumer = world.consumer
    entered, release = threading.Event(), threading.Event()
    append = consumer._store.append

    def held_append(assoc):
        entered.set()
        release.wait(10)
        append(assoc)

    consumer._store.append = held_append
    caller = threading.Thread(target=world.call, args=("GET", "/nudm-sdm/v2/data"))
    caller.start()
    try:
        assert entered.wait(10)
        consumer.forget_peer(world.producer.did)
    finally:
        release.set()
        caller.join(10)
    assert not caller.is_alive()
    assert AssociationStore(consumer._store.path).load() == consumer.associations


def test_producer_state_loss_triggers_one_rehandshake(world):
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    world.producer.associations.clear()

    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert resp.status_code == 200
    assert world.consumer.handshakes_initiated == 2
    assert (world.consumer.did, "inbound") in world.producer.associations


def test_producer_full_restart(world, tmp_path):
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    keys = world.producer.keys
    world.producer.shutdown()

    reborn = Sidecar(
        "UDM-1", "UDM", world.registry,
        local_nf_url=world.producer_nf.base_url,
        trusted_roots=[world.root.did],
        local_services=[
            LocalService("nudm-sdm", "/nudm-sdm/"),
            LocalService("nudm-uecm", "/nudm-uecm/"),
        ],
        association_store=tmp_path / "producer2.assoc",  # wiped store
        keys=keys,
    )
    reborn.bootstrap()
    world.started.append(reborn.shutdown)
    for vc in world.producer.authn_creds:
        reborn.add_credential(vc)
    # the endpoint moved: the published document gained a version
    assert reborn.doc_version == 2

    # expired pin plus refresh enabled lets the consumer find the new
    # endpoint, then the wiped store costs exactly one re-handshake
    world.consumer.resolver.max_age = 0.0
    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert resp.status_code == 200
    assert world.consumer.handshakes_initiated == 2


# --- key rotation ------------------------------------------------------------------


def test_rotation_with_refresh_continues(world):
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    world.producer.rotate_keys()
    assert world.producer.doc_version == 2
    world.consumer.resolver.max_age = 0.0  # every call re-checks the registry
    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert resp.status_code == 200


def test_rotation_without_refresh_surfaces_stale_key(world):
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    world.consumer.resolver.max_age = math.inf
    world.producer.rotate_keys()
    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert resp.status_code == 502
    assert resp.json()["error"] == "stale_peer_key"

    # the explicit operator refresh repairs it
    world.consumer.resolver.refresh(world.producer.did)
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200


# --- a registry that lies ------------------------------------------------------------


class _LyingRegistry:
    """Answers as `registry` does, except for the methods given as keywords."""

    def __init__(self, registry, **lies):
        self._registry, self._lies = registry, lies

    def __getattr__(self, name):
        return self._lies.get(name) or getattr(self._registry, name)


def _serving(registry, did, lie):
    """A registry that passes `did`'s true history through `lie`."""
    def resolve_did(asked):
        history = registry.resolve_did(asked)
        return lie(history) if str(asked) == did else history
    return _LyingRegistry(registry, resolve_did=resolve_did)


def _swap_agreement_key(key):
    """A lie: the latest version names `key` as its agreement key."""
    def lie(history):
        *older, last = history
        return older + [SignedDocumentUpdate(replace(last.document, agreement_key=key),
                                             last.signature)]
    return lie


def _refused_as(resp, status, code):
    assert resp.status_code == status, resp.text
    assert resp.json()["error"] == code
    return resp.json().get("detail") or resp.json().get("message")


def test_forged_peer_document_is_unknown_peer(world):
    attacker = generate_keypair()
    consumer = world.make_consumer(
        "AMF-2", [{"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}],
        registry=_serving(world.registry, world.producer.did,
                          _swap_agreement_key(attacker.agreement_public)))
    resp = world.call("GET", "/nudm-sdm/v2/data", consumer=consumer)
    assert "bad_signature" in _refused_as(resp, 502, "unknown_peer")
    assert world.producer_nf.request_count() == 0


def test_envelope_from_a_forged_sender_document_is_unknown_sender(world):
    attacker = generate_keypair()
    victim = world.consumer.did
    world.producer.resolver.registry_client = _serving(
        world.registry, victim, _swap_agreement_key(attacker.agreement_public))
    msg = ProtocolMessage(MSG_TUNNEL_REQUEST, {
        "method": "GET", "path": "/nudm-sdm/v2/data", "headers": [],
    })
    wire = encode_wire(pack(msg, attacker, victim, world.producer.current_doc))
    resp = requests.post(world.producer.peer_endpoint + "/envelope", data=wire, timeout=10)
    assert "bad_signature" in _refused_as(resp, 400, "unknown_sender")
    assert world.producer_nf.request_count() == 0


def test_rolled_back_peer_document_is_unknown_peer(world):
    world.producer.rotate_keys()
    assert world.consumer.resolver.resolve(world.producer.did).version == 2
    world.consumer.resolver.registry_client = _serving(
        world.registry, world.producer.did, lambda history: history[:1])
    world.consumer.resolver.max_age = 0.0  # the call re-reads the history
    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert "bad_version" in _refused_as(resp, 502, "unknown_peer")
    assert world.producer_nf.request_count() == 0


def test_forget_peer_keeps_rollback_protection(world):
    world.producer.rotate_keys()
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    world.consumer.forget_peer(world.producer.did)
    world.consumer.resolver.registry_client = _serving(
        world.registry, world.producer.did, lambda history: history[:1])
    served = world.producer_nf.request_count()
    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert "bad_version" in _refused_as(resp, 502, "unknown_peer")
    assert world.producer_nf.request_count() == served


def test_unregistered_route_target_is_unknown_peer(world):
    ghost = create_registry_did(generate_keypair())[0]
    world.consumer.routes.insert(0, RouteRule(host="UDM-9", target_did=ghost))
    resp = world.call("GET", "/nudm-sdm/v2/data", headers={"Host": "UDM-9"})
    assert ghost in _refused_as(resp, 502, "unknown_peer")
    assert world.producer_nf.request_count() == 0


def test_unknown_revocation_registry_is_a_registry_refusal(world):
    world.producer.authn_creds[:] = [issue_credential(
        world.root.keys, world.root.did, KIND_AUTHN, world.producer.did,
        {"nf_type": "UDM", "domain": "core"}, revocation_registry_id="0" * 64)]
    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert "unknown_registry" in _refused_as(resp, 502, "registry_refused")
    assert world.producer_nf.request_count() == 0


def test_unknown_revocation_registry_of_the_consumer_is_denied(world, caplog):
    world.consumer.authz_creds[:] = [issue_credential(
        world.root.keys, world.root.did, KIND_AUTHZ, world.consumer.did,
        {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"},
        revocation_registry_id="00" * 32)]
    with caplog.at_level(logging.INFO):
        resp = world.call("GET", "/nudm-sdm/v2/data")
    assert "revocation_unchecked" in _refused_as(resp, 502, "handshake_rejected")
    assert world.producer_nf.request_count() == 0
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []


def _self_signed(keys, did, kind, claims, chain=()):
    vc = VerifiableCredential(str(uuid.uuid4()), kind, did, did, claims, int(time.time()),
                              delegation_chain=list(chain))
    vc.proof = ed25519_sign(keys.signing_secret, vc.signing_bytes())
    return vc


@pytest.mark.parametrize("case", ["non-string-rights", "unknown-kind"])
def test_malformed_presented_credential_is_denied_without_a_traceback(world, case, caplog):
    stranger = Sidecar("stranger", "AMF", world.registry, world.consumer_nf.base_url,
                       trusted_roots=[world.root.did])
    stranger.bootstrap()
    world.started.append(stranger.shutdown)
    keys, did = stranger.keys, stranger.did
    if case == "non-string-rights":
        link = _self_signed(keys, did, KIND_DEL, {"rights": 5})
        vc = _self_signed(keys, did, KIND_AUTHN, {"nf_type": "AMF"}, [link])
    else:
        link = _self_signed(keys, did, KIND_DEL, {"rights": "issue_authn"})
        vc = _self_signed(keys, did, "Foo", {"nf_type": "AMF"}, [link])
    channel = EnvelopeChannel(stranger, world.producer.did)
    with caplog.at_level(logging.INFO):
        reply = channel.request(ProtocolMessage(
            MSG_PRESENT_REQUEST, {"challenge": b64u_encode(fresh_challenge())}))
        assert reply.type == MSG_PRESENTATION
        vp = build_presentation(keys, did, [vc], b64u_decode(reply.body["challenge"]))
        denied = channel.request(reply.reply(MSG_PRESENTATION, {"presentation": vp.to_dict()}))
    assert (denied.type, denied.body) == (MSG_DENY, {"reason": "malformed_message"})
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []
    assert world.producer_nf.request_count() == 0


def test_envelope_from_a_speer_did_is_an_unknown_sender(world):
    keys = generate_keypair()
    sender = speer_shaped_did(keys)
    msg = ProtocolMessage(MSG_PRESENT_REQUEST, {
        "challenge": b64u_encode(fresh_challenge())})
    wire = encode_wire(pack(msg, keys, sender, world.producer.current_doc))
    resp = requests.post(world.producer.peer_endpoint + "/envelope", data=wire, timeout=10)
    _refused_as(resp, 400, "unknown_sender")
    assert len(world.producer.responder.sessions) == 0


@pytest.mark.parametrize("key", [b"\0" * 32, b"short"], ids=["low-order", "5-bytes"])
def test_an_unusable_agreement_key_is_an_unknown_party(world, key, caplog):
    # a registered DID whose document publishes an agreement key that yields no secret
    keys = generate_keypair()
    did, doc = create_registry_did(keys, world.producer.peer_endpoint)
    world.registry.register(self_sign_document(replace(doc, agreement_key=key), keys))
    msg = ProtocolMessage(MSG_PRESENT_REQUEST, {
        "challenge": b64u_encode(fresh_challenge())})
    wire = encode_wire(pack(msg, keys, did, world.producer.current_doc))
    with caplog.at_level(logging.INFO):
        resp = requests.post(world.producer.peer_endpoint + "/envelope", data=wire, timeout=10)
        assert did in _refused_as(resp, 400, "unknown_sender")
        world.consumer.routes.insert(0, RouteRule(host="UDM-9", target_did=did))
        resp = world.call("GET", "/nudm-sdm/v2/data", headers={"Host": "UDM-9"})
        assert did in _refused_as(resp, 502, "unknown_peer")
    assert len(world.producer.responder.sessions) == 0
    assert world.producer_nf.request_count() == 0
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []


def test_unanswered_revocation_status_is_unchecked(world):
    world.consumer.resolver.registry_client = _LyingRegistry(
        world.registry, check_status=lambda registry_id, credential_ids: {})
    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert "gave no status" in _refused_as(resp, 502, "revocation_unchecked")
    assert world.producer_nf.request_count() == 0


def test_registry_outage_keeps_the_stale_peer_document(world, caplog):
    server = RegistryServer(world.registry).start()
    world.started.append(server.stop)
    consumer = world.make_consumer(
        "AMF-2", [{"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}],
        registry=RegistryHttpClient(server.base_url, timeout=2.0))
    assert world.call("GET", "/nudm-sdm/v2/data", consumer=consumer).status_code == 200

    consumer.resolver.max_age = 0.0  # the peer document is due for refresh on every call
    server.stop()
    with caplog.at_level(logging.WARNING, logger="sbacl.identity"):
        resp = world.call("GET", "/nudm-sdm/v2/data", consumer=consumer)
    assert resp.status_code == 200
    assert resp.json() == {"data": "subscriber"}
    assert "keeping stale document" in caplog.text
    assert consumer.handshakes_initiated == 1


def test_registry_outage_without_a_cached_peer_document_is_unavailable(world):
    server = RegistryServer(world.registry).start()
    world.started.append(server.stop)
    consumer = world.make_consumer(
        "AMF-2", [{"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}],
        registry=RegistryHttpClient(server.base_url, timeout=2.0))
    server.stop()
    resp = world.call("GET", "/nudm-sdm/v2/data", consumer=consumer)
    assert resp.status_code == 503
    assert resp.json()["error"] == "registry_unavailable"
    assert world.producer_nf.request_count() == 0


# --- unreachable hops -------------------------------------------------------------


def test_unreachable_peer_answers_peer_timeout(world):
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    world.producer.shutdown()  # the consumer's pooled connection is severed too
    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert resp.status_code == 504
    assert resp.json()["error"] == "peer_timeout"


def test_unreachable_local_nf_answers_local_nf_unreachable(world):
    assert world.call("GET", "/nudm-sdm/v2/data").status_code == 200
    world.producer_nf.stop()
    resp = world.call("GET", "/nudm-sdm/v2/data")
    assert resp.status_code == 502
    assert resp.json() == {"error": "local_nf_unreachable"}


# --- oversized bodies -------------------------------------------------------------


def test_oversized_intercepted_body_is_refused(world):
    # associate first, through an ungranted operation the NF never sees
    assert world.call("DELETE", "/nudm-sdm/v2/data").status_code == 403
    started = time.monotonic()
    resp = world.call("POST", "/nudm-uecm/v1/registrations", data=bytes(MAX_FRAME + 1024 ** 2))
    assert time.monotonic() - started < 1.0
    assert resp.status_code == 413
    assert resp.json()["error"] == "body_too_large"
    assert world.producer_nf.request_count() == 0


def _post_headers_only(server, content_length) -> tuple[bytes, bytes]:
    """POST a bare head declaring `content_length` and send no body; returns
    the answer's head and body once the server has closed the connection."""
    with socket.create_connection((server.host, server.port), timeout=1.0) as sock:
        sock.sendall(f"POST /envelope HTTP/1.1\r\nHost: {server.host}\r\n"
                     f"Content-Length: {content_length}\r\n\r\n".encode())
        answer = b""
        while chunk := sock.recv(4096):  # the server closes after answering
            answer += chunk
    head, _, body = answer.partition(b"\r\n\r\n")
    return head, body


def test_oversized_envelope_is_refused_unread(world):
    started = time.monotonic()
    head, body = _post_headers_only(world.producer.peer_server, MAX_FRAME + 1)
    assert time.monotonic() - started < 1.0
    assert head.startswith(b"HTTP/1.1 413")
    assert json.loads(body) == {"error": "frame_too_large"}
    assert world.producer_nf.request_count() == 0


@pytest.mark.parametrize("listener", ["peer_server", "intercept_server"])
@pytest.mark.parametrize("content_length", ["abc", "-1"])
def test_unparseable_content_length_is_refused(world, listener, content_length):
    head, body = _post_headers_only(getattr(world.producer, listener), content_length)
    assert head.startswith(b"HTTP/1.1 400")
    assert b"\r\nconnection: close" in head.lower()
    assert json.loads(body) == {"error": "bad_content_length"}
    assert world.producer_nf.request_count() == 0


class _HugeReplyHandler(QuietHandler):
    def do_GET(self):
        self.send_bytes(200, bytes(MAX_FRAME + 1))


def test_reply_over_the_frame_limit_is_refused_without_a_traceback(world, caplog):
    huge = HttpService(_HugeReplyHandler).start()
    world.started.append(huge.stop)
    world.producer.local_nf_url = huge.base_url
    with caplog.at_level(logging.WARNING, logger="sbacl"):
        resp = world.call("GET", "/nudm-sdm/v2/data")
    assert resp.status_code == 502
    assert resp.json() == {"error": "tunnel_failed",
                           "detail": "peer returned HTTP 502: response_too_large"}
    assert [r.exc_info for r in caplog.records] == [None] * len(caplog.records)


# --- association store -------------------------------------------------------------


def test_association_store_last_record_wins(tmp_path):
    path = tmp_path / "assoc.jsonl"
    store = AssociationStore(path)
    first = Association(peer="did:svdr:p", direction="outbound",
                        authz_claims=[{"producer": "AUSF"}])
    second = Association(peer="did:svdr:p", direction="outbound",
                         authz_claims=[{"producer": "PCF"}])
    other = Association(peer="did:svdr:q", direction="inbound",
                        authz_claims=[{"producer": "UDM"}])
    for assoc in (first, second, other):
        store.append(assoc)

    loaded = AssociationStore(path).load()
    assert loaded[("did:svdr:p", "outbound")].authz_claims == [{"producer": "PCF"}]
    assert loaded[("did:svdr:q", "inbound")].authz_claims == [{"producer": "UDM"}]


def test_association_store_loads_records_that_carry_established(tmp_path):
    path = tmp_path / "assoc.jsonl"
    path.write_text(json.dumps({"peer": "did:svdr:p", "direction": "inbound",
                                "established": True, "authz_claims": [{"producer": "UDM"}],
                                "created_at": 1}) + "\n")
    loaded = AssociationStore(path).load()
    assert loaded == {("did:svdr:p", "inbound"): Association(
        peer="did:svdr:p", direction="inbound", authz_claims=[{"producer": "UDM"}])}


def test_association_store_corruption_degrades_to_empty(tmp_path):
    path = tmp_path / "assoc.jsonl"
    good = Association(peer="did:svdr:p", direction="outbound")
    AssociationStore(path).append(good)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{this is not json\n")
    assert AssociationStore(path).load() == {}


def test_association_store_drops_only_a_torn_last_record(tmp_path):
    path = tmp_path / "assoc.jsonl"
    store = AssociationStore(path)
    for peer in ("did:svdr:p", "did:svdr:q", "did:svdr:r"):
        store.append(Association(peer=peer, direction="outbound"))
    path.write_bytes(path.read_bytes()[:-40])  # a crash in the middle of the last append
    loaded = AssociationStore(path).load()
    assert set(loaded) == {("did:svdr:p", "outbound"), ("did:svdr:q", "outbound")}


def test_association_store_keeps_every_concurrent_write(tmp_path):
    path = tmp_path / "assoc.jsonl"
    store = AssociationStore(path)
    store.load()
    workers, rounds = 8, 100

    def churn(worker):
        for _ in range(rounds):
            store.drop(f"did:svdr:{worker}", "outbound")
            store.append(Association(peer=f"did:svdr:{worker}", direction="outbound"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert set(AssociationStore(path).load()) == {
        (f"did:svdr:{w}", "outbound") for w in range(workers)}
    assert len(path.read_text().splitlines()) <= 2 * workers + AssociationStore.COMPACT_FLOOR


def test_association_store_disabled(tmp_path):
    store = AssociationStore(None)
    store.append(Association(peer="p", direction="outbound"))
    assert store.load() == {}
