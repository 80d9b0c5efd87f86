import http.client
import json
from types import SimpleNamespace

import pytest

from sbacl.envelope import MSG_ACK, ProtocolMessage, decode_wire, encode_wire, pack, unpack
from sbacl.envelope_http import ENVELOPE_PATH, EnvelopeHttpServer
from sbacl.identity import Resolver

from conftest import peer_identity

OCTETS = {"Content-Type": "application/octet-stream"}


@pytest.fixture()
def served():
    """An envelope server whose dispatch is swappable, and a client identity."""
    keys, did = peer_identity()
    owner = SimpleNamespace(did=did, keys=keys, doc_version=1, resolver=Resolver())
    world = SimpleNamespace(
        owner=owner,
        client=peer_identity(),
        dispatch=lambda msg, sender: msg.reply(MSG_ACK, {"echo": msg.body}),
    )
    server = EnvelopeHttpServer(owner, lambda msg, sender: world.dispatch(msg, sender))
    server.start()
    world.conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
    yield world
    world.conn.close()
    server.stop()


def sealed(world, body):
    client_keys, client_did = world.client
    msg = ProtocolMessage(MSG_ACK, body)
    return msg, pack(msg, client_keys, client_did, Resolver().resolve(world.owner.did))


def post(world, path, data):
    world.conn.request("POST", path, body=data, headers=OCTETS)
    resp = world.conn.getresponse()
    return resp.status, resp.read()


def test_wrong_path_leaves_a_keep_alive_connection_usable(served):
    msg, env = sealed(served, {"n": 1})
    wire = encode_wire(env)
    status, _ = post(served, "/nowhere", wire)
    assert status == 404

    status, body = post(served, ENVELOPE_PATH, wire)
    assert status == 200
    reply, sender = unpack(decode_wire(body), served.client[0], Resolver())
    assert sender == served.owner.did
    assert reply.thread_id == msg.thread_id
    assert reply.body == {"echo": {"n": 1}}


def test_malformed_sender_is_an_unknown_sender(served):
    _, env = sealed(served, {})
    env.protected_header["sender"] = "not-a-did"
    status, body = post(served, ENVELOPE_PATH, encode_wire(env))
    assert status == 400
    assert json.loads(body)["error"] == "unknown_sender"


def test_reply_that_cannot_be_sealed_is_an_internal_error(served):
    served.dispatch = lambda msg, sender: msg.reply("not-a-registered-type", {})
    _, env = sealed(served, {})
    status, body = post(served, ENVELOPE_PATH, encode_wire(env))
    assert status == 500
    assert json.loads(body) == {"error": "internal"}
