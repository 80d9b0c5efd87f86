"""The traced benchmark under `perfbench/` wraps names in `sbacl` by their
place in the code; this catches a refactor that moves or drops one.

It reads `perfbench/` and changes nothing there.
"""

import importlib
import time
from pathlib import Path

import pytest

from sbacl import crypto
from sbacl.envelope import MSG_ACK, ProtocolMessage, pack, unpack
from sbacl.identity import Resolver
from sbacl.sidecar import Association, Sidecar
from sbacl.vdr import Registry

from conftest import registered_identity

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_traced_binding_still_exists(spans):
    started = time.monotonic()
    before = [vars(b.owner).get(b.attr) for b in spans.BINDINGS]
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises AttributeError naming a binding that is gone
    finally:
        tracer.uninstall()
    assert [vars(b.owner).get(b.attr) for b in spans.BINDINGS] == before
    assert time.monotonic() - started < 1.0


def test_per_instance_bindings_still_exist():
    sidecar = Sidecar("NF", "UDM", Registry(), "http://127.0.0.1:9", trusted_roots=[])
    try:
        assert callable(vars(sidecar)["_local_http"].request)  # the local-NF hop span
    finally:
        sidecar.shutdown()
    # the load generator reads it to tell a warm pair (one with a record) from a cold one
    assert Association(peer="p", direction="outbound").established is True


def test_pack_and_unpack_each_agree_through_the_traced_binding(monkeypatch):
    # `crypto.x25519` is traced on `crypto.x25519_shared_secret`, and predicted
    # to fire on every tunneled message: a memo in front of it would silence it.
    registry = Registry()
    resolver = Resolver(registry)
    (a_keys, a_did), (b_keys, b_did) = registered_identity(registry), registered_identity(registry)
    b_doc = resolver.resolve(b_did)
    resolver.resolve(a_did)
    calls = []
    original = crypto.x25519_shared_secret
    monkeypatch.setattr(crypto, "x25519_shared_secret",
                        lambda *args: calls.append(args) or original(*args))
    for _ in range(2):  # cold, then warm
        calls.clear()
        env = pack(ProtocolMessage(MSG_ACK, {}), a_keys, a_did, b_doc)
        assert calls == [(a_keys.agreement_secret, b_keys.agreement_public)]
        unpack(env, b_keys, resolver)
        assert calls[1:] == [(b_keys.agreement_secret, a_keys.agreement_public)]
