"""The traced benchmark under `perfbench/` wraps names in `sbacl` by their
place in the code; this catches a refactor that moves or drops one.

It reads `perfbench/` and changes nothing there.
"""

import importlib
import time
from pathlib import Path

import pytest

from sbacl.sidecar import Association, Sidecar
from sbacl.vdr import Registry

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
