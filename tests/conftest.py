from __future__ import annotations

import gc
import io
import sys
import traceback
import warnings

import pytest
from hypothesis import HealthCheck, settings

from sbacl.credentials import KIND_AUTHN, issue_credential, issue_delegation
from sbacl.encoding import b58encode
from sbacl.httputil import _TrackingServer
from sbacl.identity import Resolver, create_registry_did, generate_keypair, self_sign_document
from sbacl.vdr import Registry
from sbacl.vdr_http import RegistryHttpClient, RegistryServer

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_handler_crashes(monkeypatch):
    """Fail the test when a server handler thread raises anything but the
    connection resets `_TrackingServer.handle_error` already ignores: the
    client of such a handler only sees its connection drop."""
    crashes = []
    original = _TrackingServer.handle_error

    def recording(self, request, client_address):
        if not isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            crashes.append(traceback.format_exc())
        original(self, request, client_address)

    monkeypatch.setattr(_TrackingServer, "handle_error", recording)
    yield
    assert not crashes, "a server handler thread raised:\n" + "\n".join(crashes)


@pytest.fixture
def registry() -> Registry:
    return Registry()


@pytest.fixture
def registry_http():
    registry = Registry()
    server = RegistryServer(registry)
    server.start()
    client = RegistryHttpClient(server.base_url)
    yield registry, server, client
    server.stop()
    client._http.close()  # left to the garbage collector, its socket can outlive the session


@pytest.fixture
def resolver(registry) -> Resolver:
    return Resolver(registry)


def leaked_files(action, directory) -> list[str]:
    """Run `action`; return what it left open: every ResourceWarning the
    garbage collector raised, and every file under `directory` still open.

    The second list matters when a stopped server's worker thread has not
    exited yet and so keeps the owner of a leaked file alive.
    """
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        action()
        gc.collect()
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    return leaks + [
        obj.name for obj in gc.get_objects()
        if isinstance(obj, io.IOBase) and not obj.closed
        and str(getattr(obj, "name", "")).startswith(str(directory))
    ]


def registered_identity(registry):
    """A fresh identity whose DID is registered in `registry`: (keys, did)."""
    keys = generate_keypair()
    did, doc = create_registry_did(keys)
    registry.register(self_sign_document(doc, keys))
    return keys, did


def speer_shaped_did(keys) -> str:
    """The DID the removed self-contained `did:speer` method derived from
    `keys`, base58(0x01 ‖ signing key ‖ agreement key): no registry knows it."""
    return "did:speer:" + b58encode(b"\x01" + keys.signing_public + keys.agreement_public)


def build_hierarchy(registry, depth: int, rights_per_level: list | None = None):
    """Root plus `depth` delegated issuers, all registered in `registry`.

    Returns (root_did, issuer_keys, issuer_did, chain) where `chain` is what
    the terminal issuer embeds in the credentials it signs. Depth 0 means
    the root itself issues.
    """
    root_keys, root_did = registered_identity(registry)
    keys, did, chain = root_keys, root_did, []
    for level in range(depth):
        child_keys, child_did = registered_identity(registry)
        rights = rights_per_level[level] if rights_per_level else None
        if rights is None:
            rights = ("issue_authn", "issue_authz", "delegate")
        link = issue_delegation(keys, did, child_did, rights, parent_chain=chain)
        chain = chain + [link]
        keys, did = child_keys, child_did
    return root_did, keys, did, chain


def issue_to_holder(issuer_keys, issuer_did, chain, holder_did,
                    kind=KIND_AUTHN, claims=None, **kwargs):
    return issue_credential(
        issuer_keys, issuer_did, kind, holder_did,
        claims if claims is not None else {"nf_type": "AMF"},
        chain=chain, **kwargs,
    )


# A two-NF topology small enough to launch per test module: AMF calls UDM,
# with grants covering exactly the operations the script exercises.
MINI_TOPOLOGY = {
    "domains": [
        {
            "name": "core",
            "root": {"name": "core-root"},
            "ipmfs": [{"name": "core-ipmf",
                       "rights": ["issue_authn", "issue_authz", "delegate"]}],
            "trusted_foreign_roots": [],
        }
    ],
    "nfs": [
        {
            "name": "AMF",
            "nf_type": "AMF",
            "domain": "core",
            "ipmf": "core-ipmf",
            "services": [],
            "behaviors": [],
            "routes": [{"host": "UDM", "target": "UDM"}],
            "grants": [
                {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"},
                {"producer": "UDM", "service": "nudm-uecm", "ops": "POST"},
            ],
        },
        {
            "name": "UDM",
            "nf_type": "UDM",
            "domain": "core",
            "ipmf": "core-ipmf",
            "services": [
                {"name": "nudm-sdm", "path_prefix": "/nudm-sdm"},
                {"name": "nudm-uecm", "path_prefix": "/nudm-uecm"},
            ],
            "behaviors": [
                {"method": "GET", "path": "/nudm-sdm/v2/am-data", "status": 200,
                 "body": {"plan": "basic"}},
                {"method": "POST", "path": "/nudm-uecm/v1/registrations", "status": 201,
                 "body": {"ok": True}},
            ],
            "routes": [],
            "grants": [],
        },
    ],
}

MINI_SCRIPT = {
    "name": "mini",
    "steps": [
        {"caller": "AMF", "callee": "UDM", "method": "GET",
         "path": "/nudm-sdm/v2/am-data", "expected_status": 200},
        {"caller": "AMF", "callee": "UDM", "method": "POST",
         "path": "/nudm-uecm/v1/registrations", "body": {"imsi": "001"},
         "expected_status": 201},
        {"caller": "AMF", "callee": "UDM", "method": "GET",
         "path": "/nudm-sdm/v2/am-data", "expected_status": 200},
    ],
}
