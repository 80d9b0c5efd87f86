"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line with its measured figures so a
verbose run reads as a checklist. Randomized parts are seeded for
reproducibility; the oracle comparisons import tests/oracles.py, which
recomputes everything from primary definitions.
"""

import copy
import json
import math
import random
import time

import pytest
import requests

from sbacl.cli import ipmf as ipmf_cli
from sbacl.credentials import (
    ALL_RIGHTS,
    FAIL_BAD_VC_SIGNATURE,
    FAIL_BAD_VP_SIGNATURE,
    FAIL_CHAIN_BROKEN,
    FAIL_CHAIN_UNTRUSTED,
    FAIL_CHALLENGE_MISMATCH,
    FAIL_INSUFFICIENT_RIGHTS,
    FAIL_SUBJECT_MISMATCH,
    KIND_AUTHN,
    KIND_AUTHZ,
    REQUIRED_RIGHT,
    TrustPolicy,
    VerifiableCredential,
    VerifiablePresentation,
    build_presentation,
    format_rights,
    fresh_challenge,
    issue_credential,
    issue_delegation,
    verify_presentation,
)
from sbacl.crypto import ed25519_sign
from sbacl.encoding import b64u_encode
from sbacl.envelope import (
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
    IdentificationRejectedError,
    NotIntendedRecipientError,
    SbaclError,
    WireFormatError,
)
from sbacl.harness import (
    benchmark,
    bundled,
    compare_transcripts,
    distinct_ordered_pairs,
    format_report,
    launch_topology,
    run_scenario,
)
from sbacl.identity import Resolver, generate_keypair
from sbacl.ipmf import Ipmf
from sbacl.mocknf import Behavior, MockNf
from sbacl.sidecar import LocalService, RouteRule, Sidecar
from sbacl.vdr import Registry, revoke_request_bytes
from sbacl.vdr_http import RegistryServer

from conftest import build_hierarchy, registered_identity
from oracles import chain_is_valid

REGISTRY = Registry()
RESOLVER = Resolver(REGISTRY)
SEED = 20260816
B58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
CHAIN_CODES = frozenset(
    {FAIL_CHAIN_BROKEN, FAIL_CHAIN_UNTRUSTED, FAIL_INSUFFICIENT_RIGHTS}
)


def _flip_byte(data: bytes, rng: random.Random) -> bytes:
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ (1 + rng.randrange(255))]) + data[i + 1:]


def _flip_did_char(did: str, rng: random.Random) -> str:
    start = did.rindex(":") + 1
    i = rng.randrange(start, len(did))
    replacement = rng.choice([c for c in B58 if c != did[i]])
    return did[:i] + replacement + did[i + 1:]


def _flip_text_char(text: str, rng: random.Random) -> str:
    i = rng.randrange(len(text))
    replacement = rng.choice(
        [c for c in "abcdefghijklmnopqrstuvwxyz0123456789" if c != text[i]]
    )
    return text[:i] + replacement + text[i + 1:]


# --- criterion 1 -------------------------------------------------------------------


def test_criterion_1_credential_round_trip_and_tamper():
    rng = random.Random(SEED)
    started = time.monotonic()

    cycles = 1000
    for _ in range(cycles):
        depth = rng.randrange(6)
        root_did, issuer_keys, issuer_did, chain = build_hierarchy(REGISTRY, depth)
        holder_keys, holder_did = registered_identity(REGISTRY)
        kind = rng.choice((KIND_AUTHN, KIND_AUTHZ))
        claims = ({"nf_type": rng.choice(("AMF", "SMF", "UDM"))}
                  if kind == KIND_AUTHN
                  else {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"})
        creds = [issue_credential(issuer_keys, issuer_did, kind, holder_did, claims,
                                  validity=rng.choice((None, 3600)), chain=chain)]
        if rng.random() < 0.1:
            creds.append(issue_credential(issuer_keys, issuer_did, KIND_AUTHN,
                                          holder_did, {"nf_type": "AMF"}, chain=chain))
        challenge = fresh_challenge()
        vp = build_presentation(holder_keys, holder_did, creds, challenge)
        verdict = verify_presentation(vp, challenge, TrustPolicy.trusting(root_did),
                                      RESOLVER)
        assert verdict.ok, (depth, verdict.failures)

    # one single-credential presentation per depth as the tamper substrate
    bases = []
    for depth in range(6):
        for _ in range(2):
            root_did, issuer_keys, issuer_did, chain = build_hierarchy(REGISTRY, depth)
            holder_keys, holder_did = registered_identity(REGISTRY)
            vc = issue_credential(issuer_keys, issuer_did, KIND_AUTHN, holder_did,
                                  {"nf_type": "AMF"}, chain=chain)
            challenge = fresh_challenge()
            vp = build_presentation(holder_keys, holder_did, [vc], challenge)
            bases.append((depth, root_did, challenge, vp.to_dict()))

    tampers = 600
    seen_targets = set()
    for _ in range(tampers):
        depth, root_did, challenge, vp_dict = rng.choice(bases)
        vp = VerifiablePresentation.from_dict(vp_dict)
        vc = vp.credentials[0]
        targets = ["vp_proof", "challenge", "holder", "vc_proof", "vc_claims",
                   "vc_issuer"]
        if depth >= 1:
            targets += ["link_proof", "link_rights", "link_subject"]
        target = rng.choice(targets)
        seen_targets.add(target)

        if target == "vp_proof":
            vp.proof = _flip_byte(vp.proof, rng)
            expected = {FAIL_BAD_VP_SIGNATURE}
        elif target == "challenge":
            vp.challenge = _flip_byte(vp.challenge, rng)
            expected = {FAIL_BAD_VP_SIGNATURE, FAIL_CHALLENGE_MISMATCH}
        elif target == "holder":
            vp.holder = _flip_did_char(vp.holder, rng)
            expected = {FAIL_BAD_VP_SIGNATURE, FAIL_SUBJECT_MISMATCH}
        elif target == "vc_proof":
            vc.proof = _flip_byte(vc.proof, rng)
            expected = {FAIL_BAD_VP_SIGNATURE, FAIL_BAD_VC_SIGNATURE}
        elif target == "vc_claims":
            vc.claims["nf_type"] = _flip_text_char(vc.claims["nf_type"], rng)
            expected = {FAIL_BAD_VP_SIGNATURE, FAIL_BAD_VC_SIGNATURE}
        elif target == "vc_issuer":
            vc.issuer = _flip_did_char(vc.issuer, rng)
            expected = {FAIL_BAD_VP_SIGNATURE, FAIL_BAD_VC_SIGNATURE,
                        FAIL_CHAIN_UNTRUSTED if depth == 0 else FAIL_CHAIN_BROKEN}
        else:
            link = vc.delegation_chain[rng.randrange(depth)]
            if target == "link_proof":
                link.proof = _flip_byte(link.proof, rng)
            elif target == "link_rights":
                link.claims["rights"] = _flip_text_char(link.claims["rights"], rng)
            else:
                link.subject = _flip_did_char(link.subject, rng)
            expected = {FAIL_BAD_VP_SIGNATURE, FAIL_BAD_VC_SIGNATURE,
                        FAIL_CHAIN_BROKEN}

        verdict = verify_presentation(vp, challenge, TrustPolicy.trusting(root_did),
                                      RESOLVER)
        assert not verdict.ok, target
        assert set(verdict.failures) == expected, (target, depth, verdict.failures)

    elapsed = time.monotonic() - started
    assert len(seen_targets) == 9
    assert elapsed < 60.0, f"{elapsed:.1f}s exceeds the 60s budget"
    print(f"criterion 1: {cycles} round trips, {tampers} tampered presentations, "
          f"{elapsed:.1f}s")


# --- criterion 2 -------------------------------------------------------------------


def _hierarchy_with_keys(rng, depth, rights_per_level=None):
    """Like conftest.build_hierarchy but keeps every level's keypair."""
    levels = [registered_identity(REGISTRY)]
    chain = []
    for i in range(depth):
        child = registered_identity(REGISTRY)
        rights = (rights_per_level[i] if rights_per_level
                  else tuple(sorted(ALL_RIGHTS)))
        link = issue_delegation(levels[i][0], levels[i][1], child[1], rights,
                                parent_chain=list(chain))
        chain.append(link)
        levels.append(child)
    return levels, chain


def _monotone_rights(rng, depth, required):
    out = []
    current = set(ALL_RIGHTS)
    for level in range(depth):
        terminal = level == depth - 1
        mandatory = {required} if terminal else {required, "delegate"}
        current = mandatory | {r for r in current - mandatory if rng.random() < 0.5}
        out.append(tuple(sorted(current)))
    return out


def _resign(credential, signer_keys):
    credential.proof = ed25519_sign(signer_keys.signing_secret,
                                    credential.signing_bytes())


def _clone_vc(vc):
    return VerifiableCredential.from_dict(vc.to_dict())


def test_criterion_2_chain_oracle_agreement():
    rng = random.Random(SEED + 1)
    transforms = (
        ("valid", 0), ("untrusted_root", 0), ("wrong_key", 1), ("shuffled", 2),
        ("dropped", 1), ("escalated", 2), ("no_delegate_mid", 2),
        ("forged_kind", 1), ("raw_tamper", 1),
    )
    samples = 1000
    tally = {name: 0 for name, _ in transforms}
    agreements = 0

    for _ in range(samples):
        name, min_depth = rng.choice(transforms)
        depth = rng.randint(min_depth, 4)
        tally[name] += 1

        kind = rng.choice((KIND_AUTHN, KIND_AUTHZ))
        if name in ("escalated", "forged_kind"):
            kind = KIND_AUTHN
            rights_per_level = [("delegate", "issue_authn")] * depth
        elif rng.random() < 0.5:
            rights_per_level = _monotone_rights(rng, depth, REQUIRED_RIGHT[kind])
        else:
            rights_per_level = None
        levels, chain = _hierarchy_with_keys(rng, depth, rights_per_level)
        issuer_keys, issuer_did = levels[-1]
        holder_keys, holder_did = registered_identity(REGISTRY)
        vc = issue_credential(issuer_keys, issuer_did, kind, holder_did,
                              {"nf_type": "AMF"}, chain=chain)
        trusted = {levels[0][1]}

        vc = _clone_vc(vc)
        links = vc.delegation_chain
        if name == "untrusted_root":
            trusted = {registered_identity(REGISTRY)[1]}
        elif name == "wrong_key":
            i = rng.randrange(depth)
            _resign(links[i], generate_keypair())
            _resign(vc, issuer_keys)
        elif name == "shuffled":
            i, j = rng.sample(range(depth), 2)
            links[i], links[j] = links[j], links[i]
            _resign(vc, issuer_keys)
        elif name == "dropped":
            links.pop(rng.randrange(depth))
            _resign(vc, issuer_keys)
        elif name == "escalated":
            i = rng.randrange(1, depth)
            links[i].claims["rights"] = format_rights(ALL_RIGHTS)
            _resign(links[i], levels[i][0])
            _resign(vc, issuer_keys)
        elif name == "no_delegate_mid":
            i = rng.randrange(depth - 1)
            links[i].claims["rights"] = "issue_authn"
            _resign(links[i], levels[i][0])
            _resign(vc, issuer_keys)
        elif name == "forged_kind":
            vc.kind = KIND_AUTHZ
            _resign(vc, issuer_keys)
        elif name == "raw_tamper":
            link = links[rng.randrange(depth)]
            if rng.random() < 0.5:
                link.claims["rights"] = _flip_text_char(link.claims["rights"], rng)
            else:
                link.subject = _flip_did_char(link.subject, rng)

        challenge = fresh_challenge()
        vp = build_presentation(holder_keys, holder_did, [vc], challenge)
        verdict = verify_presentation(vp, challenge, TrustPolicy.trusting(*trusted),
                                      RESOLVER)
        library_ok = not (set(verdict.failures) & CHAIN_CODES)
        oracle_ok = chain_is_valid(vc.to_dict(), set(trusted),
                                   {did: keys.signing_public for keys, did in levels})

        assert library_ok == (name == "valid"), (name, depth, verdict.failures)
        if name == "valid":
            assert verdict.ok, verdict.failures
        assert oracle_ok == library_ok, (name, depth, verdict.failures)
        agreements += 1

    assert agreements == samples
    assert all(count > 0 for count in tally.values())
    print(f"criterion 2: {agreements}/{samples} oracle agreements "
          f"({', '.join(f'{k}={v}' for k, v in sorted(tally.items()))})")


# --- criterion 3 -------------------------------------------------------------------


def _clone_env(env):
    return Envelope(protected_header=dict(env.protected_header),
                    key_commitment=env.key_commitment,
                    ciphertext=env.ciphertext,
                    auth_tag=env.auth_tag)


def test_criterion_3_envelope_security_properties():
    rng = random.Random(SEED + 2)
    alice_keys, alice_did = registered_identity(REGISTRY)
    bob_keys, bob_did = registered_identity(REGISTRY)
    bob_doc = RESOLVER.resolve(bob_did)

    for size in (1, 1024, 1 << 20):
        body = {"d": "a" * size}
        msg = ProtocolMessage(MSG_TUNNEL_REQUEST, body)
        env = decode_wire(encode_wire(pack(msg, alice_keys, alice_did, bob_doc)))
        opened, sender = unpack(env, bob_keys, RESOLVER)
        assert opened.body == body and opened.thread_id == msg.thread_id
        assert sender == alice_did

    env = pack(ProtocolMessage(MSG_TUNNEL_REQUEST, {"n": 0}),
               alice_keys, alice_did, bob_doc)
    rejected = 0
    trials = 1000
    for trial in range(trials):
        if trial % 100 == 0:
            env = pack(ProtocolMessage(MSG_TUNNEL_REQUEST, {"n": trial}),
                       alice_keys, alice_did, bob_doc)
        outsider = generate_keypair()
        try:
            unpack(env, outsider, RESOLVER)
        except NotIntendedRecipientError:
            rejected += 1
    assert rejected == trials

    mutations = {
        "sender": lambda e: e.protected_header.__setitem__(
            "sender", _flip_did_char(e.protected_header["sender"], rng)),
        "recipient": lambda e: e.protected_header.__setitem__(
            "recipient", _flip_did_char(e.protected_header["recipient"], rng)),
        "key_version": lambda e: e.protected_header.__setitem__(
            "recipient_key_version", e.protected_header["recipient_key_version"] + 1),
        "encryption": lambda e: e.protected_header.__setitem__(
            "content_encryption", "A256GCM"),
        "nonce": lambda e: e.protected_header.__setitem__(
            "nonce", _flip_text_char(e.protected_header["nonce"], rng)),
        "key_commitment": lambda e: setattr(e, "key_commitment",
                                            _flip_byte(e.key_commitment, rng)),
        "ciphertext": lambda e: setattr(e, "ciphertext",
                                        _flip_byte(e.ciphertext, rng)),
        "auth_tag": lambda e: setattr(e, "auth_tag", _flip_byte(e.auth_tag, rng)),
    }
    per_class = 25
    detected = 0
    attempted = 0
    for mutate in mutations.values():
        for _ in range(per_class):
            mutated = _clone_env(pack(ProtocolMessage(MSG_TUNNEL_REQUEST, {"x": 1}),
                                      alice_keys, alice_did, bob_doc))
            mutate(mutated)
            attempted += 1
            try:
                unpack(mutated, bob_keys, RESOLVER, local_key_version=bob_doc.version)
            except SbaclError:
                detected += 1
    assert detected == attempted

    # the flagship classes surface as their specific error types
    specific = pack(ProtocolMessage(MSG_TUNNEL_REQUEST, {"x": 2}),
                    alice_keys, alice_did, bob_doc)
    for mutate, err in ((mutations["recipient"], NotIntendedRecipientError),
                        (mutations["auth_tag"], EnvelopeIntegrityError),
                        (mutations["encryption"], EnvelopeError)):
        env2 = _clone_env(specific)
        mutate(env2)
        with pytest.raises(err):
            unpack(env2, bob_keys, RESOLVER)
    bad_nonce = _clone_env(specific)
    bad_nonce.protected_header["nonce"] = "!!!"
    with pytest.raises(WireFormatError):
        unpack(bad_nonce, bob_keys, RESOLVER)

    print(f"criterion 3: roundtrips at 1B/1KiB/1MiB, {rejected}/{trials} "
          f"non-recipient rejections, {detected}/{attempted} mutations detected")


# --- criterion 4 -------------------------------------------------------------------


def test_criterion_4_three_condition_verification(registry):
    root_keys, root_did = registered_identity(registry)
    registry_id = root_did
    policy = TrustPolicy(trusted_roots=frozenset([root_did]))

    def presentation():
        holder_keys, holder_did = registered_identity(registry)
        vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did,
                              {"nf_type": "AMF"}, revocation_registry_id=registry_id)
        challenge = fresh_challenge()
        vp = build_presentation(holder_keys, holder_did, [vc], challenge)
        return vp, challenge

    vp, challenge = presentation()
    control = verify_presentation(vp, challenge, policy, Resolver(registry))
    assert control.ok and control.failures == []

    # condition 1: issuer material is wrong (signed by someone else entirely)
    vp, challenge = presentation()
    holder_keys, holder_did = registered_identity(registry)
    forged = _clone_vc(vp.credentials[0])
    forged.subject = holder_did
    _resign(forged, generate_keypair())
    vp = build_presentation(holder_keys, holder_did, [forged], challenge)
    cond1 = verify_presentation(vp, challenge, policy, Resolver(registry))
    assert cond1.failures == [FAIL_BAD_VC_SIGNATURE]

    # condition 2: holder proof is wrong
    vp, challenge = presentation()
    vp.proof = _flip_byte(vp.proof, random.Random(SEED + 3))
    cond2 = verify_presentation(vp, challenge, policy, Resolver(registry))
    assert cond2.failures == [FAIL_BAD_VP_SIGNATURE]

    # condition 3: the credential is revoked
    vp, challenge = presentation()
    vc = vp.credentials[0]
    registry.revoke(registry_id, vc.credential_id,
                    ed25519_sign(root_keys.signing_secret,
                                 revoke_request_bytes(registry_id, vc.credential_id)))
    cond3 = verify_presentation(vp, challenge, policy, Resolver(registry))
    assert cond3.failures == ["revoked"]

    print("criterion 4: control clean, each condition isolated to "
          "[bad_vc_signature] / [bad_vp_signature] / [revoked]")


# --- criteria 5 and 9 share one running topology -------------------------------------


@pytest.fixture(scope="module")
def full_topology():
    topology = launch_topology(bundled("topology_single_domain.json"))
    yield topology
    topology.shutdown()


def test_criterion_5_end_to_end_registration_scenario(full_topology):
    script = bundled("ue_registration.json")
    pairs = distinct_ordered_pairs(script)

    plain = run_scenario(full_topology, script, "plain")
    tunneled = run_scenario(full_topology, script, "tunneled")

    assert plain.passed and tunneled.passed
    assert compare_transcripts(plain, tunneled) == []
    assert plain.handshakes == 0
    assert tunneled.handshakes == len(pairs) == 11
    assert len(script["steps"]) == 58
    assert len({nf["name"] for nf in full_topology.config["nfs"]}) == 6

    print(f"criterion 5: 58 steps equivalent in both modes, "
          f"{tunneled.handshakes} handshakes for {len(pairs)} ordered pairs")


# --- criterion 6 -------------------------------------------------------------------


def test_criterion_6_revocation_end_to_end(tmp_path):
    registry = Registry()
    server = RegistryServer(registry)
    server.start()
    started = [server.stop]
    try:
        seed = b"\x5a" * 32
        log = tmp_path / "issued.jsonl"
        issuer = Ipmf("core-ipmf", registry, keys=generate_keypair(seed),
                      allow_direct_issuance=True, issuance_log=log)
        issuer.bootstrap(serve=False)

        producer_nf = MockNf("UDM-nf", "UDM", [
            Behavior("GET", "/nudm-sdm/v2/data", 200, {"ok": True}),
        ]).start()
        started.append(producer_nf.stop)
        consumer_nf = MockNf("AMF-nf", "AMF", []).start()
        started.append(consumer_nf.stop)

        producer = Sidecar("UDM-1", "UDM", registry,
                           local_nf_url=producer_nf.base_url,
                           trusted_roots=[issuer.did],
                           local_services=[LocalService("nudm-sdm", "/nudm-sdm/")])
        producer.bootstrap()
        started.append(producer.shutdown)
        consumer = Sidecar("AMF-1", "AMF", registry,
                           local_nf_url=consumer_nf.base_url,
                           trusted_roots=[issuer.did],
                           routes=[RouteRule(host="UDM-1", target_did=producer.did)])
        consumer.bootstrap()
        started.append(consumer.shutdown)

        producer.add_credential(
            issuer.issue_credential_to(producer.did, KIND_AUTHN, {"nf_type": "UDM"}))
        consumer.add_credential(
            issuer.issue_credential_to(consumer.did, KIND_AUTHN, {"nf_type": "AMF"}))
        authz = issuer.issue_credential_to(
            consumer.did, KIND_AUTHZ,
            {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"})
        consumer.add_credential(authz)

        url = consumer.intercept_url + "/nudm-sdm/v2/data"
        before = requests.get(url, headers={"Host": "UDM-1"}, timeout=10)
        assert before.status_code == 200
        assert producer_nf.request_count() == 1

        config = tmp_path / "ipmf.json"
        config.write_text(json.dumps({
            "name": "core-ipmf",
            "seed": b64u_encode(seed),
            "registry_url": server.base_url,
            "issuance_log": str(log),
        }), encoding="utf-8")
        assert ipmf_cli([
            "revoke", "--config", str(config),
            "--credential", authz.credential_id,
        ]) == 0

        consumer.forget_peer(producer.did)
        denied = requests.get(url, headers={"Host": "UDM-1"}, timeout=10)
        assert denied.status_code == 502
        assert denied.json()["error"] == "handshake_rejected"
        assert producer_nf.request_count() == 1, "revoked consumer reached the NF"

        print("criterion 6: post-revoke handshake rejected, zero NF requests after")
    finally:
        for stop in reversed(started):
            stop()


# --- criterion 7 -------------------------------------------------------------------


def test_criterion_7_key_rotation_end_to_end():
    registry = Registry()
    started = []
    try:
        issuer = Ipmf("root", registry, allow_direct_issuance=True)
        issuer.bootstrap(serve=False)

        producer_nf = MockNf("UDM-nf", "UDM", [
            Behavior("GET", "/nudm-sdm/v2/data", 200, {"ok": True}),
        ]).start()
        started.append(producer_nf.stop)
        consumer_nf = MockNf("AMF-nf", "AMF", []).start()
        started.append(consumer_nf.stop)

        producer = Sidecar("UDM-1", "UDM", registry,
                           local_nf_url=producer_nf.base_url,
                           trusted_roots=[issuer.did],
                           local_services=[LocalService("nudm-sdm", "/nudm-sdm/")])
        producer.bootstrap()
        started.append(producer.shutdown)
        producer.add_credential(issuer.issue_credential_to(
            producer.did, KIND_AUTHN, {"nf_type": "UDM"}))

        def consumer(name, **kwargs):
            sc = Sidecar(name, "AMF", registry,
                         local_nf_url=consumer_nf.base_url,
                         trusted_roots=[issuer.did],
                         routes=[RouteRule(host="UDM-1", target_did=producer.did)],
                         **kwargs)
            sc.bootstrap()
            started.append(sc.shutdown)
            sc.add_credential(issuer.issue_credential_to(
                sc.did, KIND_AUTHN, {"nf_type": "AMF"}))
            sc.add_credential(issuer.issue_credential_to(
                sc.did, KIND_AUTHZ,
                {"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}))
            return sc

        refreshing = consumer("AMF-fresh", cache_max_age=0.0)
        frozen = consumer("AMF-frozen", cache_max_age=math.inf)

        def call(sc):
            return requests.get(sc.intercept_url + "/nudm-sdm/v2/data",
                                headers={"Host": "UDM-1"}, timeout=10)

        assert call(refreshing).status_code == 200
        assert call(frozen).status_code == 200

        producer.rotate_keys()
        assert Resolver(registry).refresh(producer.did).version == 2

        survived = call(refreshing)
        assert survived.status_code == 200 and survived.json() == {"ok": True}

        stale = call(frozen)
        assert stale.status_code == 502
        assert stale.json()["error"] == "stale_peer_key"

        frozen.resolver.refresh(producer.did)
        assert call(frozen).status_code == 200

        print("criterion 7: traffic survived rotation with refresh; "
              "without it the failure surfaced as stale_peer_key")
    finally:
        for stop in reversed(started):
            stop()


# --- criterion 8 -------------------------------------------------------------------


def test_criterion_8_cross_domain_grant_and_deny():
    config = bundled("topology_two_domain.json")
    topology = launch_topology(config)
    try:
        amf = topology.nfs["AMF-A"]
        cross = [vc for vc in amf.operational_creds if vc.kind == KIND_AUTHZ]
        assert len(cross) == 1
        assert cross[0].issuer == topology.ipmfs["beta-ipmf"].did
        assert cross[0].delegation_chain[0].issuer == topology.roots["beta-root"].did

        resp = requests.get(
            amf.sidecar.intercept_url + "/nudm-sdm/v2/imsi-999010000000001/am-data",
            headers={"Host": "UDM-B"}, timeout=10)
        assert resp.status_code == 200
        assert resp.json()["servingPlmn"] == "roaming-partner"
    finally:
        topology.shutdown()

    distrustful = copy.deepcopy(config)
    distrustful["domains"][1]["trusted_foreign_roots"] = []
    with pytest.raises(IdentificationRejectedError) as err:
        launch_topology(distrustful)
    assert "chain_untrusted" in str(err.value)

    print("criterion 8: cross-domain AuthZ granted under foreign trust, "
          "refused as chain_untrusted without it")


# --- criterion 9 -------------------------------------------------------------------


def test_criterion_9_benchmark_report(full_topology):
    script = bundled("ue_registration.json")
    report = benchmark(full_topology, script, iterations=30)

    for mode in ("plain", "tunneled"):
        assert report[mode]["iterations"] == 30
        assert report[mode]["voided"] == 0
        assert report[mode]["mean_s"] > 0
        assert len(report[mode]["per_iteration_s"]) == 30
    assert report["iterations_requested"] == 30
    assert report["warmup"]["mode_equivalent"] is True

    expected = (report["tunneled"]["mean_s"] / report["plain"]["mean_s"] - 1) * 100
    assert report["relative_overhead_pct"] == pytest.approx(expected)
    assert report["tunneled"]["mean_s"] / report["plain"]["mean_s"] > 0.95

    text = format_report(report)
    assert "plain" in text and "tunneled" in text
    assert "relative overhead:" in text

    print(f"criterion 9: plain {report['plain']['mean_s']:.4f}s, "
          f"tunneled {report['tunneled']['mean_s']:.4f}s, "
          f"overhead {report['relative_overhead_pct']:+.1f}% over 30 iterations")
