import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbacl.credentials import (
    CHALLENGE_SIZE,
    KIND_AUTHN,
    KIND_AUTHZ,
    KIND_DEL,
    TrustPolicy,
    VerifiableCredential,
    VerifiablePresentation,
    build_presentation,
    evaluate_authorization,
    fresh_challenge,
    issue_credential,
    issue_delegation,
    verify_presentation,
)
from sbacl.errors import (
    IssuanceError,
    PresentationError,
    RegistryUnavailableError,
    RevocationCheckError,
)
from sbacl.identity import Resolver, generate_keypair
from sbacl.vdr import Registry

from conftest import build_hierarchy, issue_to_holder, registered_identity, speer_shaped_did

REGISTRY = Registry()
RESOLVER = Resolver(REGISTRY)


def verify(vp, challenge, roots, **kwargs):
    policy = kwargs.pop("policy", None) or TrustPolicy.trusting(*roots)
    return verify_presentation(vp, challenge, policy, RESOLVER, **kwargs)


def presentation_for(depth=0, kind=KIND_AUTHN, claims=None, validity=None):
    root_did, issuer_keys, issuer_did, chain = build_hierarchy(REGISTRY, depth)
    holder_keys, holder_did = registered_identity(REGISTRY)
    vc = issue_to_holder(issuer_keys, issuer_did, chain, holder_did,
                         kind=kind, claims=claims, validity=validity)
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [vc], challenge)
    return root_did, vp, challenge


def test_direct_issuance_verifies():
    root_did, vp, challenge = presentation_for(depth=0)
    verdict = verify(vp, challenge, [root_did])
    assert verdict.ok and verdict.failures == []


@pytest.mark.parametrize("depth", [1, 2, 5])
def test_delegated_issuance_verifies(depth):
    root_did, vp, challenge = presentation_for(depth=depth)
    assert verify(vp, challenge, [root_did]).ok


def test_serialization_roundtrip():
    root_did, vp, challenge = presentation_for(depth=2)
    again = VerifiablePresentation.from_dict(vp.to_dict())
    assert again.to_dict() == vp.to_dict()
    assert verify(again, challenge, [root_did]).ok
    vc = vp.credentials[0]
    assert VerifiableCredential.from_dict(vc.to_dict()).to_dict() == vc.to_dict()


def test_wrong_challenge_is_rejected():
    root_did, vp, challenge = presentation_for()
    verdict = verify(vp, fresh_challenge(), [root_did])
    assert not verdict.ok
    assert "challenge_mismatch" in verdict.failures


def test_untrusted_root_is_rejected():
    _, vp, challenge = presentation_for(depth=1)
    _, stranger = registered_identity(REGISTRY)
    verdict = verify(vp, challenge, [stranger])
    assert not verdict.ok
    assert "chain_untrusted" in verdict.failures


def test_tampered_vp_proof():
    root_did, vp, challenge = presentation_for()
    bad = dataclasses.replace(vp, proof=bytes(b ^ 1 for b in vp.proof))
    verdict = verify(bad, challenge, [root_did])
    assert verdict.failures == ["bad_vp_signature"]


def test_tampered_vc_proof():
    root_keys, root_did = registered_identity(REGISTRY)
    holder_keys, holder_did = registered_identity(REGISTRY)
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did, {"nf_type": "AMF"})
    bad_vc = dataclasses.replace(vc, proof=bytes(b ^ 1 for b in vc.proof))
    challenge = fresh_challenge()
    # the holder re-signs honestly over the tampered credential, so only
    # the credential signature is at fault
    vp = build_presentation(holder_keys, holder_did, [bad_vc], challenge)
    verdict = verify(vp, challenge, [root_did])
    assert verdict.failures == ["bad_vc_signature"]


def test_subject_must_match_holder():
    root_keys, root_did = registered_identity(REGISTRY)
    holder_keys, holder_did = registered_identity(REGISTRY)
    other_keys, other_did = registered_identity(REGISTRY)
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, other_did, {"nf_type": "AMF"})
    challenge = fresh_challenge()
    with pytest.raises(PresentationError):
        build_presentation(holder_keys, holder_did, [vc], challenge)


def test_expiry_honours_clock_skew():
    root_keys, root_did = registered_identity(REGISTRY)
    holder_keys, holder_did = registered_identity(REGISTRY)
    now = int(time.time())
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did,
                          {"nf_type": "AMF"}, validity=10, issued_at=now - 50)
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [vc], challenge)
    policy = TrustPolicy.trusting(root_did)

    # expires_at = now - 40; rejection starts strictly past expires_at + 30
    boundary = now - 40 + 30
    assert verify_presentation(vp, challenge, policy, RESOLVER, now=boundary).ok
    late = verify_presentation(vp, challenge, policy, RESOLVER, now=boundary + 1)
    assert late.failures == ["expired"]
    assert verify_presentation(vp, challenge, policy, RESOLVER, now=now).failures == ["expired"]


def test_revocation_required_without_client_raises():
    root_keys, root_did = registered_identity(REGISTRY)
    holder_keys, holder_did = registered_identity(REGISTRY)
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did,
                          {"nf_type": "AMF"}, revocation_registry_id="r" * 64)
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [vc], challenge)
    policy = TrustPolicy(trusted_roots=frozenset([root_did]))
    with pytest.raises(RevocationCheckError):
        verify_presentation(vp, challenge, policy, Resolver())


def test_vc_without_revocation_ref_passes_vacuously():
    root_keys, root_did = registered_identity(REGISTRY)
    holder_keys, holder_did = registered_identity(REGISTRY)
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did, {"nf_type": "AMF"})
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [vc], challenge)
    policy = TrustPolicy(trusted_roots=frozenset([root_did]))
    assert verify_presentation(vp, challenge, policy, RESOLVER).ok


def test_issuance_refuses_rights_escalation():
    root_keys, root_did = registered_identity(REGISTRY)
    child_keys, child_did = registered_identity(REGISTRY)
    link = issue_delegation(root_keys, root_did, child_did, ["issue_authn"])
    grandchild_keys, grandchild_did = registered_identity(REGISTRY)
    with pytest.raises(IssuanceError) as err:
        issue_delegation(child_keys, child_did, grandchild_did,
                         ["issue_authn", "issue_authz"], parent_chain=[link])
    assert err.value.code in ("rights_escalation", "missing_delegate_right")


def test_issuance_requires_matching_chain_terminal():
    root_keys, root_did = registered_identity(REGISTRY)
    child_keys, child_did = registered_identity(REGISTRY)
    link = issue_delegation(root_keys, root_did, child_did,
                            ["issue_authn", "delegate"])
    impostor_keys, impostor_did = registered_identity(REGISTRY)
    holder_keys, holder_did = registered_identity(REGISTRY)
    with pytest.raises(IssuanceError) as err:
        issue_credential(impostor_keys, impostor_did, KIND_AUTHN, holder_did,
                         {"nf_type": "AMF"}, chain=[link])
    assert err.value.code == "chain_terminal_mismatch"


def test_issuance_requires_the_right_for_the_kind():
    root_keys, root_did = registered_identity(REGISTRY)
    child_keys, child_did = registered_identity(REGISTRY)
    link = issue_delegation(root_keys, root_did, child_did, ["issue_authn"])
    holder_keys, holder_did = registered_identity(REGISTRY)
    with pytest.raises(IssuanceError) as err:
        issue_credential(child_keys, child_did, KIND_AUTHZ, holder_did,
                         {"producer": "UDM"}, chain=[link])
    assert err.value.code == "insufficient_rights"


def test_chain_rights_narrow_then_verify():
    rights_per_level = [
        ("issue_authn", "issue_authz", "delegate"),
        ("issue_authn", "delegate"),
        ("issue_authn",),
    ]
    root_did, issuer_keys, issuer_did, chain = build_hierarchy(
        REGISTRY,         3, rights_per_level=rights_per_level
    )
    holder_keys, holder_did = registered_identity(REGISTRY)
    vc = issue_to_holder(issuer_keys, issuer_did, chain, holder_did)
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [vc], challenge)
    assert verify(vp, challenge, [root_did]).ok

    with pytest.raises(IssuanceError):
        issue_to_holder(issuer_keys, issuer_did, chain, holder_did, kind=KIND_AUTHZ,
                        claims={"producer": "UDM"})


def test_forged_chain_rights_detected_at_verification():
    # a link whose claims were widened after signing
    root_did, issuer_keys, issuer_did, chain = build_hierarchy(
        REGISTRY,         2, rights_per_level=[("issue_authn", "delegate"), ("issue_authn",)]
    )
    holder_keys, holder_did = registered_identity(REGISTRY)
    vc = issue_to_holder(issuer_keys, issuer_did, chain, holder_did)
    tampered_link = dataclasses.replace(
        chain[1], claims={"rights": "delegate,issue_authn,issue_authz"}
    )
    tampered_vc = dataclasses.replace(vc, delegation_chain=[chain[0], tampered_link])
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [tampered_vc], challenge)
    verdict = verify(vp, challenge, [root_did])
    assert not verdict.ok
    assert "chain_broken" in verdict.failures


def test_multiple_credentials_verified_individually():
    root_keys, root_did = registered_identity(REGISTRY)
    holder_keys, holder_did = registered_identity(REGISTRY)
    good = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did, {"nf_type": "AMF"})
    bad = dataclasses.replace(
        issue_credential(root_keys, root_did, KIND_AUTHZ, holder_did, {"producer": "UDM"}),
        proof=b"\x00" * 64,
    )
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [good, bad], challenge)
    verdict = verify(vp, challenge, [root_did])
    assert verdict.failures == ["bad_vc_signature"]


def test_registry_outage_is_not_a_verdict():
    from sbacl.vdr_http import RegistryHttpClient

    dead = Resolver(RegistryHttpClient("http://127.0.0.1:1", timeout=0.2))
    root_keys, root_did = registered_identity(REGISTRY)
    holder_keys, holder_did = registered_identity(REGISTRY)
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did, {"nf_type": "AMF"})
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [vc], challenge)
    with pytest.raises(RegistryUnavailableError):
        verify_presentation(vp, challenge, TrustPolicy.trusting(root_did), dead)


def test_challenge_shape_enforced():
    holder_keys, holder_did = registered_identity(REGISTRY)
    root_keys, root_did = registered_identity(REGISTRY)
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did, {"nf_type": "AMF"})
    with pytest.raises(PresentationError):
        build_presentation(holder_keys, holder_did, [vc], b"short")
    with pytest.raises(PresentationError):
        build_presentation(holder_keys, holder_did, [], fresh_challenge())
    assert len(fresh_challenge()) == CHALLENGE_SIZE


def test_revoked_credential_fails(registry):
    from sbacl.crypto import ed25519_sign
    from sbacl.vdr import revoke_request_bytes

    root_keys, root_did = registered_identity(registry)
    registry_id = root_did

    holder_keys, holder_did = registered_identity(registry)
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did,
                          {"nf_type": "AMF"}, revocation_registry_id=registry_id)
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [vc], challenge)
    policy = TrustPolicy(trusted_roots=frozenset([root_did]))

    before = verify_presentation(vp, challenge, policy, Resolver(registry))
    assert before.ok

    registry.revoke(registry_id, vc.credential_id,
                    ed25519_sign(root_keys.signing_secret,
                                 revoke_request_bytes(registry_id, vc.credential_id)))
    after = verify_presentation(vp, challenge, policy, Resolver(registry))
    assert after.failures == ["revoked"]


def test_a_speer_did_signs_nothing_that_verifies():
    root_keys, root_did = registered_identity(REGISTRY)
    holder_keys = generate_keypair()
    holder_did = speer_shaped_did(holder_keys)
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did, {"nf_type": "AMF"})
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [vc], challenge)
    assert verify(vp, challenge, [root_did]).failures == ["bad_vp_signature"]

    # nor does a trusted root of that method sign a delegation link
    speer_root_keys = generate_keypair()
    speer_root = speer_shaped_did(speer_root_keys)
    issuer_keys, issuer_did = registered_identity(REGISTRY)
    holder_keys, holder_did = registered_identity(REGISTRY)
    link = issue_delegation(speer_root_keys, speer_root, issuer_did, ["issue_authn"])
    vc = issue_to_holder(issuer_keys, issuer_did, [link], holder_did)
    vp = build_presentation(holder_keys, holder_did, [vc], challenge)
    assert verify(vp, challenge, [speer_root]).failures == ["chain_broken"]


def test_handcrafted_subject_mismatch_detected():
    # an attacker skips build_presentation's guard and signs anyway
    root_keys, root_did = registered_identity(REGISTRY)
    victim_keys, victim_did = registered_identity(REGISTRY)
    thief_keys, thief_did = registered_identity(REGISTRY)
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, victim_did, {"nf_type": "AMF"})
    challenge = fresh_challenge()
    from sbacl.crypto import ed25519_sign
    vp = VerifiablePresentation(
        holder=thief_did, credentials=[vc], challenge=challenge,
        created_at=int(time.time()),
    )
    vp.proof = ed25519_sign(thief_keys.signing_secret, vp.signing_bytes())
    verdict = verify(vp, challenge, [root_did])
    assert "subject_mismatch" in verdict.failures
    assert "bad_vp_signature" not in verdict.failures


def test_expected_holder_is_checked_only_on_an_otherwise_valid_presentation():
    root_did, vp, challenge = presentation_for()
    _, stranger = registered_identity(REGISTRY)
    assert verify(vp, challenge, [root_did], expected_holder=vp.holder).ok
    assert verify(vp, challenge, [root_did],
                  expected_holder=stranger).failures == ["subject_mismatch"]
    # a presentation failing for its own reasons keeps exactly those reasons
    assert verify(vp, fresh_challenge(), [root_did],
                  expected_holder=stranger).failures == ["challenge_mismatch"]


# -- authorization claim evaluation ---------------------------------------------------


@pytest.mark.parametrize("claims,request_tuple,expected", [
    ([{"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}],
     ("UDM", "nudm-sdm", "GET"), True),
    ([{"producer": "UDM", "service": "nudm-sdm", "ops": "GET,POST"}],
     ("UDM", "nudm-sdm", "POST"), True),
    ([{"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}],
     ("UDM", "nudm-sdm", "DELETE"), False),
    ([{"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}],
     ("UDM", "nudm-uecm", "GET"), False),
    ([{"producer": "UDM", "service": "nudm-sdm", "ops": "GET"}],
     ("PCF", "nudm-sdm", "GET"), False),
    ([{"producer": "*", "service": "nudm-sdm", "ops": "GET"}],
     ("UDM", "nudm-sdm", "GET"), True),
    ([{"producer": "UDM", "service": "*", "ops": "*"}],
     ("UDM", "anything", "PATCH"), True),
    ([], ("UDM", "nudm-sdm", "GET"), False),
    ([{"producer": "UDM", "service": "nudm-sdm"}],
     ("UDM", "nudm-sdm", "GET"), False),
])
def test_evaluate_authorization(claims, request_tuple, expected):
    assert evaluate_authorization(claims, request_tuple) is expected


# -- property: subset monotonicity ---------------------------------------------------

RIGHTS = ["issue_authn", "issue_authz", "delegate"]


@settings(max_examples=30)
@given(st.data())
def test_rights_subset_property(data):
    depth = data.draw(st.integers(1, 4))
    rights_per_level = []
    current = set(RIGHTS)
    legal = True
    for level in range(depth):
        must_delegate = level < depth - 1
        choices = data.draw(st.sets(st.sampled_from(RIGHTS), min_size=1, max_size=3))
        if must_delegate:
            choices.add("delegate")
        if not choices <= current:
            legal = False
        rights_per_level.append(tuple(sorted(choices)))
        current = choices

    terminal_can_issue = "issue_authn" in rights_per_level[-1]

    if legal and terminal_can_issue:
        root_did, keys, did, chain = build_hierarchy(REGISTRY, depth, rights_per_level=rights_per_level)
        holder_keys, holder_did = registered_identity(REGISTRY)
        vc = issue_to_holder(keys, did, chain, holder_did)
        challenge = fresh_challenge()
        vp = build_presentation(holder_keys, holder_did, [vc], challenge)
        assert verify(vp, challenge, [root_did]).ok
    elif not legal:
        with pytest.raises(IssuanceError):
            build_hierarchy(REGISTRY, depth, rights_per_level=rights_per_level)
    else:
        root_did, keys, did, chain = build_hierarchy(REGISTRY, depth, rights_per_level=rights_per_level)
        holder_keys, holder_did = registered_identity(REGISTRY)
        with pytest.raises(IssuanceError):
            issue_to_holder(keys, did, chain, holder_did)


# -- remembered signatures: a hit answers exactly what a fresh verify would -------------


def warm(vp, challenge, roots):
    """Verify once so every credential and link signature is remembered."""
    assert verify(vp, challenge, roots).ok


def test_claims_changed_after_a_warm_verify_still_fail():
    root_did, issuer_keys, issuer_did, chain = build_hierarchy(REGISTRY, 1)
    holder_keys, holder_did = registered_identity(REGISTRY)
    vc = issue_to_holder(issuer_keys, issuer_did, chain, holder_did)
    challenge = fresh_challenge()
    warm(build_presentation(holder_keys, holder_did, [vc], challenge), challenge, [root_did])

    forged = dataclasses.replace(vc, claims={"nf_type": "SMF"})
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [forged], challenge)
    assert verify(vp, challenge, [root_did]).failures == ["bad_vc_signature"]


def test_widened_link_after_a_warm_verify_still_breaks_the_chain():
    from sbacl.crypto import ed25519_sign

    root_did, issuer_keys, issuer_did, chain = build_hierarchy(
        REGISTRY,         2, rights_per_level=[("issue_authn", "delegate"), ("issue_authn",)]
    )
    holder_keys, holder_did = registered_identity(REGISTRY)
    vc = issue_to_holder(issuer_keys, issuer_did, chain, holder_did)
    challenge = fresh_challenge()
    warm(build_presentation(holder_keys, holder_did, [vc], challenge), challenge, [root_did])

    widened = dataclasses.replace(chain[1], claims={"rights": "issue_authn,issue_authz"})
    tampered = dataclasses.replace(vc, delegation_chain=[chain[0], widened])
    # the issuer re-signs over the widened chain, so only the link is at fault
    tampered.proof = ed25519_sign(issuer_keys.signing_secret, tampered.signing_bytes())
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [tampered], challenge)
    assert verify(vp, challenge, [root_did]).failures == ["chain_broken"]


def test_rotated_issuer_key_fails_an_old_credential_after_a_warm_verify(registry):
    from sbacl.identity import (create_registry_did, generate_keypair, rotate_document,
                                self_sign_document)

    issuer_keys = generate_keypair()
    issuer_did, doc = create_registry_did(issuer_keys)
    registry.register(self_sign_document(doc, issuer_keys))
    resolver = Resolver(registry)
    policy = TrustPolicy.trusting(issuer_did)
    holder_keys, holder_did = registered_identity(registry)
    old = issue_credential(issuer_keys, issuer_did, KIND_AUTHN, holder_did, {"nf_type": "AMF"})

    def present(vc):
        challenge = fresh_challenge()
        vp = build_presentation(holder_keys, holder_did, [vc], challenge)
        return verify_presentation(vp, challenge, policy, resolver)

    assert present(old).ok
    new_keys = generate_keypair()
    registry.update(rotate_document(doc, new_keys, issuer_keys.signing_secret))
    resolver.refresh(issuer_did)

    assert present(old).failures == ["bad_vc_signature"]
    fresh = issue_credential(new_keys, issuer_did, KIND_AUTHN, holder_did, {"nf_type": "AMF"})
    assert present(fresh).ok


def test_a_warm_presentation_costs_one_ed25519_verify(monkeypatch):
    from sbacl import crypto

    root_did, issuer_keys, issuer_did, chain = build_hierarchy(REGISTRY, 2)
    holder_keys, holder_did = registered_identity(REGISTRY)
    creds = [
        issue_to_holder(issuer_keys, issuer_did, chain, holder_did),
        issue_to_holder(issuer_keys, issuer_did, chain, holder_did, kind=KIND_AUTHZ,
                        claims={"producer": "UDM", "service": "*", "ops": "*"}),
    ]
    calls = []
    original = crypto.ed25519_verify

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(crypto, "ed25519_verify", counting)

    # the documents are resolved first: their history checks are not counted
    for did in (root_did, chain[1].issuer, issuer_did, holder_did):
        RESOLVER.resolve(did)

    def present():
        challenge = fresh_challenge()
        vp = build_presentation(holder_keys, holder_did, creds, challenge)
        calls.clear()
        assert verify(vp, challenge, [root_did]).ok
        return len(calls)

    # cold: the presentation, both credentials, and the two links they share
    assert present() == 1 + 2 + 2
    # warm, under a new challenge: only the presentation's own signature
    assert present() == 1


# -- revocation: one fresh status read per registry per presentation ------------------


class CountingRegistry(Registry):
    def __init__(self):
        super().__init__()
        self.status_reads = []

    def check_status(self, registry_id, credential_ids):
        self.status_reads.append((registry_id, list(credential_ids)))
        return super().check_status(registry_id, credential_ids)


def revoke(registry, issuer_keys, vc):
    from sbacl.crypto import ed25519_sign
    from sbacl.vdr import revoke_request_bytes

    registry_id, credential_id = vc.revocation
    registry.revoke(registry_id, credential_id, ed25519_sign(
        issuer_keys.signing_secret, revoke_request_bytes(registry_id, credential_id)))


def authn_and_three_authz(issuer, holder_did):
    keys, did = issuer
    return [issue_credential(keys, did, KIND_AUTHN, holder_did, {"nf_type": "AMF"},
                             revocation_registry_id=did)] + [
        issue_credential(keys, did, KIND_AUTHZ, holder_did,
                         {"producer": producer, "service": "*", "ops": "*"},
                         revocation_registry_id=did)
        for producer in ("UDM", "AUSF", "PCF")
    ]


def present_to(registry, holder, creds, roots):
    holder_keys, holder_did = holder
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, creds, challenge)
    return verify_presentation(vp, challenge, TrustPolicy.trusting(*roots), Resolver(registry))


def test_revoking_only_the_last_of_four_credentials_fails_the_presentation():
    registry = CountingRegistry()
    issuer = registered_identity(registry)
    holder = registered_identity(registry)
    creds = authn_and_three_authz(issuer, holder[1])
    assert present_to(registry, holder, creds, [issuer[1]]).ok

    revoke(registry, issuer[0], creds[-1])
    assert present_to(registry, holder, creds, [issuer[1]]).failures == ["revoked"]
    assert present_to(registry, holder, creds[:-1], [issuer[1]]).ok


def test_status_is_read_once_per_registry_per_presentation():
    registry = CountingRegistry()
    holder = registered_identity(registry)
    first = registered_identity(registry)
    creds = authn_and_three_authz(first, holder[1])

    assert present_to(registry, holder, creds, [first[1]]).ok
    assert registry.status_reads == [(first[1], [vc.credential_id for vc in creds])]
    registry.status_reads.clear()
    assert present_to(registry, holder, creds, [first[1]]).ok
    assert len(registry.status_reads) == 1  # read fresh on every presentation

    second = registered_identity(registry)
    more = creds + authn_and_three_authz(second, holder[1])[1:]
    registry.status_reads.clear()
    assert present_to(registry, holder, more, [first[1], second[1]]).ok
    assert sorted(reg for reg, _ in registry.status_reads) == sorted([first[1], second[1]])


def test_unknown_revocation_registry_still_raises():
    from sbacl.errors import RegistryError

    registry = Registry()
    keys, did = registered_identity(registry)
    holder = registered_identity(registry)
    vc = issue_credential(keys, did, KIND_AUTHN, holder[1], {"nf_type": "AMF"},
                          revocation_registry_id="f" * 64)
    with pytest.raises(RegistryError) as err:
        present_to(registry, holder, [vc], [did])
    assert err.value.code == "unknown_registry"


def test_revocation_registry_outage_still_raises():
    from sbacl.vdr_http import RegistryHttpClient

    class StatusOutage(Registry):
        def check_status(self, registry_id, credential_ids):
            dead = RegistryHttpClient("http://127.0.0.1:1", timeout=0.2)
            return dead.check_status(registry_id, credential_ids)

    registry = StatusOutage()
    keys, did = registered_identity(registry)
    holder = registered_identity(registry)
    vc = issue_credential(keys, did, KIND_AUTHN, holder[1], {"nf_type": "AMF"},
                          revocation_registry_id="r" * 64)
    with pytest.raises(RegistryUnavailableError):
        present_to(registry, holder, [vc], [did])


def test_a_status_answer_missing_an_id_is_not_a_verdict():
    class Forgetful(Registry):
        def check_status(self, registry_id, credential_ids):
            return {}

    registry = Forgetful()
    keys, did = registered_identity(registry)
    holder = registered_identity(registry)
    vc = issue_credential(keys, did, KIND_AUTHN, holder[1], {"nf_type": "AMF"},
                          revocation_registry_id=did)
    with pytest.raises(RevocationCheckError):
        present_to(registry, holder, [vc], [did])
