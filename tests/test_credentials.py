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
from sbacl.identity import Resolver

from conftest import build_hierarchy, issue_to_holder, peer_identity

RESOLVER = Resolver()  # peer DIDs only; no registry behind it


def verify(vp, challenge, roots, **kwargs):
    policy = kwargs.pop("policy", None) or TrustPolicy.trusting(*roots)
    return verify_presentation(vp, challenge, policy, RESOLVER, **kwargs)


def presentation_for(depth=0, kind=KIND_AUTHN, claims=None, validity=None):
    root_did, issuer_keys, issuer_did, chain = build_hierarchy(depth)
    holder_keys, holder_did = peer_identity()
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
    _, stranger = peer_identity()
    verdict = verify(vp, challenge, [stranger])
    assert not verdict.ok
    assert "chain_untrusted" in verdict.failures


def test_tampered_vp_proof():
    root_did, vp, challenge = presentation_for()
    bad = dataclasses.replace(vp, proof=bytes(b ^ 1 for b in vp.proof))
    verdict = verify(bad, challenge, [root_did])
    assert verdict.failures == ["bad_vp_signature"]


def test_tampered_vc_proof():
    root_keys, root_did = peer_identity()
    holder_keys, holder_did = peer_identity()
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did, {"nf_type": "AMF"})
    bad_vc = dataclasses.replace(vc, proof=bytes(b ^ 1 for b in vc.proof))
    challenge = fresh_challenge()
    # the holder re-signs honestly over the tampered credential, so only
    # the credential signature is at fault
    vp = build_presentation(holder_keys, holder_did, [bad_vc], challenge)
    verdict = verify(vp, challenge, [root_did])
    assert verdict.failures == ["bad_vc_signature"]


def test_subject_must_match_holder():
    root_keys, root_did = peer_identity()
    holder_keys, holder_did = peer_identity()
    other_keys, other_did = peer_identity()
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, other_did, {"nf_type": "AMF"})
    challenge = fresh_challenge()
    with pytest.raises(PresentationError):
        build_presentation(holder_keys, holder_did, [vc], challenge)


def test_expiry_honours_clock_skew():
    root_keys, root_did = peer_identity()
    holder_keys, holder_did = peer_identity()
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
    root_keys, root_did = peer_identity()
    holder_keys, holder_did = peer_identity()
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did,
                          {"nf_type": "AMF"}, revocation_registry_id="r" * 64)
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [vc], challenge)
    policy = TrustPolicy(trusted_roots=frozenset([root_did]), require_revocation_check=True)
    with pytest.raises(RevocationCheckError):
        verify_presentation(vp, challenge, policy, RESOLVER)


def test_vc_without_revocation_ref_passes_vacuously():
    root_keys, root_did = peer_identity()
    holder_keys, holder_did = peer_identity()
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did, {"nf_type": "AMF"})
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [vc], challenge)
    policy = TrustPolicy(trusted_roots=frozenset([root_did]), require_revocation_check=True)
    assert verify_presentation(vp, challenge, policy, RESOLVER).ok


def test_issuance_refuses_rights_escalation():
    root_keys, root_did = peer_identity()
    child_keys, child_did = peer_identity()
    link = issue_delegation(root_keys, root_did, child_did, ["issue_authn"])
    grandchild_keys, grandchild_did = peer_identity()
    with pytest.raises(IssuanceError) as err:
        issue_delegation(child_keys, child_did, grandchild_did,
                         ["issue_authn", "issue_authz"], parent_chain=[link])
    assert err.value.code in ("rights_escalation", "missing_delegate_right")


def test_issuance_requires_matching_chain_terminal():
    root_keys, root_did = peer_identity()
    child_keys, child_did = peer_identity()
    link = issue_delegation(root_keys, root_did, child_did,
                            ["issue_authn", "delegate"])
    impostor_keys, impostor_did = peer_identity()
    holder_keys, holder_did = peer_identity()
    with pytest.raises(IssuanceError) as err:
        issue_credential(impostor_keys, impostor_did, KIND_AUTHN, holder_did,
                         {"nf_type": "AMF"}, chain=[link])
    assert err.value.code == "chain_terminal_mismatch"


def test_issuance_requires_the_right_for_the_kind():
    root_keys, root_did = peer_identity()
    child_keys, child_did = peer_identity()
    link = issue_delegation(root_keys, root_did, child_did, ["issue_authn"])
    holder_keys, holder_did = peer_identity()
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
        3, rights_per_level=rights_per_level
    )
    holder_keys, holder_did = peer_identity()
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
        2, rights_per_level=[("issue_authn", "delegate"), ("issue_authn",)]
    )
    holder_keys, holder_did = peer_identity()
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
    root_keys, root_did = peer_identity()
    holder_keys, holder_did = peer_identity()
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
    root_keys, root_did = peer_identity()
    holder_keys_kp, holder_kp_did = peer_identity()
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_kp_did, {"nf_type": "AMF"})
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys_kp, holder_kp_did, [vc], challenge)

    # swap the holder for a registry DID so verification must resolve it
    from sbacl.identity import create_registry_did, generate_keypair
    reg_keys = generate_keypair()
    reg_did, _ = create_registry_did(reg_keys)
    forged = dataclasses.replace(vp, holder=str(reg_did))
    with pytest.raises(RegistryUnavailableError):
        verify_presentation(forged, challenge, TrustPolicy.trusting(root_did), dead)


def test_challenge_shape_enforced():
    holder_keys, holder_did = peer_identity()
    root_keys, root_did = peer_identity()
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did, {"nf_type": "AMF"})
    with pytest.raises(PresentationError):
        build_presentation(holder_keys, holder_did, [vc], b"short")
    with pytest.raises(PresentationError):
        build_presentation(holder_keys, holder_did, [], fresh_challenge())
    assert len(fresh_challenge()) == CHALLENGE_SIZE


def test_revoked_credential_fails(registry):
    from sbacl.crypto import ed25519_sign
    from sbacl.vdr import revocation_request_bytes, revoke_request_bytes

    root_keys, root_did = peer_identity()
    nonce = b"c" * 16
    signature = ed25519_sign(root_keys.signing_secret,
                             revocation_request_bytes(root_did, nonce))
    registry_id = registry.create_revocation_registry(root_did, nonce, signature)

    holder_keys, holder_did = peer_identity()
    vc = issue_credential(root_keys, root_did, KIND_AUTHN, holder_did,
                          {"nf_type": "AMF"}, revocation_registry_id=registry_id)
    challenge = fresh_challenge()
    vp = build_presentation(holder_keys, holder_did, [vc], challenge)
    policy = TrustPolicy(trusted_roots=frozenset([root_did]), require_revocation_check=True)

    before = verify_presentation(vp, challenge, policy, RESOLVER, revocation_client=registry)
    assert before.ok

    registry.revoke(registry_id, vc.credential_id,
                    ed25519_sign(root_keys.signing_secret,
                                 revoke_request_bytes(registry_id, vc.credential_id)))
    after = verify_presentation(vp, challenge, policy, RESOLVER, revocation_client=registry)
    assert after.failures == ["revoked"]


def test_handcrafted_subject_mismatch_detected():
    # an attacker skips build_presentation's guard and signs anyway
    root_keys, root_did = peer_identity()
    victim_keys, victim_did = peer_identity()
    thief_keys, thief_did = peer_identity()
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
    _, stranger = peer_identity()
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
        root_did, keys, did, chain = build_hierarchy(depth, rights_per_level=rights_per_level)
        holder_keys, holder_did = peer_identity()
        vc = issue_to_holder(keys, did, chain, holder_did)
        challenge = fresh_challenge()
        vp = build_presentation(holder_keys, holder_did, [vc], challenge)
        assert verify(vp, challenge, [root_did]).ok
    elif not legal:
        with pytest.raises(IssuanceError):
            build_hierarchy(depth, rights_per_level=rights_per_level)
    else:
        root_did, keys, did, chain = build_hierarchy(depth, rights_per_level=rights_per_level)
        holder_keys, holder_did = peer_identity()
        with pytest.raises(IssuanceError):
            issue_to_holder(keys, did, chain, holder_did)
