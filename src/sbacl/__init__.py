"""Decentralized identity and permissions for service-based architectures.

Network functions get DID-based identities, verifiable credentials instead
of certificates and tokens, and an encrypted message envelope between their
sidecars. The registry, issuers (IPMFs), sidecars, and a scenario harness
all run in-process over localhost HTTP.
"""

from .credentials import (
    KIND_AUTHN,
    KIND_AUTHZ,
    KIND_DEL,
    TrustPolicy,
    Verdict,
    VerifiableCredential,
    VerifiablePresentation,
    build_presentation,
    evaluate_authorization,
    fresh_challenge,
    issue_credential,
    issue_delegation,
    verify_presentation,
)
from .envelope import Envelope, ProtocolMessage, pack, unpack
from .errors import (
    ConfigError,
    EnvelopeError,
    IdentityError,
    IssuanceError,
    PresentationError,
    ProtocolError,
    RegistryError,
    SbaclError,
    StaleKeyError,
)
from .identity import (
    DidDocument,
    KeyPair,
    Resolver,
    create_registry_did,
    generate_keypair,
    parse_did,
    rotate_document,
    self_sign_document,
)
from .ipmf import Ipmf, PolicyRule
from .sidecar import LocalService, RouteRule, Sidecar
from .vdr import Registry
from .vdr_http import RegistryHttpClient, RegistryServer

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DidDocument",
    "Envelope",
    "EnvelopeError",
    "IdentityError",
    "Ipmf",
    "IssuanceError",
    "KIND_AUTHN",
    "KIND_AUTHZ",
    "KIND_DEL",
    "KeyPair",
    "LocalService",
    "PolicyRule",
    "PresentationError",
    "ProtocolError",
    "ProtocolMessage",
    "Registry",
    "RegistryError",
    "RegistryHttpClient",
    "RegistryServer",
    "Resolver",
    "RouteRule",
    "SbaclError",
    "Sidecar",
    "StaleKeyError",
    "TrustPolicy",
    "Verdict",
    "VerifiableCredential",
    "VerifiablePresentation",
    "build_presentation",
    "create_registry_did",
    "evaluate_authorization",
    "fresh_challenge",
    "generate_keypair",
    "issue_credential",
    "issue_delegation",
    "pack",
    "parse_did",
    "rotate_document",
    "self_sign_document",
    "unpack",
    "verify_presentation",
]
