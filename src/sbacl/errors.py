"""Exception hierarchy shared across the package.

Semantic verification outcomes are NOT exceptions: credential verification
returns a Verdict with failure codes. Exceptions are reserved for malformed
inputs, policy violations at issuance time, broken transports, and
infrastructure faults that must never be mistaken for a valid result.
"""

from __future__ import annotations


class SbaclError(Exception):
    """Base class for all errors raised by this package."""


class IdentityError(SbaclError):
    """Malformed DID, bad key material, or an illegal document operation."""


class RegistryError(SbaclError):
    """Registry rejected a request. Carries a machine-readable code."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(message or code)


class RegistryUnavailableError(SbaclError):
    """The registry could not be reached. Infrastructure fault, never a verdict."""


class IssuanceError(SbaclError):
    """Credential issuance refused (rights escalation, chain mismatch, policy)."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(message or code)


class PresentationError(SbaclError):
    """Presentation could not be built (foreign subject, bad challenge)."""


class RevocationCheckError(SbaclError):
    """Revocation checking was required but could not be performed."""


class EnvelopeError(SbaclError):
    """Base class for envelope pack/unpack and wire-format failures."""


class NotIntendedRecipientError(EnvelopeError):
    """The envelope's key commitment does not match the one derived here.

    With static-static key agreement this covers both cases that are
    cryptographically indistinguishable: the envelope was encrypted to a
    different recipient, or the header names a sender whose agreement key
    did not produce it.
    """


class EnvelopeIntegrityError(EnvelopeError):
    """AEAD tag check failed on the payload: ciphertext or header mutated."""


class StaleKeyError(EnvelopeError):
    """Envelope was encrypted to a superseded recipient key version."""

    def __init__(self, got: int, current: int):
        self.got = got
        self.current = current
        super().__init__(f"envelope targets key version {got}, current is {current}")


class WireFormatError(EnvelopeError):
    """Frame truncated, oversized, or not decodable."""


class ProtocolError(SbaclError):
    """Protocol-level failure in a message exchange."""


class IdentificationRejectedError(ProtocolError):
    """The peer refused our identification presentation."""


class PolicyDeniedError(ProtocolError):
    """The issuer's policy matched no rule for the requested credential."""


class HandshakeRejectedError(ProtocolError):
    """Mutual identification or authorization failed during a handshake."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"handshake rejected: {reason}" + (f" ({detail})" if detail else ""))


class PeerUnreachableError(SbaclError):
    """The peer's envelope endpoint could not be reached or timed out."""


class StalePeerKeyError(SbaclError):
    """Peer reported our envelope used a superseded key version for it."""


class ConfigError(SbaclError):
    """Configuration failed validation. Lists every violation found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
