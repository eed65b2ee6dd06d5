"""Authentication gate for disabling masked mode.

Two credential kinds can be enrolled into a vault: a passphrase (stored as an
Argon2id verifier, never the passphrase itself) and a fingerprint template
with a per-enrollment decision threshold. A policy names which kinds must be
proven before the engine will restore anything.

The vault key is always derived from the passphrase; a fingerprint is a
policy gate on top, never a key source, because fuzzy biometric measurements
cannot stably derive encryption keys. Proofs are bound to the vault instance
that issued them and expire with it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from . import crypto
from .errors import (
    AlreadyEnrolledError,
    AuthFailedError,
    BadThresholdError,
    PolicyUnsatisfiedError,
    TooFewMinutiaeError,
)

if TYPE_CHECKING:  # the matcher loads numpy; only a fingerprint check imports it
    from .matching import MatchParams, MatchResult
    from .minutiae import Template

KIND_PASSPHRASE = "passphrase"
KIND_FINGERPRINT = "fingerprint"

POLICY_PASSPHRASE_ONLY = "passphrase-only"
POLICY_FINGERPRINT_ONLY = "fingerprint-only"
POLICY_BOTH = "both"
POLICIES = (POLICY_PASSPHRASE_ONLY, POLICY_FINGERPRINT_ONLY, POLICY_BOTH)

MIN_ENROLL_MINUTIAE = 8
DEFAULT_FINGERPRINT_THRESHOLD = 0.4


class _EnrolledRecord:
    """An enrolled credential with the fields named in ``_fields``.

    ``vault_token`` binds the record to the open vault that holds it and is
    left out of its repr.
    """

    __slots__ = ("vault_token",)
    _fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"


class PassphraseRecord(_EnrolledRecord):
    _fields = ("kdf", "verifier")
    __slots__ = _fields
    kind = KIND_PASSPHRASE

    def __init__(self, kdf: crypto.KdfParams, verifier: bytes,
                 vault_token: bytes | None = None):
        self.kdf = kdf
        self.verifier = verifier  # 32 bytes; KDF(passphrase, salt), never the passphrase
        self.vault_token = vault_token


class FingerprintRecord(_EnrolledRecord):
    _fields = ("template", "threshold")
    __slots__ = _fields
    kind = KIND_FINGERPRINT

    def __init__(self, template: Template, threshold: float,
                 vault_token: bytes | None = None):
        self.template = template
        self.threshold = threshold
        self.vault_token = vault_token


AuthRecord = PassphraseRecord | FingerprintRecord


class AuthProof(NamedTuple):
    """Evidence that some credential kinds verified against one vault instance."""

    kinds: frozenset[str]
    scores: tuple[tuple[str, float], ...] = ()
    vault_token: bytes | None = None

    def __repr__(self) -> str:
        return f"AuthProof(kinds={self.kinds!r}, scores={self.scores!r})"

    def merged_with(self, other: "AuthProof") -> "AuthProof":
        if self.vault_token != other.vault_token:
            raise AuthFailedError("proofs were issued by different vault instances")
        return AuthProof(self.kinds | other.kinds, self.scores + other.scores,
                         self.vault_token)


def required_kinds(policy: str) -> frozenset[str]:
    if policy == POLICY_PASSPHRASE_ONLY:
        return frozenset({KIND_PASSPHRASE})
    if policy == POLICY_FINGERPRINT_ONLY:
        return frozenset({KIND_FINGERPRINT})
    if policy == POLICY_BOTH:
        return frozenset({KIND_PASSPHRASE, KIND_FINGERPRINT})
    raise ValueError(f"unknown policy: {policy!r}")


def check_policy(policy: str, proofs: Iterable[AuthProof]) -> None:
    """Raise PolicyUnsatisfiedError unless every required kind is proven."""
    satisfied: set[str] = set()
    for proof in proofs:
        satisfied |= proof.kinds
    missing = required_kinds(policy) - satisfied
    if missing:
        raise PolicyUnsatisfiedError(missing)


def enroll_passphrase(vault, passphrase: bytes | str,
                      kdf_params: crypto.KdfParams | None = None,
                      proof: AuthProof | None = None) -> PassphraseRecord:
    """Store a passphrase verifier in the vault (not committed here).

    Re-enrolling over an existing record requires a valid passphrase proof
    from the same vault instance.
    """
    secret = _as_bytes(passphrase)
    if not secret:
        raise ValueError("passphrase must not be empty")
    existing = [r for r in vault.auth_records if r.kind == KIND_PASSPHRASE]
    if existing:
        if proof is None or proof.vault_token != vault.auth_token \
                or KIND_PASSPHRASE not in proof.kinds:
            raise AlreadyEnrolledError("passphrase already enrolled; present a valid proof")
        for r in existing:
            vault.auth_records.remove(r)
    # the verifier inherits the vault's cost profile unless told otherwise
    base = kdf_params if kdf_params is not None else vault.kdf_params
    params = base.with_fresh_salt()
    record = PassphraseRecord(kdf=params, verifier=crypto.derive_key(secret, params))
    record.vault_token = vault.auth_token
    vault.auth_records.append(record)
    return record


def verify_passphrase(record: PassphraseRecord, passphrase: bytes | str) -> AuthProof:
    """Proof iff the derived verifier matches, compared in constant time."""
    import hmac  # loads the system OpenSSL; only a gate passphrase needs it
    secret = _as_bytes(passphrase)
    if not secret:
        raise AuthFailedError("empty passphrase")
    candidate = crypto.derive_key(secret, record.kdf)
    if not hmac.compare_digest(candidate, record.verifier):
        raise AuthFailedError("passphrase does not verify")
    return AuthProof(kinds=frozenset({KIND_PASSPHRASE}), vault_token=record.vault_token)


def enroll_fingerprint(vault, template: Template,
                       threshold: float = DEFAULT_FINGERPRINT_THRESHOLD) -> FingerprintRecord:
    """Store an enrolled template and its decision threshold (not committed here)."""
    if len(template) < MIN_ENROLL_MINUTIAE:
        raise TooFewMinutiaeError(
            f"template has {len(template)} minutiae, need >= {MIN_ENROLL_MINUTIAE}"
        )
    if not 0 < threshold < 1:
        raise BadThresholdError(f"threshold must be in (0, 1): {threshold}")
    record = FingerprintRecord(template=template, threshold=float(threshold))
    record.vault_token = vault.auth_token
    vault.auth_records.append(record)
    return record


def match_templates(enrolled: Template, probe: Template,
                    params: MatchParams | None = None) -> MatchResult:
    """:func:`credmask.matching.match_templates`, imported on the first call."""
    from . import matching
    return matching.match_templates(
        enrolled, probe, matching.DEFAULT_PARAMS if params is None else params)


def verify_fingerprint(record: FingerprintRecord, probe: Template,
                       params: MatchParams | None = None) -> AuthProof:
    """Proof iff the probe's match score reaches the enrolled threshold.

    The failure error carries the score for logging; it never carries the
    enrolled template.
    """
    result = match_templates(record.template, probe, params)
    if result.score < record.threshold:
        raise AuthFailedError(
            f"fingerprint score {result.score:.4f} below threshold {record.threshold:.4f}",
            score=result.score,
        )
    return AuthProof(
        kinds=frozenset({KIND_FINGERPRINT}),
        scores=((KIND_FINGERPRINT, result.score),),
        vault_token=record.vault_token,
    )


def set_policy(vault, policy: str) -> None:
    """Point the vault at a new policy; every referenced kind must be enrolled."""
    needed = required_kinds(policy)
    enrolled = {r.kind for r in vault.auth_records}
    if KIND_PASSPHRASE in needed:
        # the vault passphrase itself always counts as an enrolled passphrase
        enrolled.add(KIND_PASSPHRASE)
    missing = needed - enrolled
    if missing:
        raise ValueError(f"policy {policy!r} references unenrolled kinds: {sorted(missing)}")
    vault.policy = policy


def _as_bytes(passphrase: bytes | str) -> bytes:
    if isinstance(passphrase, str):
        return passphrase.encode("utf-8")
    return bytes(passphrase)
