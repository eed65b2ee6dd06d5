"""Exception hierarchy shared by every credmask module."""

from __future__ import annotations


class CredmaskError(Exception):
    """Base class for all credmask domain errors."""


# --- login store ------------------------------------------------------------

class NotADatabaseError(CredmaskError):
    """The file is not a SQLite-format database."""


class SchemaError(CredmaskError):
    """The logins table is missing or its shape is unusable."""


class StoreBusyError(CredmaskError):
    """The store is held by another process (db lock or browser lock file)."""


class ReadOnlyStoreError(CredmaskError):
    """A mutation was attempted through a read-only handle."""


class RowNotFoundError(CredmaskError):
    """A delete referenced a row id that does not exist; nothing was changed."""

    def __init__(self, missing_ids):
        self.missing_ids = tuple(sorted(missing_ids))
        super().__init__(f"row ids not present: {list(self.missing_ids)}")


class RowIdConflictError(CredmaskError):
    """An insert would collide with an existing row id; nothing was changed."""

    def __init__(self, conflicting_ids):
        self.conflicting_ids = tuple(sorted(conflicting_ids))
        super().__init__(f"row ids already present: {list(self.conflicting_ids)}")


class SchemaMismatchError(CredmaskError):
    """A row's column set does not match the store's current schema."""


class MissingKeyStoreError(CredmaskError):
    """The key-store file does not exist."""


class AlreadyExistsError(CredmaskError):
    """Refusing to create a file over an existing path."""


# --- vault ------------------------------------------------------------------

class WrongSecretError(CredmaskError):
    """Decryption failed under this passphrase (or the body was altered)."""


class TamperedVaultError(CredmaskError):
    """The vault file is structurally corrupt."""


class BadVersionError(CredmaskError):
    """The vault format version is not supported by this build."""


class VaultLockedError(CredmaskError):
    """Another handle already holds the vault's advisory lock."""


class UnknownHostError(CredmaskError):
    """The hostname is not present where it was required to be."""


# --- mask engine ------------------------------------------------------------

class EmptySelectionError(CredmaskError):
    """No hosts were selected."""


class AlreadyMaskedError(CredmaskError):
    """A selected host is already vaulted."""


class StoreMismatchError(CredmaskError):
    """Vaulted hosts were masked from a store other than the one given."""


class NothingMaskedError(CredmaskError):
    """The vault holds no entries to restore."""


class UnresolvedConflictError(CredmaskError):
    """Conflicts were found and the chosen policy is to fail."""

    def __init__(self, reports):
        self.reports = tuple(reports)
        hosts = ", ".join(r.hostname for r in self.reports)
        super().__init__(f"unresolved conflicts for: {hosts}")


# --- authentication ---------------------------------------------------------

class AuthFailedError(CredmaskError):
    """The presented credential did not verify.

    ``score`` carries the fingerprint match score when one was computed; the
    enrolled template itself is never attached to the error.
    """

    def __init__(self, message: str, score: float | None = None):
        self.score = score
        super().__init__(message)


class AlreadyEnrolledError(CredmaskError):
    """A record of this kind exists; re-enrolling needs a valid proof."""


class TooFewMinutiaeError(CredmaskError):
    """The template is below the minimum enrollable minutiae count."""


class BadThresholdError(CredmaskError):
    """Decision thresholds must lie strictly between 0 and 1."""


class PolicyUnsatisfiedError(CredmaskError):
    """The proofs at hand do not cover every kind the policy requires."""

    def __init__(self, missing_kinds):
        self.missing_kinds = frozenset(missing_kinds)
        super().__init__(f"policy not satisfied, missing: {sorted(self.missing_kinds)}")


# --- evaluation -------------------------------------------------------------

class EmptyScoresError(CredmaskError):
    """Evaluation needs at least one genuine and one impostor score."""


class BadParamsError(CredmaskError):
    """Synthetic-dataset or evaluation parameters are out of range."""
