"""credmask: mask browser saved-login rows into an encrypted vault and
restore them byte-exactly after the owner authenticates."""

from .auth import (
    AuthProof,
    FingerprintRecord,
    PassphraseRecord,
    check_policy,
    enroll_fingerprint,
    enroll_passphrase,
    verify_fingerprint,
    verify_passphrase,
)
from .crypto import KdfParams
from .engine import (
    ConflictReport,
    MaskPlan,
    StatusReport,
    UnmaskPlan,
    apply_mask,
    apply_unmask,
    plan_mask,
    plan_unmask,
    status,
)
from .evaluation import EvalReport, evaluate, generate_synthetic, score_dataset
from .matching import MatchParams, MatchResult, match_templates
from .minutiae import (
    Minutia,
    Template,
    load_template,
    save_template,
)
from .store import (
    KeyStoreDigest,
    LoginRow,
    StoreHandle,
    canonical_login_row,
    check_not_busy,
    init_fixture,
    keystore_digest,
    open_store,
)
from .vault import VaultEntry, VaultFile, create_vault, open_vault

__version__ = "0.1.0"
