"""credmask: mask browser saved-login rows into an encrypted vault and
restore them byte-exactly after the owner authenticates.

The names below are imported from their submodules on first access (PEP 562),
so ``import credmask`` loads none of them and each command loads only the
modules it runs: a passphrase-only command never imports the matcher or
numpy.
"""

_EXPORTS = {
    "auth": ("AuthProof", "FingerprintRecord", "PassphraseRecord", "check_policy",
             "enroll_fingerprint", "enroll_passphrase", "verify_fingerprint",
             "verify_passphrase"),
    "crypto": ("KdfParams",),
    "engine": ("ConflictReport", "MaskPlan", "StatusReport", "UnmaskPlan", "apply_mask",
               "apply_unmask", "plan_mask", "plan_unmask", "status"),
    "evaluation": ("EvalReport", "evaluate", "generate_synthetic", "score_dataset"),
    "matching": ("MatchResult", "match_templates"),
    "minutiae": ("Minutia", "Template", "load_template", "save_template"),
    "store": ("KeyStoreDigest", "LoginRow", "StoreHandle", "canonical_login_row",
              "check_not_busy", "init_fixture", "keystore_digest", "open_store"),
    "vault": ("VaultEntry", "VaultFile", "create_vault", "open_vault"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
