import math

import numpy as np
import pytest

from credmask import auth
from credmask.errors import (
    AlreadyEnrolledError,
    AuthFailedError,
    BadThresholdError,
    PolicyUnsatisfiedError,
    TooFewMinutiaeError,
)
from credmask.minutiae import BIFURCATION, TERMINATION, Minutia, Template
from credmask.vault import create_vault


@pytest.fixture
def vault(tmp_path, tiny_kdf):
    vf = create_vault(tmp_path / "v.cmv", "vault-secret", tiny_kdf)
    yield vf
    vf.close()


def synthetic_template(n=20, seed=5):
    rng = np.random.default_rng(seed)
    minutiae = tuple(
        Minutia(float(rng.uniform(0, 300)), float(rng.uniform(0, 300)),
                float(rng.uniform(0, 2 * math.pi)),
                TERMINATION if rng.integers(0, 2) == 0 else BIFURCATION)
        for _ in range(n)
    )
    return Template(minutiae, source_id=f"synth-seed{seed}")


# -- passphrase ---------------------------------------------------------------

def test_enroll_then_verify(vault):
    record = auth.enroll_passphrase(vault, "open sesame")
    # the verifier costs what the vault key costs, under its own salt
    cost = (vault.kdf_params.memory_bytes, vault.kdf_params.iterations,
            vault.kdf_params.parallelism)
    assert (record.kdf.memory_bytes, record.kdf.iterations, record.kdf.parallelism) == cost
    assert record.kdf.salt != vault.kdf_params.salt
    proof = auth.verify_passphrase(record, "open sesame")
    assert auth.KIND_PASSPHRASE in proof.kinds
    assert proof.vault_token == vault.auth_token


def test_verify_wrong_passphrase(vault):
    record = auth.enroll_passphrase(vault, "open sesame")
    with pytest.raises(AuthFailedError):
        auth.verify_passphrase(record, "open sesamee")


def test_verify_empty_passphrase(vault):
    record = auth.enroll_passphrase(vault, "open sesame")
    with pytest.raises(AuthFailedError):
        auth.verify_passphrase(record, "")


def test_verifier_never_stores_passphrase(vault):
    record = auth.enroll_passphrase(vault, "open sesame")
    assert b"open sesame" not in record.verifier
    assert len(record.verifier) == 32


def test_tampered_verifier_fails(vault):
    record = auth.enroll_passphrase(vault, "open sesame")
    record.verifier = bytes([record.verifier[0] ^ 1]) + record.verifier[1:]
    with pytest.raises(AuthFailedError):
        auth.verify_passphrase(record, "open sesame")


def test_verifier_comparison_is_constant_time_by_construction():
    # contract check in lieu of timing: the comparison goes through
    # hmac.compare_digest, never through ==
    import inspect

    source = inspect.getsource(auth.verify_passphrase)
    assert "hmac.compare_digest" in source
    assert "candidate ==" not in source and "== record.verifier" not in source


def test_double_enroll_needs_proof(vault):
    record = auth.enroll_passphrase(vault, "first")
    with pytest.raises(AlreadyEnrolledError):
        auth.enroll_passphrase(vault, "second")
    proof = auth.verify_passphrase(record, "first")
    replacement = auth.enroll_passphrase(vault, "second", proof=proof)
    auth.verify_passphrase(replacement, "second")
    assert [r.kind for r in vault.auth_records].count(auth.KIND_PASSPHRASE) == 1


def test_empty_passphrase_not_enrollable(vault):
    with pytest.raises(ValueError):
        auth.enroll_passphrase(vault, "")


# -- fingerprint ----------------------------------------------------------------

def test_enroll_fingerprint(vault):
    record = auth.enroll_fingerprint(vault, synthetic_template(20), threshold=0.4)
    assert record.threshold == 0.4
    assert record in vault.auth_records


def test_too_few_minutiae(vault):
    with pytest.raises(TooFewMinutiaeError):
        auth.enroll_fingerprint(vault, synthetic_template(3))


def test_bad_threshold(vault):
    with pytest.raises(BadThresholdError):
        auth.enroll_fingerprint(vault, synthetic_template(20), threshold=1.5)
    with pytest.raises(BadThresholdError):
        auth.enroll_fingerprint(vault, synthetic_template(20), threshold=0.0)


def test_identity_probe_verifies(vault):
    template = synthetic_template(20)
    record = auth.enroll_fingerprint(vault, template, threshold=0.4)
    proof = auth.verify_fingerprint(record, template)
    assert dict(proof.scores)[auth.KIND_FINGERPRINT] == 1.0


def test_disjoint_probe_fails_with_score(vault):
    template = synthetic_template(20, seed=5)
    far_away = Template(tuple(
        Minutia(m.x + 100000.0, m.y + 100000.0, m.theta + math.pi, m.kind)
        for m in synthetic_template(20, seed=99).minutiae
    ))
    record = auth.enroll_fingerprint(vault, template, threshold=0.4)
    with pytest.raises(AuthFailedError) as excinfo:
        auth.verify_fingerprint(record, far_away)
    assert excinfo.value.score is not None
    assert excinfo.value.score < 0.4
    # the error must never leak template geometry
    assert "x=" not in str(excinfo.value)


def test_jittered_probe_verifies_at_default_threshold(vault):
    template = synthetic_template(20, seed=11)
    rng = np.random.default_rng(42)
    probe = Template(tuple(
        Minutia(m.x + float(rng.normal(0, 1.0)), m.y + float(rng.normal(0, 1.0)),
                m.theta, m.kind)
        for m in template.minutiae
    ))
    record = auth.enroll_fingerprint(vault, template, threshold=0.4)
    proof = auth.verify_fingerprint(record, probe)
    assert dict(proof.scores)[auth.KIND_FINGERPRINT] >= 0.4


def test_fingerprint_threshold_is_inclusive(vault):
    n = auth.MIN_ENROLL_MINUTIAE
    template = Template(tuple(Minutia(1000.0 * i, 0.0, 0.0, TERMINATION) for i in range(n)))
    probe = Template(template.minutiae[:n // 2])
    score = 2.0 * (n // 2) / (n + n // 2)  # every probe minutia pairs
    record = auth.enroll_fingerprint(vault, template, threshold=score)
    proof = auth.verify_fingerprint(record, probe)
    assert proof.scores == ((auth.KIND_FINGERPRINT, score),)
    for threshold in (math.nextafter(score, 1.0), 0.99):
        record = auth.enroll_fingerprint(vault, template, threshold=threshold)
        with pytest.raises(AuthFailedError) as excinfo:
            auth.verify_fingerprint(record, probe)
        assert excinfo.value.score == score


# -- policy -----------------------------------------------------------------------

def make_proof(*kinds, token=b"tok"):
    return auth.AuthProof(kinds=frozenset(kinds), vault_token=token)


def test_policy_both_satisfied():
    auth.check_policy(auth.POLICY_BOTH,
                      [make_proof(auth.KIND_PASSPHRASE, auth.KIND_FINGERPRINT)])


def test_policy_both_missing_fingerprint():
    with pytest.raises(PolicyUnsatisfiedError) as excinfo:
        auth.check_policy(auth.POLICY_BOTH, [make_proof(auth.KIND_PASSPHRASE)])
    assert excinfo.value.missing_kinds == {auth.KIND_FINGERPRINT}


def test_policy_passphrase_only():
    auth.check_policy(auth.POLICY_PASSPHRASE_ONLY, [make_proof(auth.KIND_PASSPHRASE)])


def test_policy_unknown_name():
    with pytest.raises(ValueError):
        auth.check_policy("retina-only", [])


def test_set_policy_requires_enrolled_kinds(vault):
    with pytest.raises(ValueError):
        auth.set_policy(vault, auth.POLICY_BOTH)
    auth.enroll_fingerprint(vault, synthetic_template(20))
    auth.set_policy(vault, auth.POLICY_BOTH)
    assert vault.policy == auth.POLICY_BOTH


def test_proofs_from_different_vaults_do_not_merge():
    a = make_proof(auth.KIND_PASSPHRASE, token=b"a")
    b = make_proof(auth.KIND_FINGERPRINT, token=b"b")
    with pytest.raises(AuthFailedError):
        a.merged_with(b)
    merged = a.merged_with(make_proof(auth.KIND_FINGERPRINT, token=b"a"))
    assert merged.kinds == {auth.KIND_PASSPHRASE, auth.KIND_FINGERPRINT}
