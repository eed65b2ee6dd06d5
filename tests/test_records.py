"""The value records: constructors, validation, equality, hashing, immutability."""

import math

import pytest

from credmask.auth import AuthProof, FingerprintRecord, PassphraseRecord
from credmask.crypto import SALT_LEN, KdfParams
from credmask.engine import ConflictReport, MaskPlan, StatusReport, UnmaskPlan
from credmask.evaluation import EvalReport
from credmask.matching import DEFAULT_PARAMS, MatchParams, MatchResult
from credmask.minutiae import BIFURCATION, TERMINATION, TWO_PI, Minutia, Template
from credmask.store import KeyStoreDigest, LoginRow

SALT = bytes(SALT_LEN)


def template():
    return Template([Minutia(1.0, 2.0, 0.5, TERMINATION)], source_id="s")


FROZEN = [
    (Minutia(1.0, 2.0, 0.5, TERMINATION), "x"),
    (template(), "minutiae"),
    (MatchParams(), "distance_tolerance"),
    (KdfParams(8 * 1024, 1, 1, SALT), "salt"),
    (AuthProof(frozenset({"passphrase"})), "kinds"),
    (MatchResult(1.0, 1, 1, 1, (0.0, 0.0, 0.0)), "score"),
    (MaskPlan((), None), "selections"),
    (UnmaskPlan(frozenset(), "keep-live"), "hosts"),
    (StatusReport("normal", (), (), True), "mode"),
    (ConflictReport("h", 1, 1, 1, "keep-live"), "action"),
    (EvalReport((0.0,), (0.0,), (0.0,), 0.0), "eer"),
    (LoginRow(1, "h", ()), "cells"),
    (KeyStoreDigest("k", b"d"), "digest"),
]


@pytest.mark.parametrize("record, field", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_frozen_records_refuse_assignment_and_hash_by_value(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert hash(record) == hash(record)
    assert {record: 1}[record] == 1


def test_minutia_normalises_theta_and_validates():
    assert Minutia(x=0.0, y=0.0, theta=-math.pi / 2, kind=BIFURCATION).theta == \
        pytest.approx(1.5 * math.pi)
    assert Minutia(0.0, 0.0, TWO_PI, TERMINATION).theta == 0.0
    assert Minutia(0.0, 0.0, 7.0, TERMINATION) == Minutia(0.0, 0.0, 7.0 - TWO_PI, TERMINATION)
    with pytest.raises(ValueError, match="kind"):
        Minutia(0.0, 0.0, 0.0, "ridge")
    with pytest.raises(ValueError, match="finite"):
        Minutia(math.nan, 0.0, 0.0, TERMINATION)


def test_template_is_a_tuple_of_minutiae_with_its_own_length():
    t = Template(minutiae=[Minutia(1.0, 2.0, 0.5, TERMINATION)] * 3)
    assert isinstance(t.minutiae, tuple) and len(t) == 3 and t.source_id == ""
    assert len(Template()) == 0
    assert template() == template() and template() != Template(template().minutiae, "t")
    with pytest.raises(AttributeError):
        del t.source_id


def test_match_params_defaults_and_validation():
    assert MatchParams() == DEFAULT_PARAMS
    assert MatchParams(distance_tolerance=math.inf).kind_strict is True
    for bad in (dict(distance_tolerance=0.0), dict(distance_tolerance=1e200),
                dict(angle_tolerance=0.0), dict(angle_tolerance=4.0)):
        with pytest.raises(ValueError):
            MatchParams(**bad)


def test_kdf_params_validation_and_fresh_salt():
    params = KdfParams.generate(8 * 1024, 1)
    fresh = params.with_fresh_salt()
    cost = (params.memory_bytes, params.iterations, params.parallelism)
    assert (fresh.memory_bytes, fresh.iterations, fresh.parallelism) == cost
    assert fresh.salt != params.salt
    for bad in ((8 * 1024, 1, 1, b"short"), (8 * 1024, 0, 1, SALT),
                (8 * 1024, 1, 0, SALT), (1000, 1, 1, SALT)):
        with pytest.raises(ValueError):
            KdfParams(*bad)


def test_auth_records_compare_without_their_vault_token():
    kdf = KdfParams(8 * 1024, 1, 1, SALT)
    a = PassphraseRecord(kdf, b"v" * 32, vault_token=b"one")
    b = PassphraseRecord(kdf=kdf, verifier=b"v" * 32)
    assert a == b and a.kind == "passphrase"
    assert a != PassphraseRecord(kdf, b"w" * 32)
    assert FingerprintRecord(template(), 0.4, b"one") == FingerprintRecord(template(), 0.4)
    assert a != FingerprintRecord(template(), 0.4)
    b.vault_token = b"two"  # bound to a vault after it is built
    assert [a].index(b) == 0
    with pytest.raises(TypeError):
        hash(a)
    assert "one" not in repr(a)
    assert repr(b) == f"PassphraseRecord(kdf={kdf!r}, verifier={b'v' * 32!r})"


def test_auth_proof_compares_its_token_and_hides_it():
    proof = AuthProof(frozenset({"passphrase"}), vault_token=b"secret-token")
    assert proof != AuthProof(frozenset({"passphrase"}), vault_token=b"other")
    assert proof == AuthProof(kinds=frozenset({"passphrase"}), scores=(),
                              vault_token=b"secret-token")
    assert "secret-token" not in repr(proof)
