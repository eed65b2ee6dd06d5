"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v  (add -s to see the lines inline).
Criterion 5, the crossing-number rule of a skeleton-image extractor, was
retired with that code; the other criteria keep their numbers.
"""

import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from credmask import auth, engine
from credmask.cli import main as cli_main
from credmask.crypto import KdfParams
from credmask.errors import CredmaskError
from credmask.evaluation import evaluate, generate_synthetic, score_dataset
from credmask.matching import match_templates
from credmask.minutiae import (
    BIFURCATION,
    TERMINATION,
    Minutia,
    Template,
    save_template,
)
from credmask.store import (CANONICAL_COLUMNS, canonical_login_row, init_fixture,
                            keystore_digest, open_store)
from credmask.vault import create_vault, open_vault

from conftest import TINY_KDF, file_sha256, make_rows, ten_host_counts
from crash_child import KILLED, run_killed
from test_vault_reference import tagged

PASSPHRASE = "acceptance passphrase"
SIX_HOSTS = [f"host0{i}.example" for i in range(6)]

# Frozen after the first run agreed with the brute-force threshold-sweep
# oracle (criterion 7's): the seed-7 synthetic dataset is perfectly separable.
PINNED_SYNTHETIC_EER = 0.0


def criterion(number, title):
    def mark(fn):
        fn.acceptance_number = number
        fn.acceptance_title = title
        return fn
    return mark


def build_world(tmp_path):
    """25-row, 10-host store plus a 1 KiB random key store and an empty vault."""
    handle = init_fixture(tmp_path / "signons.sqlite", make_rows(ten_host_counts()))
    keystore = tmp_path / "key3.db"
    keystore.write_bytes(os.urandom(1024))
    vf = create_vault(tmp_path / "vault.cmv", PASSPHRASE, KdfParams.generate(**TINY_KDF))
    return handle, vf, keystore


def random_template(rng, n=20, field=400.0):
    return Template(tuple(
        Minutia(float(rng.uniform(0, field)), float(rng.uniform(0, field)),
                float(rng.uniform(0, 2 * math.pi)),
                TERMINATION if rng.integers(0, 2) == 0 else BIFURCATION)
        for _ in range(n)
    ))


def rigid_copy(template, rot, dx, dy):
    c, s = math.cos(rot), math.sin(rot)
    return Template(tuple(
        Minutia(c * m.x - s * m.y + dx, s * m.x + c * m.y + dy, m.theta + rot, m.kind)
        for m in template.minutiae
    ))


@criterion(1, "mask/unmask round trip is byte-identical and leaves the key store alone")
def test_criterion_1_round_trip_fidelity(tmp_path):
    handle, vf, keystore = build_world(tmp_path)
    original_dump = handle.dump_canonical()
    digest_before = keystore_digest(keystore)

    started = time.perf_counter()
    engine.apply_mask(handle, vf, SIX_HOSTS, keystore)
    up = engine.plan_unmask(vf, None, engine.KEEP_LIVE)
    conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
    elapsed = time.perf_counter() - started

    assert handle.dump_canonical() == original_dump
    assert keystore_digest(keystore) == digest_before
    assert engine.status(handle, vf).mode == engine.MODE_NORMAL and conflicts == []
    assert elapsed < 1.0, f"round trip took {elapsed:.3f}s"
    handle.close()
    vf.close()


@criterion(2, "cmd_unmask gates on passphrase and fingerprint, touching nothing on failure")
def test_criterion_2_auth_gating(tmp_path, capsys):
    handle, vf, keystore = build_world(tmp_path)
    store_path, vault_path = handle.path, vf.path
    engine.apply_mask(handle, vf, SIX_HOSTS, keystore)
    handle.close()
    vf.close()

    def run(*args, passphrase):
        r, w = os.pipe()
        os.write(w, passphrase.encode() + b"\n")
        os.close(w)
        code = cli_main([str(a) for a in args] + ["--passphrase-fd", str(r)])
        os.close(r)
        capsys.readouterr()
        return code

    store_hash, vault_hash = file_sha256(store_path), file_sha256(vault_path)
    code = run("unmask", "--store", store_path, "--vault", vault_path, "--all",
               passphrase="wrong " + PASSPHRASE)
    assert code == 2
    assert file_sha256(store_path) == store_hash
    assert file_sha256(vault_path) == vault_hash

    # enroll a fingerprint, require both kinds, then present a losing probe
    rng = np.random.default_rng(21)
    enrolled = random_template(rng)
    impostor = random_template(rng)
    with open_vault(vault_path, PASSPHRASE) as vf:
        auth.enroll_fingerprint(vf, enrolled, threshold=0.4)
        auth.set_policy(vf, auth.POLICY_BOTH)
        vf.commit()
    assert match_templates(enrolled, impostor).score < 0.4
    probe_path = tmp_path / "impostor.min"
    save_template(impostor, probe_path)

    store_hash, vault_hash = file_sha256(store_path), file_sha256(vault_path)
    code = run("unmask", "--store", store_path, "--vault", vault_path, "--all",
               "--fingerprint", probe_path, passphrase=PASSPHRASE)
    assert code == 2
    assert file_sha256(store_path) == store_hash
    assert file_sha256(vault_path) == vault_hash


@criterion(3, "every single-byte corruption of a committed vault fails to open")
def test_criterion_3_tamper_suite(tmp_path):
    path = tmp_path / "small.cmv"
    with create_vault(path, PASSPHRASE, KdfParams.generate(**TINY_KDF)) as vf:
        rows = [canonical_login_row(1, "only.example")]
        from credmask.vault import VaultEntry
        vf.entries["only.example"] = VaultEntry.from_store_rows(
            "only.example", rows, 0, str(tmp_path / "signons.sqlite"), CANONICAL_COLUMNS, "id")
        auth.enroll_passphrase(vf, PASSPHRASE, KdfParams.generate(**TINY_KDF))
        vf.commit()

    blob = bytearray(path.read_bytes())
    assert len(blob) < 4096, f"vault unexpectedly large: {len(blob)} bytes"
    silent_acceptances = []
    for position in range(len(blob)):
        blob[position] ^= 0xFF
        path.write_bytes(blob)
        try:
            with open_vault(path, PASSPHRASE):
                silent_acceptances.append(position)
        except CredmaskError:
            pass
        blob[position] ^= 0xFF
    assert silent_acceptances == []
    path.write_bytes(blob)
    open_vault(path, PASSPHRASE).close()  # the pristine file still opens


@criterion(4, "a crash between vault commit and store delete loses no row")
def test_criterion_4_crash_safety(tmp_path):
    handle, vf, keystore = build_world(tmp_path)
    original = Counter(tagged(handle.read_rows()))
    dump = handle.dump_canonical()
    assert sum(original.values()) == 25

    # a child process masking six hosts is killed right after its vault commit
    vf.close()
    proc = run_killed("after-vault-commit", "mask", "--store", handle.path,
                      "--vault", vf.path, "--hosts", ",".join(SIX_HOSTS),
                      "--keystore", keystore, passphrase=PASSPHRASE)
    assert proc.returncode == KILLED, proc.stderr
    vf = open_vault(vf.path, PASSPHRASE)

    # every original row is recoverable from store + vault
    recoverable = Counter(tagged(handle.read_rows()))
    recoverable.update(tagged(
        row for e in vf.entries.values() for row in e.store_rows(CANONICAL_COLUMNS, "id")))
    for key, count in original.items():
        assert recoverable[key] >= count

    # recovery: unmask with keep-live collapses the duplicates exactly
    up = engine.plan_unmask(vf, None, engine.KEEP_LIVE)
    engine.apply_unmask(up, vf.open_proof, handle, vf)
    after = Counter(tagged(handle.read_rows()))
    assert after == original
    assert handle.dump_canonical() == dump
    handle.close()
    vf.close()


@criterion(6, "matcher self-score, rigid-motion invariance, and symmetry are exact")
def test_criterion_6_matcher_invariants():
    rng = np.random.default_rng(600)
    for _ in range(100):
        t = random_template(rng)
        assert match_templates(t, t).score == 1.0
    base = random_template(rng)
    for _ in range(20):
        rot = float(rng.uniform(0, 2 * math.pi))
        dx, dy = (float(v) for v in rng.uniform(-300, 300, size=2))
        assert match_templates(base, rigid_copy(base, rot, dx, dy)).score == 1.0
    for _ in range(100):
        a = random_template(rng, n=int(rng.integers(2, 25)))
        b = random_template(rng, n=int(rng.integers(2, 25)))
        assert match_templates(a, b).score == match_templates(b, a).score


@criterion(7, "evaluate matches the brute-force threshold sweep within 1e-9")
def test_criterion_7_eer_oracle():
    from test_evaluation import oracle_eer

    rng = np.random.default_rng(700)
    for _ in range(100):
        genuine = [float(v) for v in rng.random(int(rng.integers(1, 50)))]
        impostor = [float(v) for v in rng.random(int(rng.integers(1, 50)))]
        report = evaluate(genuine, impostor)
        assert abs(report.eer - oracle_eer(genuine, impostor)) < 1e-9
        assert all(x >= y for x, y in zip(report.far, report.far[1:]))
        assert all(x <= y for x, y in zip(report.frr, report.frr[1:]))


@criterion(8, "seed-7 synthetic dataset separates cleanly (EER < 0.10, pinned)")
def test_criterion_8_synthetic_separation():
    from test_evaluation import oracle_eer

    records = generate_synthetic(seed=7, n_templates=50, minutiae_per_template=20,
                                 field=(400, 400), position_jitter=2.0,
                                 angle_jitter=0.1, deletion_rate=0.1)
    genuine, impostor = score_dataset(records)
    report = evaluate(genuine, impostor)
    assert sum(genuine) / len(genuine) > sum(impostor) / len(impostor)
    assert report.eer < 0.10
    assert abs(report.eer - oracle_eer(genuine, impostor)) < 1e-9
    assert report.eer == pytest.approx(PINNED_SYNTHETIC_EER, abs=1e-12)


@criterion(9, "every documented CLI error path produces its stated exit code")
def test_criterion_9_exit_code_matrix(tmp_path, capsys):
    handle, vf, keystore = build_world(tmp_path)
    store_path, vault_path = handle.path, vf.path
    engine.apply_mask(handle, vf, SIX_HOSTS, keystore)
    handle.close()
    vf.close()

    def run(*args, passphrase=None):
        argv = [str(a) for a in args]
        fd = None
        if passphrase is not None:
            fd, w = os.pipe()
            os.write(w, passphrase.encode() + b"\n")
            os.close(w)
            argv += ["--passphrase-fd", str(fd)]
        code = cli_main(argv)
        if fd is not None:
            os.close(fd)
        capsys.readouterr()
        return code

    # 0: success paths
    assert run("list", "--store", store_path) == 0
    assert run("status", "--store", store_path, "--vault", vault_path,
               passphrase=PASSPHRASE) == 0
    store_hash, vault_hash = file_sha256(store_path), file_sha256(vault_path)
    assert run("mask", "--store", store_path, "--vault", vault_path,
               "--hosts", "host06.example", "--dry-run", passphrase=PASSPHRASE) == 0
    assert file_sha256(store_path) == store_hash  # dry run left the files alone
    assert file_sha256(vault_path) == vault_hash

    # 1: usage and unreadable-input errors
    assert run("list", "--store", tmp_path / "missing.sqlite") == 1
    assert run("unmask", "--store", store_path, "--vault", vault_path) == 1
    assert run("mask", "--store", store_path, "--vault", vault_path,
               "--hosts", "nobody.example", passphrase=PASSPHRASE) == 1
    assert run("auth", "set-policy", "both", "--vault", vault_path,
               passphrase=PASSPHRASE) == 1
    assert run("bio-eval", "--dataset", tmp_path) == 1  # no probes laid out

    # 2: authentication failures
    assert run("unmask", "--store", store_path, "--vault", vault_path, "--all",
               passphrase="not it") == 2
    with open_vault(vault_path, PASSPHRASE) as open_vf:
        rng = np.random.default_rng(9)
        auth.enroll_fingerprint(open_vf, random_template(rng), threshold=0.4)
        auth.set_policy(open_vf, auth.POLICY_BOTH)
        open_vf.commit()
    assert run("unmask", "--store", store_path, "--vault", vault_path, "--all",
               passphrase=PASSPHRASE) == 2  # policy needs a probe none was given
    with open_vault(vault_path, PASSPHRASE) as open_vf:
        auth.set_policy(open_vf, auth.POLICY_PASSPHRASE_ONLY)
        open_vf.commit()

    # 3: busy store
    lock = store_path.parent / ".parentlock"
    lock.touch()
    assert run("unmask", "--store", store_path, "--vault", vault_path, "--all",
               passphrase=PASSPHRASE) == 3
    assert run("mask", "--store", store_path, "--vault", vault_path,
               "--hosts", "host06.example", passphrase=PASSPHRASE) == 3
    lock.unlink()

    # 5: conflicts under --conflicts fail
    rw = open_store(store_path, "rw")
    rw.insert_rows([canonical_login_row(900, "host00.example",
                                        encryptedUsername="resaved")])
    rw.close()
    assert run("unmask", "--store", store_path, "--vault", vault_path, "--all",
               "--conflicts", "fail", passphrase=PASSPHRASE) == 5

    # 4: tampered vault
    blob = bytearray(vault_path.read_bytes())
    blob[0] ^= 0xFF
    vault_path.write_bytes(blob)
    assert run("unmask", "--store", store_path, "--vault", vault_path, "--all",
               passphrase=PASSPHRASE) == 4
    blob[0] ^= 0xFF
    vault_path.write_bytes(blob)

    # 0 again: the keep-live recovery path ends clean
    assert run("unmask", "--store", store_path, "--vault", vault_path, "--all",
               "--conflicts", "keep-live", passphrase=PASSPHRASE) == 0
