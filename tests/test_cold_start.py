"""Commands run as fresh processes, the way the CLI is used.

Every in-process test shares one interpreter where numpy is already loaded,
so only a fresh process shows which commands start without numpy, the
matcher and the system OpenSSL that hashlib maps (or the slow-to-import
click, dataclasses and inspect), and that the commands which compute with
them work from a cold start.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

from credmask.evaluation import generate_synthetic
from credmask.minutiae import save_template
from credmask.store import open_store

from conftest import CHILD_ENV, ten_host_counts
from test_matcher_differential import spread_over_1e300

PASS = "correct horse"
REPO_ROOT = Path(__file__).resolve().parents[1]
# A name set to None in sys.modules makes every import of it raise ImportError
UNLOADED = ("numpy", "click", "dataclasses", "inspect", "hashlib", "_hashlib", "hmac",
            "credmask.matching", "credmask.minutiae", "credmask.evaluation")
LEAN_LAUNCH = (f"import sys, runpy; sys.modules.update(dict.fromkeys({UNLOADED!r})); "
               "runpy.run_module('credmask', run_name='__main__', alter_sys=True)")


def credmask(*args, lean=False, passphrase=PASS):
    launch = ["-c", LEAN_LAUNCH] if lean else ["-m", "credmask"]
    fd = ["--passphrase-fd", "0"] if passphrase else []
    return subprocess.run(
        [sys.executable, *launch, *(str(a) for a in args), *fd],
        input=f"{passphrase}\n", capture_output=True, text=True, timeout=120,
        cwd=REPO_ROOT, env=CHILD_ENV)


def dump_of(path):
    with open_store(path) as handle:
        return handle.dump_canonical()


def test_list_mask_status_unmask_run_without_numpy(store_factory, tmp_path):
    store_path = store_factory(ten_host_counts(), name="profile").path
    vault_path = tmp_path / "vault.cmv"
    original = dump_of(store_path)
    where = ("--store", store_path, "--vault", vault_path)

    def run(*args):
        proc = credmask(*args, lean=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    listed = run("list", "--store", store_path).splitlines()
    assert len(listed) == 11 and all(ln.endswith(" live") for ln in listed[1:])
    out = run("mask", *where, "--hosts", "host00.example,host03.example", "--init",
              "--kdf-memory-mib", "1", "--kdf-iterations", "1")
    assert "masked 2 host(s); mode: masked" in out
    out = run("status", *where)
    assert "mode: masked" in out
    assert "masked hosts: host00.example, host03.example" in out
    assert "live hosts: 8" in out
    out = run("unmask", *where, "--all")
    assert "restored 2 host(s); mode: normal" in out
    assert dump_of(store_path) == original


def test_fingerprint_unmask_and_bio_eval_in_a_fresh_process(store_factory, tmp_path):
    store_path = store_factory(ten_host_counts(), name="profile").path
    vault_path = tmp_path / "vault.cmv"
    original = dump_of(store_path)
    record = generate_synthetic(11, 2, 20, probes_per_template=1, impostors_per_template=1,
                                position_jitter=1.0, angle_jitter=0.05,
                                deletion_rate=0.0)[0]
    enrolled, genuine = tmp_path / "enrolled.min", tmp_path / "genuine.min"
    save_template(record.template, enrolled)
    save_template(record.genuine_probes[0], genuine)
    where = ("--vault", vault_path)
    for args in (("mask", "--store", store_path, *where, "--hosts",
                  "host00.example,host03.example", "--init",
                  "--kdf-memory-mib", "1", "--kdf-iterations", "1"),
                 ("auth", "enroll-fingerprint", *where, "--template", enrolled),
                 ("auth", "set-policy", "both", *where)):
        proc = credmask(*args)
        assert proc.returncode == 0, proc.stderr

    proc = credmask("unmask", "--store", store_path, *where, "--all",
                    "--fingerprint", genuine)
    assert proc.returncode == 0, proc.stderr
    assert dump_of(store_path) == original

    proc = credmask("bio-eval", "--synthetic", "--templates", "10", passphrase=None)
    assert proc.returncode == 0, proc.stderr
    assert "genuine 30, impostor 50 comparisons" in proc.stdout
    assert "EER " in proc.stdout


def test_bio_eval_of_far_flung_templates_warns_of_nothing(tmp_path):
    rng = np.random.default_rng(12)
    for name in ("enrolled.min", "genuine/g0.min", "impostor/i0.min"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        save_template(spread_over_1e300(rng, 12), tmp_path / name)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "credmask", "bio-eval", "--dataset", tmp_path],
        capture_output=True, text=True, timeout=120, cwd=REPO_ROOT, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "genuine 1, impostor 1 comparisons" in proc.stdout
