import hashlib
import os
import resource
import sqlite3
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from credmask import cli
from credmask.crypto import KdfParams
from credmask.store import canonical_login_row, init_fixture

# The environment of a credmask child interpreter: the checkout's src/, a plain
# PATH, and whether this run writes bytecode (-B or PYTHONDONTWRITEBYTECODE),
# so the children leave no __pycache__ in src/ that the tests themselves would not.
CHILD_ENV = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
             "PATH": "/usr/bin:/bin",
             **({"PYTHONDONTWRITEBYTECODE": "1"} if sys.flags.dont_write_bytecode else {})}

# Cheapest valid Argon2id settings; vault tests would crawl at production cost.
TINY_KDF = dict(memory_bytes=8 * 1024, iterations=1, parallelism=1)
LIGHT_KDF = dict(memory_bytes=8 * 1024 * 1024, iterations=1, parallelism=1)


@pytest.fixture
def tiny_kdf():
    return KdfParams.generate(**TINY_KDF)


@pytest.fixture
def light_kdf():
    return KdfParams.generate(**LIGHT_KDF)


def make_rows(host_counts):
    """Sequential-id canonical rows, e.g. make_rows({"a.example": 2, "b.example": 1})."""
    rows = []
    next_id = 1
    for host, count in host_counts.items():
        for _ in range(count):
            rows.append(canonical_login_row(next_id, host))
            next_id += 1
    return rows


def ten_host_counts(rows_total=25, hosts=10):
    counts = {}
    for i in range(rows_total):
        host = f"host{i % hosts:02d}.example"
        counts[host] = counts.get(host, 0) + 1
    return counts


@pytest.fixture
def store_factory(tmp_path):
    """Create fixture stores under unique paths inside the test's tmp dir."""
    made = []

    def factory(host_counts=None, name=None):
        if host_counts is None:
            host_counts = {"a.example": 2, "b.example": 1}
        path = tmp_path / (name or f"store{len(made)}") / "signons.sqlite"
        handle = init_fixture(path, make_rows(host_counts))
        made.append(handle)
        return handle

    yield factory
    for handle in made:
        handle.close()


@pytest.fixture
def stock_sqlite(monkeypatch):
    """Every connection starts as a stock SQLite build's does: secure_delete off."""
    real_connect = sqlite3.connect

    def connect(*args, **kwargs):
        conn = real_connect(*args, **kwargs)
        conn.execute("PRAGMA secure_delete=0")
        return conn

    monkeypatch.setattr(sqlite3, "connect", connect)


@pytest.fixture(autouse=True)
def keep_core_limit():
    """``cli.main`` forbids core files to its process for good. Run in-process
    it leaves the test runner's limit alone, so the crash children the runner
    starts can still raise theirs, and show whether their own ``main`` lowers it.
    A patch of its own, which a test's ``monkeypatch.undo()`` leaves in place."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "resource", SimpleNamespace(
            RLIMIT_CORE=resource.RLIMIT_CORE, setrlimit=lambda *limit: None))
        yield


@pytest.fixture
def keystore_file(tmp_path):
    path = tmp_path / "key3.db"
    path.write_bytes(os.urandom(1024))
    return path


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """One printed pass/fail line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    number = getattr(item.function, "acceptance_number", None)
    if number is not None and report.when == "call":
        verdict = "PASS" if report.passed else "FAIL"
        title = getattr(item.function, "acceptance_title", "")
        print(f"\nACCEPTANCE {number}: {verdict} - {title}")
