import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from credmask.errors import (
    AlreadyExistsError,
    MissingKeyStoreError,
    NotADatabaseError,
    ReadOnlyStoreError,
    RowIdConflictError,
    RowNotFoundError,
    SchemaError,
    SchemaMismatchError,
    StoreBusyError,
)
from credmask.store import (
    READ_ONLY,
    READ_WRITE,
    canonical_login_row,
    check_not_busy,
    init_fixture,
    keystore_digest,
    open_store,
)

from conftest import make_rows

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_open_store_introspects_schema(store_factory):
    handle = store_factory()
    assert "hostname" in handle.schema
    assert handle.pk_column == "id"
    # oracle: ask sqlite directly
    conn = sqlite3.connect(handle.path)
    names = [r[1] for r in conn.execute("PRAGMA table_info(moz_logins)")]
    conn.close()
    assert list(handle.schema) == names


def test_open_store_rejects_zero_byte_file(tmp_path):
    p = tmp_path / "empty.sqlite"
    p.write_bytes(b"")
    with pytest.raises(NotADatabaseError):
        open_store(p)


def test_open_store_rejects_garbage_file(tmp_path):
    p = tmp_path / "garbage.sqlite"
    p.write_bytes(b"this is not a database, not even close")
    with pytest.raises(NotADatabaseError):
        open_store(p)


def test_open_store_requires_logins_table(tmp_path):
    p = tmp_path / "other.sqlite"
    conn = sqlite3.connect(p)
    conn.execute("CREATE TABLE unrelated (x TEXT)")
    conn.commit()
    conn.close()
    with pytest.raises(SchemaError):
        open_store(p)


def test_open_store_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        open_store(tmp_path / "nope.sqlite")


def test_list_logins_matches_direct_query(store_factory):
    handle = store_factory({"a.example": 2, "b.example": 1})
    rows = handle.list_logins()
    assert [r.hostname for r in rows] == ["a.example", "a.example", "b.example"]
    assert [r.row_id for r in rows] == [1, 2, 3]
    conn = sqlite3.connect(handle.path)
    direct = conn.execute("SELECT id, hostname FROM moz_logins ORDER BY id").fetchall()
    conn.close()
    assert [(r.row_id, r.hostname) for r in rows] == direct


def test_list_logins_empty_table(store_factory):
    handle = store_factory({})
    assert handle.list_logins() == []


def test_reads_are_mode_independent(store_factory):
    rw = store_factory()
    ro = open_store(rw.path, READ_ONLY)
    try:
        assert ro.list_logins() == rw.list_logins()
        assert ro.dump_canonical() == rw.dump_canonical()
    finally:
        ro.close()


def test_init_fixture_round_trips_rows(tmp_path):
    rows = make_rows({"x.example": 3})
    handle = init_fixture(tmp_path / "s.sqlite", rows)
    try:
        assert handle.list_logins() == rows
    finally:
        handle.close()


def test_init_fixture_handles_odd_cell_values(tmp_path):
    rows = [
        canonical_login_row(1, "x.example", encryptedUsername=b"\x00\xff binary",
                            httpRealm=None, encType=-5),
        canonical_login_row(2, "x.example", encType=2.5, guid="ümlaut-世界"),
    ]
    handle = init_fixture(tmp_path / "s.sqlite", rows)
    try:
        assert handle.list_logins() == rows
    finally:
        handle.close()


def test_init_fixture_refuses_existing_path(tmp_path):
    path = tmp_path / "s.sqlite"
    init_fixture(path, []).close()
    with pytest.raises(AlreadyExistsError):
        init_fixture(path, [])


def test_delete_rows_exact_and_counted(store_factory):
    handle = store_factory({"a.example": 2, "b.example": 1})
    assert handle.delete_rows({1, 3}) == 2
    remaining = handle.list_logins()
    assert [r.row_id for r in remaining] == [2]


def test_delete_rows_empty_set_is_noop(store_factory):
    handle = store_factory()
    before = handle.dump_canonical()
    assert handle.delete_rows(set()) == 0
    assert handle.dump_canonical() == before


def test_delete_rows_missing_id_mutates_nothing(store_factory):
    handle = store_factory()
    before = handle.dump_canonical()
    with pytest.raises(RowNotFoundError):
        handle.delete_rows({1, 99})
    assert handle.dump_canonical() == before


def test_delete_requires_write_mode(store_factory):
    rw = store_factory()
    ro = open_store(rw.path, READ_ONLY)
    try:
        with pytest.raises(ReadOnlyStoreError):
            ro.delete_rows({1})
    finally:
        ro.close()


def test_delete_insert_round_trip_is_byte_exact(store_factory):
    handle = store_factory({"a.example": 2, "b.example": 1})
    original = handle.dump_canonical()
    rows = handle.list_logins()
    handle.delete_rows({r.row_id for r in rows})
    assert handle.list_logins() == []
    assert handle.insert_rows(rows) == 3
    assert handle.dump_canonical() == original


def test_insert_rows_empty_is_noop(store_factory):
    handle = store_factory()
    assert handle.insert_rows([]) == 0


def test_insert_conflicting_id_mutates_nothing(store_factory):
    handle = store_factory({"a.example": 2})
    before = handle.dump_canonical()
    with pytest.raises(RowIdConflictError):
        handle.insert_rows([canonical_login_row(1, "z.example")])
    assert handle.dump_canonical() == before


def test_insert_schema_mismatch(store_factory):
    handle = store_factory()
    row = canonical_login_row(50, "z.example")
    bad = type(row)(row_id=50, hostname="z.example", cells=row.cells[:-1])
    with pytest.raises(SchemaMismatchError):
        handle.insert_rows([bad])


def test_list_disabled_hosts(tmp_path):
    handle = init_fixture(tmp_path / "s.sqlite", [], disabled=["c.example"])
    try:
        assert handle.list_disabled_hosts() == ["c.example"]
    finally:
        handle.close()


def test_disabled_hosts_table_absent_gives_empty(tmp_path):
    p = tmp_path / "bare.sqlite"
    conn = sqlite3.connect(p)
    conn.execute("CREATE TABLE moz_logins (id INTEGER PRIMARY KEY, hostname TEXT)")
    conn.commit()
    conn.close()
    handle = open_store(p)
    try:
        assert handle.list_disabled_hosts() == []
    finally:
        handle.close()


def test_disabled_hosts_empty_table(store_factory):
    assert store_factory().list_disabled_hosts() == []


def test_keystore_digest_deterministic(keystore_file):
    assert keystore_digest(keystore_file) == keystore_digest(keystore_file)
    assert len(keystore_digest(keystore_file).digest) == 32


def test_keystore_digest_missing_file(tmp_path):
    with pytest.raises(MissingKeyStoreError):
        keystore_digest(tmp_path / "absent.db")


def test_dump_identical_for_copies(store_factory, tmp_path):
    handle = store_factory({"a.example": 2, "b.example": 1})
    copy_path = tmp_path / "copy.sqlite"
    shutil.copy(handle.path, copy_path)
    other = open_store(copy_path)
    try:
        assert handle.dump_canonical() == other.dump_canonical()
    finally:
        other.close()


def test_dump_changes_after_delete(store_factory):
    handle = store_factory()
    before = handle.dump_canonical()
    handle.delete_rows({1})
    assert handle.dump_canonical() != before


def test_dump_stable_across_processes(store_factory):
    handle = store_factory({"a.example": 2, "b.example": 1})
    script = (
        "import sys; from credmask.store import open_store; "
        f"h = open_store({str(handle.path)!r}); "
        "sys.stdout.buffer.write(h.dump_canonical()); h.close()"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         check=True, cwd=REPO_ROOT,
                         env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert out.stdout == handle.dump_canonical()


def test_check_not_busy_quiescent(store_factory):
    handle = store_factory()
    check_not_busy(handle.path)


def test_check_not_busy_sees_write_lock(store_factory):
    handle = store_factory()
    blocker = sqlite3.connect(handle.path)
    try:
        blocker.execute("BEGIN IMMEDIATE")
        with pytest.raises(StoreBusyError):
            check_not_busy(handle.path)
    finally:
        blocker.rollback()
        blocker.close()


def test_check_not_busy_sees_sibling_lock_file(store_factory):
    handle = store_factory()
    lock = handle.path.parent / ".parentlock"
    lock.touch()
    with pytest.raises(StoreBusyError, match="parentlock"):
        check_not_busy(handle.path)


CHILD_WRITER = """
import sys
from credmask.errors import StoreBusyError
from credmask.store import open_store
handle = open_store(sys.argv[1], "rw")
try:
    handle.delete_rows({1})
    print("wrote")
except StoreBusyError:
    print("busy")
"""


def test_one_writer_at_a_time(store_factory):
    first = store_factory()
    second = open_store(first.path, READ_WRITE)
    before = second.dump_canonical()
    try:
        with first.write_transaction():
            child = subprocess.Popen(
                [sys.executable, "-c", CHILD_WRITER, str(first.path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO_ROOT,
                env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})
            with pytest.raises(StoreBusyError):
                second.delete_rows({1})
            out, err = child.communicate(timeout=60)
            assert (out, child.returncode) == ("busy\n", 0), err
            assert second.dump_canonical() == before
        assert second.delete_rows({1}) == 1
        assert second.dump_canonical() != before
    finally:
        second.close()


def test_dump_canonical_bytes_are_pinned(tmp_path):
    p = tmp_path / "golden.sqlite"
    conn = sqlite3.connect(p)
    conn.execute("CREATE TABLE moz_logins (id INTEGER PRIMARY KEY, hostname TEXT,"
                 " note BLOB, score REAL)")
    conn.execute("INSERT INTO moz_logins VALUES (7, 'a.example', NULL, 0.5)")
    conn.execute("INSERT INTO moz_logins VALUES (-3, 'b', x'00ff', NULL)")
    conn.commit()
    conn.close()
    expected = (
        b"\x01"                                            # dump version
        b"\xff\xff\xff\xff\xff\xff\xff\xfd" b"\x00\x04"      # row -3, 4 cells
        b"\x00\x00\x00\x09" b"i\xff\xff\xff\xff\xff\xff\xff\xfd"
        b"\x00\x00\x00\x02" b"tb"
        b"\x00\x00\x00\x03" b"b\x00\xff"
        b"\xff\xff\xff\xff"                                # NULL
        b"\x00\x00\x00\x00\x00\x00\x00\x07" b"\x00\x04"      # row 7, 4 cells
        b"\x00\x00\x00\x09" b"i\x00\x00\x00\x00\x00\x00\x00\x07"
        b"\x00\x00\x00\x0a" b"ta.example"
        b"\xff\xff\xff\xff"                                # NULL
        b"\x00\x00\x00\x09" b"f\x3f\xe0\x00\x00\x00\x00\x00\x00"  # 0.5
    )
    with open_store(p) as handle:
        assert handle.dump_canonical() == expected


def test_host_row_ids_reads_ids_only_and_checks_text(tmp_path):
    p = tmp_path / "hosts.sqlite"
    conn = sqlite3.connect(p)
    conn.execute("CREATE TABLE moz_logins (id INTEGER PRIMARY KEY, hostname)")
    conn.executemany("INSERT INTO moz_logins VALUES (?, ?)",
                     [(3, "b.example"), (1, "b.example"), (2, "a.example")])
    conn.commit()
    with open_store(p) as handle:
        by_host = handle.host_row_ids()
    assert list(by_host.items()) == [("b.example", [1, 3]), ("a.example", [2])]
    conn.execute("INSERT INTO moz_logins VALUES (4, 42)")
    conn.commit()
    conn.close()
    with open_store(p) as handle:
        with pytest.raises(SchemaError, match="TEXT"):
            handle.host_row_ids()
        with pytest.raises(SchemaError, match="TEXT"):
            handle.list_logins()
