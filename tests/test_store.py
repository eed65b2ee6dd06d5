import shutil
import sqlite3
import subprocess
import sys
import tracemalloc
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
from test_vault_reference import tagged

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


def test_list_logins_by_ids_reads_only_those_in_row_id_order(store_factory):
    handle = store_factory({"a.example": 700, "b.example": 600})
    everything = handle.list_logins()
    wanted = [1300, 5, 1301, 999, 5, 2, 501, 500, 0]  # unordered, repeated, absent
    assert handle.list_logins(wanted) == [r for r in everything if r.row_id in wanted]
    many = range(1301, 0, -2)  # more than one 500-id chunk
    assert handle.list_logins(many) == [r for r in everything if r.row_id % 2]
    assert handle.list_logins([]) == []


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


def test_a_writable_store_zeroes_what_it_deletes(store_factory, stock_sqlite):
    # ON, not FAST, which leaves the pages a delete frees as they were
    with open_store(store_factory().path, READ_WRITE) as rw:
        assert rw._conn.execute("PRAGMA secure_delete").fetchone() == (1,)


def test_init_fixture_round_trips_rows(tmp_path):
    rows = make_rows({"x.example": 3})
    handle = init_fixture(tmp_path / "s.sqlite", rows)
    try:
        assert tagged(handle.read_rows()) == tagged(rows)
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
        assert tagged(handle.read_rows()) == tagged(rows)
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
    rows = list(handle.read_rows())
    handle.delete_rows({r[0] for r in rows})
    assert list(handle.read_rows()) == []
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


def test_dump_streams_its_rows(tmp_path):
    """The dump's peak allocation stays near its own length: no per-row object
    outlives its row."""
    with init_fixture(tmp_path / "s.sqlite", make_rows({"a.example": 2000})) as handle:
        handle.dump_canonical()  # warm the statement cache
        tracemalloc.start()
        try:
            dump = handle.dump_canonical()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(dump) > 2000 * 100
    assert peak < 3 * len(dump)


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
