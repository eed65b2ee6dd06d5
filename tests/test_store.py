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
    CANONICAL_COLUMNS,
    READ_ONLY,
    READ_WRITE,
    canonical_login_row,
    check_not_busy,
    init_fixture,
    keystore_digest,
    open_store,
)

import dump_reference
from conftest import CHILD_ENV, make_rows
from test_vault_reference import tagged

REPO_ROOT = Path(__file__).resolve().parents[1]
PER_INSERT = 999 // len(CANONICAL_COLUMNS)  # canonical rows per INSERT statement


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


@pytest.mark.parametrize("ddl", [
    '("id" INT PRIMARY KEY, hostname TEXT)',
    '("id" INTEGER PRIMARY KEY, hostname TEXT) WITHOUT ROWID',
])
def test_open_store_refuses_a_primary_key_that_is_not_the_rowid_alias(tmp_path, ddl):
    # either key can hold text, which no vaulted row id can
    p = tmp_path / "signons.sqlite"
    conn = sqlite3.connect(p)
    conn.execute(f"CREATE TABLE moz_logins {ddl}")
    conn.commit()
    conn.close()
    with pytest.raises(SchemaError, match="rowid"):
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


def test_failing_delete_or_insert_in_an_open_transaction_undoes_only_its_own_statements(
        store_factory):
    handle = store_factory({"a.example": 3, "b.example": 2})
    with handle.write_transaction():
        handle.insert_rows([canonical_login_row(10, "c.example")])  # kept: not the failing call's
        with pytest.raises(RowNotFoundError) as missing:
            handle.delete_rows([1, 2, 98, 99])  # 1 and 2 are deleted before the count is known
        assert missing.value.missing_ids == (98, 99)
        with pytest.raises(RowIdConflictError) as taken:
            handle.insert_rows([canonical_login_row(11, "c.example"),
                                canonical_login_row(3, "c.example"),
                                canonical_login_row(10, "c.example")])
        assert taken.value.conflicting_ids == (3, 10)
        with pytest.raises(sqlite3.IntegrityError, match="NOT NULL"):  # not an id: re-raised
            handle.insert_rows([canonical_login_row(12, "c.example"),
                                canonical_login_row(13, None)])
        assert [r[0] for r in handle.read_rows()] == [1, 2, 3, 4, 5, 10]
    with open_store(handle.path) as fresh:
        assert [r[0] for r in fresh.read_rows()] == [1, 2, 3, 4, 5, 10]


def test_host_selection_reads_exact_hostnames_across_chunks(tmp_path):
    p = tmp_path / "nocase.sqlite"
    conn = sqlite3.connect(p)
    conn.execute("CREATE TABLE moz_logins (id INTEGER PRIMARY KEY,"
                 " hostname TEXT COLLATE NOCASE, encryptedUsername TEXT)")
    conn.execute("CREATE INDEX moz_logins_hostname_index ON moz_logins (hostname)")
    hosts = [f"h{i:03d}.example" for i in range(501)]
    rows = [(i + 1, host, f"ENC-{i}") for i, host in enumerate(hosts * 2)]
    rows += [(2000, "H000.example", "ENC-upper"), (2001, "h500.EXAMPLE", "ENC-upper")]
    conn.executemany("INSERT INTO moz_logins VALUES (?, ?, ?)", rows)
    conn.commit()
    conn.close()
    with open_store(p) as handle:
        read = list(handle.read_rows(hosts=hosts))
        assert handle.hostnames() == {*hosts, "H000.example", "h500.EXAMPLE"}
    assert sorted(read) == sorted(rows[:-2])
    for i in (0, 499, 500):  # both sides of the chunk, each host's rows in id order
        assert [row for row in read if row[1] == hosts[i]] == [rows[i], rows[i + 501]]


@pytest.mark.parametrize("hostname", ["CAST(x'53454352455466ff' AS TEXT)", "42"],
                         ids=["not-utf8", "integer"])
def test_hostnames_checks_text_without_quoting_the_cell(tmp_path, hostname):
    p = tmp_path / "hosts.sqlite"
    conn = sqlite3.connect(p)
    conn.execute("CREATE TABLE moz_logins (id INTEGER PRIMARY KEY, hostname)")
    conn.execute("INSERT INTO moz_logins VALUES (1, 'a.example')")
    conn.execute(f"INSERT INTO moz_logins VALUES (2, {hostname})")
    conn.commit()
    conn.close()
    with open_store(p) as handle:
        assert list(handle.read_rows(hosts=["a.example"])) == [(1, "a.example")]
        with pytest.raises(SchemaError) as exc:
            handle.hostnames()
    assert "TEXT" in str(exc.value) and "SECRET" not in str(exc.value)
    writer = sqlite3.connect(p, timeout=0.5)  # the kept error holds no read lock
    writer.execute("UPDATE moz_logins SET hostname = 'b.example' WHERE id = 1")
    writer.commit()
    writer.close()


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
                         env=CHILD_ENV)
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
                env=CHILD_ENV)
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


def test_host_counts_tell_nocase_spellings_apart(tmp_path):
    # GROUP BY on a COLLATE NOCASE column would fold A.example into a.example
    p = tmp_path / "nocase.sqlite"
    conn = sqlite3.connect(p)
    conn.execute("CREATE TABLE moz_logins (id INTEGER PRIMARY KEY,"
                 " hostname TEXT COLLATE NOCASE, encryptedUsername TEXT)")
    conn.executemany("INSERT INTO moz_logins VALUES (?, ?, ?)",
                     [(3, "a.example", "x"), (1, "A.example", "y"), (2, "a.example", "z")])
    conn.commit()
    conn.close()
    with open_store(p) as handle:
        assert handle.host_counts() == {"A.example": 1, "a.example": 2}


@pytest.mark.parametrize("hostname", ["CAST(x'53454352455466ff' AS TEXT)", "42"],
                         ids=["not-utf8", "integer"])
def test_host_counts_check_text_without_quoting_the_cell(tmp_path, hostname):
    p = tmp_path / "hosts.sqlite"
    conn = sqlite3.connect(p)
    conn.execute("CREATE TABLE moz_logins (id INTEGER PRIMARY KEY, hostname)")
    conn.execute("INSERT INTO moz_logins VALUES (1, 'a.example')")
    conn.execute(f"INSERT INTO moz_logins VALUES (2, {hostname})")
    conn.commit()
    conn.close()
    with open_store(p) as handle:
        with pytest.raises(SchemaError) as exc:
            handle.host_counts()
        assert handle.row_ids() == {1, 2}  # ids alone never read the bad cell
        with pytest.raises(SchemaError, match="TEXT"):
            handle.list_logins()
    assert "TEXT" in str(exc.value) and "SECRET" not in str(exc.value)


def test_row_ids_read_the_id_column_only(tmp_path):
    handle = init_fixture(tmp_path / "s.sqlite", make_rows({"a.example": 2, "b.example": 3}))
    statements = []
    handle._conn.set_trace_callback(statements.append)
    try:
        assert handle.row_ids() == {1, 2, 3, 4, 5}
        assert handle.row_ids([5, 2, 9]) == {2, 5}
    finally:
        handle._conn.set_trace_callback(None)
        handle.close()
    assert len(statements) == 2
    assert all(sql.startswith('SELECT "id" FROM') for sql in statements), statements


def varied_rows(count, first_id=1):
    """Canonical rows whose cells run through every storage class, each value
    one that the column's affinity keeps as it is."""
    text = [None, "", "ü 世界", "nul\x00text", b"", b"\x00\xff blob"]
    number = [None, 0, -(2 ** 63), 2 ** 63 - 1, 2.5, float("-inf"), "not a number", b"\x01"]
    return [canonical_login_row(first_id + i, f"h{i % 7}.example",
                                httpRealm=text[i % len(text)],
                                encryptedPassword=text[(i * 5) % len(text)],
                                encType=number[i % len(number)])
            for i in range(count)]


def inserts_of(handle, rows) -> list[str]:
    """The INSERT statements one insert_rows call runs."""
    statements = []
    handle._conn.set_trace_callback(statements.append)
    try:
        assert handle.insert_rows(rows) == len(rows)
    finally:
        handle._conn.set_trace_callback(None)
    return [sql for sql in statements if sql.startswith("INSERT")]


@pytest.mark.parametrize("count", [PER_INSERT - 1, PER_INSERT, PER_INSERT + 1,
                                   2 * PER_INSERT + 1])
def test_insert_rows_fills_statements_of_999_variables_byte_exactly(tmp_path, count):
    rows = varied_rows(count)
    with init_fixture(tmp_path / "s.sqlite") as handle:
        assert len(inserts_of(handle, rows)) == -(-count // PER_INSERT)
        assert handle.dump_canonical() == dump_reference.dump(
            dump_reference.login_rows(rows, CANONICAL_COLUMNS, "id"))


def test_a_conflict_in_the_last_statement_undoes_every_statement_of_the_call(store_factory):
    handle = store_factory({"a.example": 2})
    kept = canonical_login_row(3, "c.example")
    rows = varied_rows(2 * PER_INSERT + 1, first_id=10)
    rows[-1] = canonical_login_row(2, "z.example")  # id 2 is taken
    with handle.write_transaction():
        handle.insert_rows([kept])
        before = handle.dump_canonical()
        with pytest.raises(RowIdConflictError) as taken:
            handle.insert_rows(rows)
        assert taken.value.conflicting_ids == (2,)
        assert handle.dump_canonical() == before
    assert [row[0] for row in handle.read_rows()] == [1, 2, 3]


def test_a_table_of_120_columns_inserts(tmp_path):
    path = tmp_path / "wide.sqlite"
    extra = [f"c{i}" for i in range(118)]
    conn = sqlite3.connect(path)
    conn.execute('CREATE TABLE moz_logins ("id" INTEGER PRIMARY KEY, "hostname" TEXT, '
                 + ", ".join(f'"{c}" TEXT' for c in extra) + ")")
    conn.close()
    rows = [(i, "wide.example", *(f"{i}-{c}" for c in extra)) for i in range(1, 21)]
    with open_store(path, READ_WRITE) as handle:
        assert len(handle.schema) == 120
        assert len(inserts_of(handle, rows)) == 3  # 999 // 120 = 8 rows a statement
        assert list(handle.read_rows()) == rows
