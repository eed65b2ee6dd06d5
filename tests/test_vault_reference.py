"""Vault entries that ``mask`` builds, and the canonical dump, are byte for
byte the frozen encoders'.

A store with untyped columns keeps every value's storage class, so its rows
carry the edge values of each class: the INTEGER limits, REAL -0.0, the
infinities and the least subnormal, empty and NUL-holding TEXT and BLOB,
non-ASCII text and NULL. The primary key is not the first column, and the
rows of the two hosts interleave by id.
"""

import sqlite3
import time

import pytest

from credmask import engine
from credmask.store import open_store
from credmask.vault import VaultEntry, create_vault, open_vault
from credmask.wire import encode_cell_value

import dump_reference
import vault_reference as reference

HOST = "ëdge.example"
OTHER = "other.example"
COLUMNS = ("hostname", "a", "id", "b", "c")
EDGE_ROWS = [
    (HOST, 2 ** 63 - 1, -(2 ** 63), -0.0, ""),
    (HOST, -(2 ** 63), 1, float("inf"), b""),
    (HOST, 0, 2, float("-inf"), "nul\x00 ümlaut 世界"),
    (HOST, None, 3, 5e-324, b"\x00\xff nul"),
    (HOST, "", 2 ** 63 - 1, b"\x00", None),
]
# between the edge rows' ids, so a scan in id order alternates the hosts
OTHER_ROWS = [(OTHER, b"", 0, -0.0, None), (OTHER, 1, 10, 1.0, "x")]
MASKED_AT = 1_700_000_000


def tagged(rows):
    """Each value as its tagged bytes, so -0.0 differs from 0.0 and 1 from 1.0."""
    return [tuple(map(encode_cell_value, row)) for row in rows]


@pytest.fixture
def edge_store(tmp_path):
    path = tmp_path / "profile" / "signons.sqlite"
    path.parent.mkdir()
    conn = sqlite3.connect(path)
    conn.execute('CREATE TABLE moz_logins ("hostname" TEXT NOT NULL, "a", '
                 '"id" INTEGER PRIMARY KEY, "b", "c")')
    conn.executemany("INSERT INTO moz_logins VALUES (?, ?, ?, ?, ?)",
                     EDGE_ROWS + OTHER_ROWS)
    conn.commit()
    conn.close()
    with open_store(path, "rw") as handle:
        yield handle


def test_the_store_keeps_each_storage_class(edge_store):
    assert edge_store.schema == COLUMNS
    by_id = sorted(EDGE_ROWS + OTHER_ROWS, key=lambda row: row[2])
    assert tagged(edge_store.read_rows()) == tagged(by_id)


def sqlite_rows(handle):
    """Every row as sqlite3 itself returns it, in row-id order."""
    conn = sqlite3.connect(handle.path)
    try:
        return conn.execute("SELECT * FROM moz_logins ORDER BY id").fetchall()
    finally:
        conn.close()


@pytest.fixture
def masked(edge_store, tmp_path, tiny_kdf, monkeypatch):
    """Both hosts masked at MASKED_AT into a new vault; its path and entries."""
    monkeypatch.setattr(time, "time", lambda: MASKED_AT + 0.75)
    path = tmp_path / "v.cmv"
    with create_vault(path, "secret", tiny_kdf) as vf:
        plan = engine.apply_mask(edge_store, vf, [HOST, OTHER])
        assert list(vf.entries.items()) == [(h, e) for h, _, e in plan.selections]
        assert [ids for _, ids, _ in plan.selections] == [(0, 10), (-(2 ** 63), 1, 2, 3,
                                                                    2 ** 63 - 1)]
        assert list(edge_store.read_rows()) == []
        return path, dict(vf.entries)


def test_entries_are_the_frozen_encoders_bytes(edge_store, masked):
    _, entries = masked
    store_path = str(edge_store.path.resolve())
    assert list(entries) == [OTHER, HOST]  # in hostname order
    for hostname, rows in ((HOST, EDGE_ROWS), (OTHER, OTHER_ROWS)):
        expected = reference.encode_entry(hostname, MASKED_AT, store_path, COLUMNS,
                                          dump_reference.login_rows(rows, COLUMNS, "id"))
        assert bytes(entries[hostname]._encoded) == expected
    assert (entries[HOST].row_count, entries[HOST].max_row_id) == (5, 2 ** 63 - 1)
    assert (entries[OTHER].row_count, entries[OTHER].max_row_id) == (2, 10)


def test_dump_is_the_frozen_encoders_bytes(edge_store):
    expected = dump_reference.dump(
        dump_reference.login_rows(sqlite_rows(edge_store), COLUMNS, "id"))
    assert len(expected) > 1 + 6 * 10
    assert edge_store.dump_canonical() == expected


def test_entries_are_only_built_from_store_rows():
    with pytest.raises(TypeError):
        VaultEntry(HOST, EDGE_ROWS, 0, "/p", COLUMNS)


def test_an_opened_entry_decodes_to_the_rows_it_was_built_from(masked):
    path, entries = masked
    with open_vault(path, "secret") as vf:
        assert vf.entries == entries
        opened = vf.entries[HOST]
        assert tagged(opened.store_rows(COLUMNS, "id")) == tagged(EDGE_ROWS)
        assert tagged(vf.entries[OTHER].store_rows(COLUMNS, "id")) == tagged(OTHER_ROWS)
        reordered = ("id", "c", "b", "a", "hostname")
        assert tagged(opened.store_rows(reordered, "id")) == tagged(
            [tuple(row[COLUMNS.index(c)] for c in reordered) for row in EDGE_ROWS])


def test_mask_then_unmask_restores_every_edge_value(edge_store, tmp_path, tiny_kdf):
    original = edge_store.dump_canonical()
    with create_vault(tmp_path / "v.cmv", "secret", tiny_kdf) as vf:
        engine.apply_mask(edge_store, vf, [HOST])
        assert tagged(edge_store.read_rows()) == tagged(OTHER_ROWS)
    with open_vault(tmp_path / "v.cmv", "secret") as vf:
        engine.apply_unmask(engine.plan_unmask(vf), vf.open_proof, edge_store, vf)
    assert edge_store.dump_canonical() == original
