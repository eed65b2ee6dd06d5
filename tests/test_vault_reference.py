"""Vault entries built from store rows, and the canonical dump, are byte for
byte the frozen encoders'.

A store with untyped columns keeps every value's storage class, so its rows
carry the edge values of each class: the INTEGER limits, REAL -0.0, the
infinities and the least subnormal, empty and NUL-holding TEXT and BLOB,
non-ASCII text and NULL. The primary key is not the first column.
"""

import sqlite3

import pytest

from credmask import engine
from credmask.store import open_store
from credmask.vault import VaultEntry, create_vault, open_vault
from credmask.wire import encode_cell_value

import dump_reference
import vault_reference as reference

HOST = "ëdge.example"
COLUMNS = ("hostname", "a", "id", "b", "c")
EDGE_ROWS = [
    (HOST, 2 ** 63 - 1, -(2 ** 63), -0.0, ""),
    (HOST, -(2 ** 63), 1, float("inf"), b""),
    (HOST, 0, 2, float("-inf"), "nul\x00 ümlaut 世界"),
    (HOST, None, 3, 5e-324, b"\x00\xff nul"),
    (HOST, "", 2 ** 63 - 1, b"\x00", None),
]
OTHER_ROW = ("other.example", 1, 10, 1.0, "x")


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
                     EDGE_ROWS + [OTHER_ROW])
    conn.commit()
    conn.close()
    with open_store(path, "rw") as handle:
        yield handle


def test_the_store_keeps_each_storage_class(edge_store):
    assert edge_store.schema == COLUMNS
    by_id = sorted(EDGE_ROWS + [OTHER_ROW], key=lambda row: row[2])
    assert tagged(edge_store.read_rows()) == tagged(by_id)


def sqlite_rows(handle):
    """Every row as sqlite3 itself returns it, in row-id order."""
    conn = sqlite3.connect(handle.path)
    try:
        return conn.execute("SELECT * FROM moz_logins ORDER BY id").fetchall()
    finally:
        conn.close()


def test_entries_are_the_frozen_encoders_bytes(edge_store):
    native = list(edge_store.read_rows([row[2] for row in EDGE_ROWS]))
    expected = reference.encode_entry(HOST, 1_700_000_000, "/p/signons.sqlite", COLUMNS,
                                      dump_reference.login_rows(EDGE_ROWS, COLUMNS, "id"))
    from_store = VaultEntry.from_store_rows(HOST, native, 1_700_000_000,
                                            "/p/signons.sqlite", COLUMNS, "id")
    assert bytes(from_store._encoded) == expected
    assert (from_store.row_count, from_store.max_row_id) == (5, 2 ** 63 - 1)


def test_dump_is_the_frozen_encoders_bytes(edge_store):
    expected = dump_reference.dump(
        dump_reference.login_rows(sqlite_rows(edge_store), COLUMNS, "id"))
    assert len(expected) > 1 + 6 * 10
    assert edge_store.dump_canonical() == expected


def test_entries_are_only_built_from_store_rows():
    with pytest.raises(TypeError):
        VaultEntry(HOST, EDGE_ROWS, 0, "/p", COLUMNS)


def test_an_opened_entry_decodes_to_the_rows_it_was_built_from(edge_store, tmp_path,
                                                               tiny_kdf):
    native = list(edge_store.read_rows([row[2] for row in EDGE_ROWS]))
    entry = VaultEntry.from_store_rows(HOST, native, 0, "/p", COLUMNS, "id")
    path = tmp_path / "v.cmv"
    with create_vault(path, "secret", tiny_kdf) as vf:
        vf.entries[HOST] = entry
        vf.commit()
        payload = vf._serialize()
    with open_vault(path, "secret") as vf:
        opened = vf.entries[HOST]
        assert vf._serialize() == payload
        assert opened == entry
        assert tagged(opened.store_rows(COLUMNS, "id")) == tagged(
            edge_store.read_rows([row[2] for row in EDGE_ROWS]))
        assert tagged(opened.store_rows(COLUMNS, "id")) == tagged(EDGE_ROWS)
        reordered = ("id", "c", "b", "a", "hostname")
        assert tagged(opened.store_rows(reordered, "id")) == tagged(
            [tuple(row[COLUMNS.index(c)] for c in reordered) for row in EDGE_ROWS])


def test_mask_then_unmask_restores_every_edge_value(edge_store, tmp_path, tiny_kdf):
    original = edge_store.dump_canonical()
    with create_vault(tmp_path / "v.cmv", "secret", tiny_kdf) as vf:
        engine.apply_mask(edge_store, vf, [HOST])
        assert tagged(edge_store.read_rows()) == tagged([OTHER_ROW])
    with open_vault(tmp_path / "v.cmv", "secret") as vf:
        engine.apply_unmask(engine.plan_unmask(vf), vf.open_proof, edge_store, vf)
    assert edge_store.dump_canonical() == original
