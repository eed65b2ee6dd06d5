import hashlib
import os
import sqlite3
import struct
from collections import Counter

import pytest

from credmask import auth, engine
from credmask.errors import (
    AlreadyMaskedError,
    AuthFailedError,
    EmptySelectionError,
    NothingMaskedError,
    PolicyUnsatisfiedError,
    StoreBusyError,
    UnknownHostError,
    UnresolvedConflictError,
)
from credmask.store import (CANONICAL_COLUMNS, StoreHandle, canonical_login_row,
                            init_fixture, keystore_digest, open_store)
from credmask.vault import create_vault, encode_entries, open_vault
from credmask.wire import encode_cell_value

from conftest import file_sha256, ten_host_counts
from crash_child import KILLED, run_killed
from test_vault_reference import tagged

USER = CANONICAL_COLUMNS.index("encryptedUsername")


@pytest.fixture
def world(store_factory, keystore_file, tmp_path, tiny_kdf):
    """A 25-row, 10-host store, a 1 KiB key store, and an empty vault."""
    handle = store_factory(ten_host_counts())
    vf = create_vault(tmp_path / "vault.cmv", "secret", tiny_kdf)
    yield handle, vf, keystore_file
    vf.close()


def row_multiset(handle):
    return Counter(tagged(handle.read_rows()))


def vault_multiset(vf):
    return Counter(tagged(row for e in vf.entries.values()
                          for row in e.store_rows(CANONICAL_COLUMNS, "id")))


def host_rows(handle, hostname):
    return [r for r in handle.read_rows() if r[1] == hostname]


def content_multiset(rows):
    """Row identity ignoring the primary key cell (id remaps keep content)."""
    return Counter(row[1:] for row in tagged(rows))


SIX = [f"host0{i}.example" for i in range(6)]


SQL_CLASS = {type(None): "null", int: "integer", float: "real", str: "text", bytes: "blob"}


def by_storage_class(pairs):
    """(typeof, value) pairs with each REAL as its 8 bytes, so -0.0 is not 0.0."""
    return [(kind, struct.pack(">d", v) if kind == "real" else v) for kind, v in pairs]


def test_plan_mask_matches_direct_query(world):
    handle, vf, keystore = world
    handle.insert_rows([canonical_login_row(100, "host01.example", encType=-0.0,
                                            httpRealm=b"", guid=2.5, formSubmitURL=None)])
    plan = engine.plan_mask(handle, vf, SIX, keystore)
    assert [h for h, _, _ in plan.selections] == SIX
    conn = sqlite3.connect(handle.path)
    cells = ", ".join(f'typeof("{c}"), "{c}"' for c in CANONICAL_COLUMNS)
    for hostname, row_ids, entry in plan.selections:
        direct = conn.execute(f"SELECT {cells} FROM moz_logins WHERE hostname=? ORDER BY id",
                              (hostname,)).fetchall()
        planned = entry.store_rows(CANONICAL_COLUMNS, "id")
        assert [by_storage_class((SQL_CLASS[type(v)], v) for v in row) for row in planned] \
            == [by_storage_class(zip(row[::2], row[1::2])) for row in direct]
        assert list(row_ids) == [row[1] for row in direct]
        assert entry.row_count == len(direct)
    conn.close()
    assert plan.keystore_before.digest == hashlib.sha256(keystore.read_bytes()).digest()


@pytest.mark.parametrize("size", [0, 16 * 1024, 3 * 1024 * 1024], ids=["empty", "16KiB", "3MiB"])
def test_keystore_digest_is_the_files_sha256(tmp_path, size):
    path = tmp_path / "key3.db"
    path.write_bytes(os.urandom(size))
    digest = keystore_digest(path)
    assert digest.path == str(path.resolve())
    assert digest.digest == hashlib.sha256(path.read_bytes()).digest()


def test_plan_mask_empty_selection(world):
    handle, vf, _ = world
    with pytest.raises(EmptySelectionError):
        engine.plan_mask(handle, vf, [])


def test_plan_mask_unknown_host(world):
    handle, vf, _ = world
    with pytest.raises(UnknownHostError):
        engine.plan_mask(handle, vf, ["stranger.example"])


def test_plan_mask_already_masked(world):
    handle, vf, keystore = world
    engine.apply_mask(handle, vf, ["host00.example"], keystore)
    with pytest.raises(AlreadyMaskedError):
        engine.plan_mask(handle, vf, ["host00.example"])


def test_apply_mask_moves_exactly_the_selection(world):
    handle, vf, keystore = world
    before = {r[0] for r in handle.read_rows()}
    plan = engine.apply_mask(handle, vf, SIX, keystore)
    assert [h for h, _, _ in plan.selections] == SIX
    moved = {rid for _, ids, _ in plan.selections for rid in ids}
    assert {r[0] for r in handle.read_rows()} == before - moved
    assert sorted(vf.entries) == SIX
    report = engine.status(handle, vf)
    assert report.mode == engine.MODE_MASKED and report.keystore_ok


def test_apply_mask_twice_is_already_masked(world):
    handle, vf, keystore = world
    engine.apply_mask(handle, vf, ["host00.example"], keystore)
    dump, vault_bytes = handle.dump_canonical(), vf.path.read_bytes()
    with pytest.raises(AlreadyMaskedError):
        engine.apply_mask(handle, vf, ["host00.example"], keystore)
    assert handle.dump_canonical() == dump
    assert vf.path.read_bytes() == vault_bytes


@pytest.mark.parametrize("change", [
    "INSERT INTO moz_logins (id, hostname, encryptedUsername, encryptedPassword)"
    " VALUES (100, 'host00.example', 'ENC-USER-new', 'ENC-PASS-new')",
    "DELETE FROM moz_logins WHERE id = 2",
    "UPDATE moz_logins SET hostname = 'host09.example' WHERE id = 2",
], ids=["row-added", "row-deleted", "row-moved"])
def test_apply_mask_moves_what_the_browser_wrote_before_it(world, change):
    handle, vf, keystore = world
    hostname, row_ids, _ = engine.plan_mask(handle, vf, SIX).selections[0]
    assert hostname == "host00.example" and 2 in row_ids
    browser = sqlite3.connect(handle.path)  # saves after a dry run, before the mask
    browser.execute(change)
    browser.commit()
    browser.close()
    updated = handle.dump_canonical()
    selected = Counter(tagged(r for r in handle.read_rows() if r[1] in SIX))
    engine.apply_mask(handle, vf, SIX, keystore)
    assert vault_multiset(vf) == selected
    assert not any(r[1] in SIX for r in handle.read_rows())
    engine.apply_unmask(engine.plan_unmask(vf), vf.open_proof, handle, vf)
    assert handle.dump_canonical() == updated


def test_mask_report_comes_from_one_scan_inside_the_transaction(world, monkeypatch):
    handle, vf, keystore = world
    in_transaction = []
    real_read = StoreHandle.read_rows

    def read_rows(self, *args, **kwargs):
        in_transaction.append(self._conn.in_transaction)
        return real_read(self, *args, **kwargs)

    def no_scan(self, *args, **kwargs):
        raise AssertionError("apply_mask scanned every host")

    monkeypatch.setattr(StoreHandle, "read_rows", read_rows)
    monkeypatch.setattr(StoreHandle, "hostnames", no_scan)
    monkeypatch.setattr(StoreHandle, "host_counts", no_scan)
    plan = engine.apply_mask(handle, vf, SIX, keystore)
    assert in_transaction == [True]
    monkeypatch.undo()
    report = engine.status(handle, vf)
    assert report.masked_hosts == tuple(h for h, _, _ in plan.selections) == tuple(SIX)
    assert set(report.live_hosts).isdisjoint(SIX)


def test_mask_reads_cells_once_under_the_lock_and_deletes_without_a_pre_read(world):
    handle, vf, keystore = world
    statements = []
    handle._conn.set_trace_callback(statements.append)
    try:
        engine.apply_mask(handle, vf, SIX, keystore)
    finally:
        handle._conn.set_trace_callback(None)
    cells = "SELECT " + ", ".join(f'"{c}"' for c in CANONICAL_COLUMNS) + " FROM"
    # the trigger check reads sqlite_master first thing under the lock
    begin = statements.index("BEGIN IMMEDIATE")
    assert "sqlite_master" in statements[begin + 1]
    selects = [i for i, sql in enumerate(statements)
               if sql.startswith("SELECT") and i != begin + 1]
    deletes = [i for i, sql in enumerate(statements) if sql.startswith("DELETE")]
    assert len(selects) == 1 and statements[selects[0]].startswith(cells)
    assert begin < selects[0] < deletes[0]
    assert deletes[-1] < statements.index("COMMIT")


def nocase_store(path):
    """Canonical columns with a case-insensitive, indexed hostname, as in Firefox."""
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE moz_logins (id INTEGER PRIMARY KEY, hostname TEXT"
                 " COLLATE NOCASE NOT NULL, httpRealm TEXT, formSubmitURL TEXT,"
                 " usernameField TEXT, passwordField TEXT, encryptedUsername TEXT,"
                 " encryptedPassword TEXT, guid TEXT, encType INTEGER)")
    conn.execute("CREATE INDEX moz_logins_hostname_index ON moz_logins (hostname)")
    hosts = ["a.example", "A.example", "a.example", "b.example", "A.EXAMPLE", "a.example"]
    conn.executemany("INSERT INTO moz_logins VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                     [canonical_login_row(i, h) for i, h in enumerate(hosts, start=1)])
    conn.commit()
    conn.close()
    return open_store(path, "rw")


def test_mask_of_a_nocase_hostname_moves_only_that_spelling(tmp_path, tiny_kdf):
    with nocase_store(tmp_path / "signons.sqlite") as handle, \
            create_vault(tmp_path / "vault.cmv", "secret", tiny_kdf) as vf:
        original = handle.dump_canonical()
        plan = engine.apply_mask(handle, vf, ["a.example"])
        assert [(h, ids) for h, ids, _ in plan.selections] == [("a.example", (1, 3, 6))]
        assert engine.status(handle, vf).live_hosts == ("A.EXAMPLE", "A.example",
                                                        "b.example")
        assert [r[:2] for r in handle.read_rows()] == [
            (2, "A.example"), (4, "b.example"), (5, "A.EXAMPLE")]
        engine.apply_unmask(engine.plan_unmask(vf), vf.open_proof, handle, vf)
        assert handle.dump_canonical() == original


def test_mask_of_501_hosts_crosses_a_chunk_and_round_trips(store_factory, tmp_path,
                                                           tiny_kdf):
    counts = {f"h{i:03d}.example": 1 + i % 3 for i in range(502)}
    handle = store_factory(counts)
    wanted = sorted(counts)[1:]  # 501 hosts: one chunk of 500 and one of 1
    original = handle.dump_canonical()
    with create_vault(tmp_path / "vault.cmv", "secret", tiny_kdf) as vf:
        plan = engine.apply_mask(handle, vf, wanted)
        assert [h for h, _, _ in plan.selections] == wanted
        assert [len(ids) for _, ids, _ in plan.selections] == [counts[h] for h in wanted]
        assert engine.status(handle, vf).live_hosts == ("h000.example",)
        assert [e.row_count for e in vf.entries.values()] == [counts[h] for h in wanted]
        engine.apply_unmask(engine.plan_unmask(vf), vf.open_proof, handle, vf)
        assert handle.dump_canonical() == original


def test_apply_mask_respects_busy_store(world):
    handle, vf, keystore = world
    (handle.path.parent / ".parentlock").touch()
    with pytest.raises(StoreBusyError):
        engine.apply_mask(handle, vf, SIX, keystore)
    os.unlink(handle.path.parent / ".parentlock")
    engine.apply_mask(handle, vf, SIX, keystore)


def test_round_trip_restores_bytes_and_keystore(world):
    handle, vf, keystore = world
    original = handle.dump_canonical()
    keystore_before = file_sha256(keystore)
    engine.apply_mask(handle, vf, SIX, keystore)
    assert handle.dump_canonical() != original
    up = engine.plan_unmask(vf, None, engine.KEEP_LIVE)
    conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
    assert engine.status(handle, vf).mode == engine.MODE_NORMAL
    assert conflicts == []
    assert handle.dump_canonical() == original
    assert vf.entries == {}
    assert file_sha256(keystore) == keystore_before


@pytest.mark.parametrize("policy", [engine.KEEP_LIVE, engine.OVERWRITE_LIVE, engine.FAIL])
def test_round_trip_under_every_policy_when_quiescent(world, policy):
    handle, vf, keystore = world
    original = handle.dump_canonical()
    engine.apply_mask(handle, vf, SIX, keystore)
    up = engine.plan_unmask(vf, None, policy)
    engine.apply_unmask(up, vf.open_proof, handle, vf)
    assert handle.dump_canonical() == original


def test_plan_unmask_on_empty_vault(world):
    handle, vf, _ = world
    with pytest.raises(NothingMaskedError):
        engine.plan_unmask(vf)


def test_plan_unmask_unknown_host(world):
    handle, vf, keystore = world
    engine.apply_mask(handle, vf, ["host00.example"], keystore)
    with pytest.raises(UnknownHostError):
        engine.plan_unmask(vf, ["host01.example"])
    plan = engine.plan_unmask(vf, ["host00.example"])
    assert plan.hosts == {"host00.example"}


def test_unmask_of_a_host_no_longer_vaulted_touches_nothing(world):
    handle, vf, keystore = world
    engine.apply_mask(handle, vf, SIX, keystore)
    plan = engine.plan_unmask(vf)
    del vf.entries["host03.example"]
    store_hash = file_sha256(handle.path)
    with pytest.raises(UnknownHostError, match=r"^not vaulted: host03\.example$"):
        engine.apply_unmask(plan, vf.open_proof, handle, vf)
    assert file_sha256(handle.path) == store_hash
    assert sorted(vf.entries) == [h for h in SIX if h != "host03.example"]


def test_unmask_with_invalid_proof_touches_nothing(world, tmp_path, tiny_kdf):
    handle, vf, keystore = world
    engine.apply_mask(handle, vf, SIX, keystore)
    store_hash = file_sha256(handle.path)
    vault_hash = file_sha256(vf.path)
    plan = engine.plan_unmask(vf)
    other = create_vault(tmp_path / "other.cmv", "secret", tiny_kdf)
    try:
        foreign_proof = other.open_proof
    finally:
        other.close()
    with pytest.raises(AuthFailedError):
        engine.apply_unmask(plan, foreign_proof, handle, vf)
    with pytest.raises(AuthFailedError):
        engine.apply_unmask(plan, None, handle, vf)
    assert file_sha256(handle.path) == store_hash
    assert file_sha256(vf.path) == vault_hash


def test_unmask_checks_policy_before_store(world):
    handle, vf, keystore = world
    auth.enroll_fingerprint(vf, _template_20())
    auth.set_policy(vf, auth.POLICY_BOTH)
    engine.apply_mask(handle, vf, SIX, keystore)
    store_hash = file_sha256(handle.path)
    plan = engine.plan_unmask(vf)
    with pytest.raises(PolicyUnsatisfiedError):
        engine.apply_unmask(plan, vf.open_proof, handle, vf)
    assert file_sha256(handle.path) == store_hash


def _template_20():
    import math

    from credmask.minutiae import Minutia, Template
    return Template(tuple(
        Minutia(12.0 * i, 30.0 + 7.0 * (i % 5), (0.37 * i) % (2 * math.pi),
                "termination" if i % 2 else "bifurcation")
        for i in range(20)
    ), source_id="enrolled")


# -- conflicts ----------------------------------------------------------------------

def masked_then_resaved(world, same_credential):
    """Mask host00, then let the 'browser' save a row for it again, reusing the id."""
    handle, vf, keystore = world
    plan = engine.apply_mask(handle, vf, ["host00.example"], keystore)
    vaulted_ids = [rid for _, ids, _ in plan.selections for rid in ids]
    resaved = canonical_login_row(
        vaulted_ids[0], "host00.example",
        encryptedUsername=f"ENC-USER-{vaulted_ids[0]}" if same_credential
        else "ENC-USER-fresh",
        encryptedPassword="ENC-PASS-fresh",
    )
    handle.insert_rows([resaved])
    return handle, vf, vaulted_ids, resaved


def test_conflict_keep_live_keeps_both_rows(world):
    handle, vf, vaulted_ids, resaved = masked_then_resaved(world, same_credential=False)
    vaulted_rows = vf.entries["host00.example"].store_rows(CANONICAL_COLUMNS, "id")
    up = engine.plan_unmask(vf, None, engine.KEEP_LIVE)
    conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
    assert len(conflicts) == 1
    c = conflicts[0]
    assert (c.hostname, c.action) == ("host00.example", engine.KEEP_LIVE)
    assert (c.live_rows, c.vaulted_rows, c.restored_rows) == (1, len(vaulted_ids), len(vaulted_ids))
    live = host_rows(handle, "host00.example")
    # live row intact under its id; vaulted rows present under fresh ids
    assert content_multiset(live) == content_multiset(vaulted_rows + [resaved])
    assert resaved[0] in {r[0] for r in live}
    fresh = {r[0] for r in live} - {resaved[0]}
    assert fresh and fresh.isdisjoint(set(vaulted_ids))


def test_conflict_keep_live_collapses_duplicates(world):
    handle, vf, vaulted_ids, resaved = masked_then_resaved(world, same_credential=True)
    up = engine.plan_unmask(vf, None, engine.KEEP_LIVE)
    conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
    live = host_rows(handle, "host00.example")
    # the duplicate vaulted row was dropped in favor of the live one
    dup_key = encode_cell_value(resaved[USER])
    assert tagged(r for r in live if encode_cell_value(r[USER]) == dup_key) == tagged([resaved])
    assert conflicts[0].restored_rows == len(vaulted_ids) - 1


def test_conflict_overwrite_live_restores_verbatim(world):
    handle, vf, vaulted_ids, resaved = masked_then_resaved(world, same_credential=False)
    original_rows = vf.entries["host00.example"].store_rows(CANONICAL_COLUMNS, "id")
    up = engine.plan_unmask(vf, None, engine.OVERWRITE_LIVE)
    conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
    live = host_rows(handle, "host00.example")
    assert tagged(live) == tagged(original_rows)  # byte-exact, original ids, resaved row gone
    assert conflicts[0].action == engine.OVERWRITE_LIVE


def test_conflict_fail_aborts_without_mutation(world):
    handle, vf, vaulted_ids, resaved = masked_then_resaved(world, same_credential=False)
    dump = handle.dump_canonical()
    vault_hash = file_sha256(vf.path)
    up = engine.plan_unmask(vf, None, engine.FAIL)
    with pytest.raises(UnresolvedConflictError):
        engine.apply_unmask(up, vf.open_proof, handle, vf)
    assert handle.dump_canonical() == dump
    assert file_sha256(vf.path) == vault_hash


@pytest.mark.parametrize("live, vaulted", [(1, 1.0), (1.0, 1), ("x", b"x"), (b"x", "x")],
                         ids=["int-live-real-vaulted", "real-live-int-vaulted",
                              "text-live-blob-vaulted", "blob-live-text-vaulted"])
def test_keep_live_tells_storage_classes_apart(tmp_path, tiny_kdf, live, vaulted):
    # An untyped column keeps each storage class. 1 == 1.0 in Python, but a
    # vaulted REAL 1.0 and a live INTEGER 1 are different credentials.
    path = tmp_path / "signons.sqlite"
    conn = sqlite3.connect(path)
    conn.execute('CREATE TABLE moz_logins ("id" INTEGER PRIMARY KEY, '
                 '"hostname" TEXT NOT NULL, "encryptedUsername")')
    conn.execute("INSERT INTO moz_logins VALUES (1, 'a.example', ?)", (vaulted,))
    conn.commit()
    with open_store(path, "rw") as handle, \
            create_vault(tmp_path / "v.cmv", "secret", tiny_kdf) as vf:
        engine.apply_mask(handle, vf, ["a.example"])
        conn.execute("INSERT INTO moz_logins VALUES (1, 'a.example', ?)", (live,))
        conn.commit()
        up = engine.plan_unmask(vf, None, engine.KEEP_LIVE)
        conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
        rows = list(handle.read_rows())
    conn.close()
    assert [(c.live_rows, c.restored_rows) for c in conflicts] == [(1, 1)]
    assert [(row[0], encode_cell_value(row[2])) for row in rows] == [
        (1, encode_cell_value(live)), (2, encode_cell_value(vaulted))]


def test_fresh_ids_skip_ids_restored_verbatim(store_factory, tmp_path, tiny_kdf):
    # ids: x 1, b 2, a 3. a comes back verbatim at 3; b's vaulted row 2 lost its
    # id to a newer live b row, so keep-live gives it a fresh id, which is not 3.
    handle = store_factory({"x.example": 1, "b.example": 1, "a.example": 1})
    with create_vault(tmp_path / "v.cmv", "secret", tiny_kdf) as vf:
        original = {r[0]: r for r in handle.read_rows()}
        engine.apply_mask(handle, vf, ["a.example", "b.example"])
        resaved = canonical_login_row(2, "b.example", encryptedUsername="ENC-USER-new")
        handle.insert_rows([resaved])
        up = engine.plan_unmask(vf, None, engine.KEEP_LIVE)
        conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
    rows = {r[0]: r for r in handle.read_rows()}
    assert tagged([rows[1], rows[2], rows[3]]) == tagged([original[1], resaved, original[3]])
    assert content_multiset(rows.values()) == content_multiset(
        list(original.values()) + [resaved])
    assert [(c.hostname, c.restored_rows) for c in conflicts] == [("b.example", 1)]


@pytest.mark.parametrize("policy", engine.CONFLICT_POLICIES)
def test_an_entry_naming_one_id_twice_restores_both_rows(store_factory, tmp_path, tiny_kdf,
                                                         policy):
    # the first row keeps the id and the second takes a fresh one, as if
    # another host's row held it
    handle = store_factory({"x.example": 2})
    twice = [canonical_login_row(7, "a.example"),
             canonical_login_row(7, "a.example", encryptedUsername="ENC-USER-other")]
    with create_vault(tmp_path / "v.cmv", "secret", tiny_kdf) as vf:
        [(_, _, vf.entries["a.example"])] = encode_entries(
            twice, ["a.example"], 0, str(handle.path.resolve()), CANONICAL_COLUMNS, "id")
        assert engine.apply_unmask(engine.plan_unmask(vf, None, policy), vf.open_proof,
                                   handle, vf) == []
    assert tagged(host_rows(handle, "a.example")) == tagged([twice[0], (8, *twice[1][1:])])


@pytest.mark.parametrize("policy", engine.CONFLICT_POLICIES)
def test_keep_live_fresh_ids_skip_the_ids_of_hosts_still_masked(tmp_path, tiny_kdf,
                                                                 policy):
    # ids: a 1-3, c 4-10, b 12-13. With a and b masked the browser saves an a
    # row as 11, so keep-live gives a's vaulted rows fresh ids. They must lie
    # past b's vaulted 12-13, so that b later comes back verbatim.
    ids = {"a.example": range(1, 4), "c.example": range(4, 11), "b.example": range(12, 14)}
    rows = [canonical_login_row(rid, host) for host, rids in ids.items() for rid in rids]
    with init_fixture(tmp_path / "profile" / "signons.sqlite", rows) as handle, \
            create_vault(tmp_path / "v.cmv", "secret", tiny_kdf) as vf:
        b_rows = host_rows(handle, "b.example")
        engine.apply_mask(handle, vf, ["a.example", "b.example"])
        browser = sqlite3.connect(handle.path)
        with browser:
            saved = browser.execute(
                "INSERT INTO moz_logins (hostname, encryptedUsername) "
                "VALUES ('a.example', 'ENC-USER-new')").lastrowid
        browser.close()
        assert saved == 11

        up = engine.plan_unmask(vf, ["a.example"], engine.KEEP_LIVE)
        engine.apply_unmask(up, vf.open_proof, handle, vf)
        assert [r[0] for r in host_rows(handle, "a.example")] == [
            11, 14, 15, 16]

        up = engine.plan_unmask(vf, ["b.example"], policy)
        conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
        assert conflicts == []
        assert tagged(host_rows(handle, "b.example")) == tagged(b_rows)


@pytest.mark.parametrize("policy", engine.CONFLICT_POLICIES)
def test_unmask_report_equals_a_fresh_status_without_a_second_scan(world, policy,
                                                                   monkeypatch):
    handle, vf, keystore = world
    engine.apply_mask(handle, vf, SIX, keystore)
    if policy != engine.FAIL:  # host00 saved again under its old id 1: a conflict
        handle.insert_rows([canonical_login_row(1, "host00.example",
                                                encryptedUsername="ENC-USER-new")])

    def no_scan(self, *args, **kwargs):
        raise AssertionError("apply_unmask read every hostname")

    monkeypatch.setattr(StoreHandle, "hostnames", no_scan)
    monkeypatch.setattr(StoreHandle, "host_counts", no_scan)
    up = engine.plan_unmask(vf, ["host00.example", "host03.example", "host05.example"],
                            policy)
    conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
    monkeypatch.undo()
    assert [(c.hostname, c.live_rows) for c in conflicts] == (
        [] if policy == engine.FAIL else [("host00.example", 1)])
    report = engine.status(handle, vf)
    assert report.mode == (engine.MODE_MASKED if vf.entries else engine.MODE_NORMAL)
    assert report.masked_hosts == ("host01.example", "host02.example", "host04.example")
    assert report.live_hosts == tuple(sorted(
        set(ten_host_counts()) - {"host01.example", "host02.example", "host04.example"}))


def trace_unmask(handle, vf, policy):
    """The statements one apply_unmask runs, and the row ids insert_rows gets."""
    statements, inserted = [], []
    insert_rows = StoreHandle.insert_rows

    def recording(self, rows):
        inserted.extend(row[0] for row in rows)
        return insert_rows(self, rows)

    handle._conn.set_trace_callback(statements.append)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(StoreHandle, "insert_rows", recording)
            conflicts = engine.apply_unmask(engine.plan_unmask(vf, None, policy),
                                            vf.open_proof, handle, vf)
    finally:
        handle._conn.set_trace_callback(None)
    return statements, inserted, conflicts


@pytest.mark.parametrize("policy", engine.CONFLICT_POLICIES)
def test_unmask_reads_ids_then_its_own_hosts_and_inserts_in_id_order(world, policy):
    handle, vf, keystore = world
    original = handle.dump_canonical()
    engine.apply_mask(handle, vf, SIX, keystore)
    statements, inserted, _ = trace_unmask(handle, vf, policy)
    begin = statements.index("BEGIN IMMEDIATE")
    assert "sqlite_master" in statements[begin + 1]  # the trigger check
    selects = [sql for i, sql in enumerate(statements)
               if sql.startswith("SELECT") and i != begin + 1]
    assert selects[0] == 'SELECT "id" FROM "moz_logins" ORDER BY "id"'
    columns = CANONICAL_COLUMNS if policy == engine.KEEP_LIVE else ("id", "hostname")
    cols = ", ".join(f'"{c}"' for c in columns)
    assert selects[1].startswith(f'SELECT {cols} FROM "moz_logins" WHERE "hostname" IN (')
    assert len(selects) == 2
    assert inserted == sorted(inserted) and len(inserted) == sum(
        ten_host_counts()[h] for h in SIX)
    assert handle.dump_canonical() == original


@pytest.mark.parametrize("policy", engine.CONFLICT_POLICIES)
def test_unmask_of_501_hosts_finds_live_rows_on_both_sides_of_a_chunk(
        store_factory, tmp_path, tiny_kdf, policy):
    counts = {f"h{i:03d}.example": 1 + i % 2 for i in range(502)}
    handle = store_factory(counts)
    wanted = sorted(counts)[:501]  # one chunk of 500 hosts and one of 1
    resaved = {wanted[i]: i for i in (0, 499, 500)}
    with create_vault(tmp_path / "vault.cmv", "secret", tiny_kdf) as vf:
        engine.apply_mask(handle, vf, wanted)
        for host, i in resaved.items():
            handle.insert_rows([canonical_login_row(10_000 + i, host,
                                                    encryptedUsername="ENC-USER-new")])
        before, vault_hash = handle.dump_canonical(), file_sha256(vf.path)
        up = engine.plan_unmask(vf, None, policy)
        if policy == engine.FAIL:
            with pytest.raises(UnresolvedConflictError) as exc:
                engine.apply_unmask(up, vf.open_proof, handle, vf)
            assert [c.hostname for c in exc.value.reports] == list(resaved)
            assert handle.dump_canonical() == before and file_sha256(vf.path) == vault_hash
            return
        statements, inserted, conflicts = trace_unmask(handle, vf, policy)
    assert [(c.hostname, c.live_rows, c.action) for c in conflicts] == [
        (host, 1, policy) for host in resaved]
    assert len([sql for sql in statements if 'WHERE "hostname" IN' in sql]) == 2
    assert inserted == sorted(inserted)
    live = Counter(row[1] for row in handle.read_rows())
    extra = 1 if policy == engine.KEEP_LIVE else 0  # the resaved row kept beside them
    assert live == {h: counts[h] + (extra if h in resaved else 0) for h in counts}


# -- crash safety ----------------------------------------------------------------------
# Each test kills a credmask child at one durable step (see crash_child.py) and
# reads only what the dead child left in the files.

def kill_mask(world, point):
    """Mask SIX in a child killed at ``point``; the world's vault is closed."""
    handle, vf, keystore = world
    vf.close()  # the child takes the vault's lock
    proc = run_killed(point, "mask", "--store", handle.path, "--vault", vf.path,
                      "--hosts", ",".join(SIX), "--keystore", keystore, passphrase="secret")
    assert proc.returncode == KILLED, proc.stderr


def kill_unmask(world, point):
    """Mask SIX here, then unmask them all in a child killed at ``point``."""
    handle, vf, keystore = world
    engine.apply_mask(handle, vf, SIX, keystore)
    vf.close()
    proc = run_killed(point, "unmask", "--store", handle.path, "--vault", vf.path, "--all",
                      passphrase="secret")
    assert proc.returncode == KILLED, proc.stderr


def recover(handle, vf):
    """The keep-live unmask of everything, which collapses a crash's duplicates."""
    engine.apply_unmask(engine.plan_unmask(vf, None, engine.KEEP_LIVE), vf.open_proof,
                        handle, vf)


def test_crash_after_vault_commit_loses_nothing(world):
    handle, vf, _ = world
    original, dump = row_multiset(handle), handle.dump_canonical()
    kill_mask(world, "after-vault-commit")
    with open_vault(vf.path, "secret") as reopened:
        # rows now exist in BOTH files; nothing was lost
        in_store = row_multiset(handle)
        in_vault = vault_multiset(reopened)
        assert in_store == original
        assert sorted(reopened.entries) == SIX
        for key in original:
            assert in_store[key] or in_vault[key]
        recover(handle, reopened)
        assert row_multiset(handle) == original
        assert handle.dump_canonical() == dump
        assert reopened.entries == {}


def test_crash_after_store_delete_is_recoverable(world):
    handle, vf, _ = world
    original = handle.dump_canonical()
    kill_mask(world, "after-store-commit")
    # the mask itself completed; a normal unmask restores everything
    with open_vault(vf.path, "secret") as reopened:
        assert sorted(reopened.entries) == SIX
        assert not any(row[1] in SIX for row in handle.read_rows())
        recover(handle, reopened)
        assert handle.dump_canonical() == original


def test_crash_after_store_insert_loses_nothing(world):
    handle, vf, _ = world
    original = handle.dump_canonical()
    rows = row_multiset(handle)
    kill_unmask(world, "after-store-commit")
    with open_vault(vf.path, "secret") as reopened:
        in_store = row_multiset(handle)
        in_vault = vault_multiset(reopened)
        assert sorted(reopened.entries) == SIX
        for key in rows:
            assert in_store[key] or in_vault[key]
        # recovery: keep-live drops the vaulted copies of the restored rows
        recover(handle, reopened)
        assert handle.dump_canonical() == original
        assert reopened.entries == {}


def test_crash_after_unmask_vault_commit_loses_nothing(world):
    handle, vf, _ = world
    original = handle.dump_canonical()
    kill_unmask(world, "after-vault-commit")
    # the store took the rows back before the vault forgot them
    assert handle.dump_canonical() == original
    with open_vault(vf.path, "secret") as reopened:
        assert reopened.entries == {}


# -- status ------------------------------------------------------------------------------

def test_status_fresh_world(world):
    handle, vf, _ = world
    report = engine.status(handle, vf)
    assert report.mode == engine.MODE_NORMAL
    assert report.masked_hosts == ()
    assert len(report.live_hosts) == 10
    assert report.keystore_ok


def test_status_without_vault(world):
    handle, _, _ = world
    report = engine.status(handle, None)
    assert report.mode == engine.MODE_NORMAL


def test_status_after_mask(world):
    handle, vf, keystore = world
    engine.apply_mask(handle, vf, SIX, keystore)
    report = engine.status(handle, vf)
    assert report.mode == engine.MODE_MASKED
    assert sorted(report.masked_hosts) == SIX


def test_status_detects_replaced_keystore(world):
    handle, vf, keystore = world
    engine.apply_mask(handle, vf, SIX, keystore)
    keystore.write_bytes(b"replaced by someone else entirely")
    assert engine.status(handle, vf).keystore_ok is False
    os.unlink(keystore)
    assert engine.status(handle, vf).keystore_ok is False


def test_mode_is_pure_function_of_vault_entries(world):
    handle, vf, keystore = world
    assert engine.status(handle, vf).mode == engine.MODE_NORMAL
    engine.apply_mask(handle, vf, ["host00.example"], keystore)
    assert engine.status(handle, vf).mode == engine.MODE_MASKED
    up = engine.plan_unmask(vf)
    engine.apply_unmask(up, vf.open_proof, handle, vf)
    assert engine.status(handle, vf).mode == engine.MODE_NORMAL
