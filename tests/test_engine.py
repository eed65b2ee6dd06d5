import os
import sqlite3
from collections import Counter

import pytest

from credmask import auth, engine
from credmask.errors import (
    AlreadyMaskedError,
    AuthFailedError,
    EmptySelectionError,
    NothingMaskedError,
    PolicyUnsatisfiedError,
    StalePlanError,
    StoreBusyError,
    UnknownHostError,
    UnresolvedConflictError,
)
from credmask.faults import CRASH_ENV, SimulatedCrash
from credmask.store import canonical_login_row
from credmask.vault import create_vault, open_vault

from conftest import file_sha256, ten_host_counts


@pytest.fixture
def world(store_factory, keystore_file, tmp_path, tiny_kdf):
    """A 25-row, 10-host store, a 1 KiB key store, and an empty vault."""
    handle = store_factory(ten_host_counts())
    vf = create_vault(tmp_path / "vault.cmv", "secret", tiny_kdf)
    yield handle, vf, keystore_file
    vf.close()


def row_multiset(handle):
    return Counter((r.row_id, r.hostname, r.cells) for r in handle.list_logins())


def content_multiset(rows):
    """Row identity ignoring the primary key cell (id remaps keep content)."""
    return Counter(
        (r.hostname, tuple(v for name, v in r.cells if name != "id")) for r in rows
    )


SIX = [f"host0{i}.example" for i in range(6)]


def test_plan_mask_matches_direct_query(world):
    handle, vf, keystore = world
    plan = engine.plan_mask(handle, vf, SIX, keystore)
    assert [h for h, _ in plan.selections] == SIX
    conn = sqlite3.connect(handle.path)
    for hostname, row_ids in plan.selections:
        direct = [r[0] for r in conn.execute(
            "SELECT id FROM moz_logins WHERE hostname=? ORDER BY id", (hostname,))]
        assert list(row_ids) == direct
    conn.close()
    assert plan.keystore_before.digest == __import__("hashlib").sha256(
        keystore.read_bytes()).digest()


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
    plan = engine.plan_mask(handle, vf, ["host00.example"], keystore)
    engine.apply_mask(plan, handle, vf)
    with pytest.raises(AlreadyMaskedError):
        engine.plan_mask(handle, vf, ["host00.example"])


def test_apply_mask_moves_exactly_the_selection(world):
    handle, vf, keystore = world
    before = {r.row_id for r in handle.list_logins()}
    plan = engine.plan_mask(handle, vf, SIX, keystore)
    report = engine.apply_mask(plan, handle, vf)
    assert report.mode == engine.MODE_MASKED
    assert sorted(report.masked_hosts) == SIX
    moved = {rid for _, ids in plan.selections for rid in ids}
    assert {r.row_id for r in handle.list_logins()} == before - moved
    assert sorted(vf.hosts()) == SIX
    assert report.keystore_ok


def test_apply_mask_twice_is_stale(world):
    handle, vf, keystore = world
    plan = engine.plan_mask(handle, vf, ["host00.example"], keystore)
    engine.apply_mask(plan, handle, vf)
    dump = handle.dump_canonical()
    with pytest.raises(StalePlanError):
        engine.apply_mask(plan, handle, vf)
    assert handle.dump_canonical() == dump


def test_apply_mask_respects_busy_store(world):
    handle, vf, keystore = world
    plan = engine.plan_mask(handle, vf, SIX, keystore)
    (handle.path.parent / ".parentlock").touch()
    with pytest.raises(StoreBusyError):
        engine.apply_mask(plan, handle, vf)
    os.unlink(handle.path.parent / ".parentlock")
    engine.apply_mask(plan, handle, vf, force=False)


def test_round_trip_restores_bytes_and_keystore(world):
    handle, vf, keystore = world
    original = handle.dump_canonical()
    keystore_before = file_sha256(keystore)
    plan = engine.plan_mask(handle, vf, SIX, keystore)
    engine.apply_mask(plan, handle, vf)
    assert handle.dump_canonical() != original
    up = engine.plan_unmask(vf, None, engine.KEEP_LIVE, store_path=handle.path)
    report, conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
    assert report.mode == engine.MODE_NORMAL
    assert conflicts == []
    assert handle.dump_canonical() == original
    assert vf.hosts() == []
    assert file_sha256(keystore) == keystore_before


@pytest.mark.parametrize("policy", [engine.KEEP_LIVE, engine.OVERWRITE_LIVE, engine.FAIL])
def test_round_trip_under_every_policy_when_quiescent(world, policy):
    handle, vf, keystore = world
    original = handle.dump_canonical()
    plan = engine.plan_mask(handle, vf, SIX, keystore)
    engine.apply_mask(plan, handle, vf)
    up = engine.plan_unmask(vf, None, policy)
    engine.apply_unmask(up, vf.open_proof, handle, vf)
    assert handle.dump_canonical() == original


def test_plan_unmask_on_empty_vault(world):
    handle, vf, _ = world
    with pytest.raises(NothingMaskedError):
        engine.plan_unmask(vf)


def test_plan_unmask_unknown_host(world):
    handle, vf, keystore = world
    engine.apply_mask(engine.plan_mask(handle, vf, ["host00.example"], keystore),
                      handle, vf)
    with pytest.raises(UnknownHostError):
        engine.plan_unmask(vf, ["host01.example"])
    plan = engine.plan_unmask(vf, ["host00.example"])
    assert plan.hosts == {"host00.example"}


def test_unmask_with_invalid_proof_touches_nothing(world, tmp_path, tiny_kdf):
    handle, vf, keystore = world
    engine.apply_mask(engine.plan_mask(handle, vf, SIX, keystore), handle, vf)
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
    engine.apply_mask(engine.plan_mask(handle, vf, SIX, keystore), handle, vf)
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
    plan = engine.plan_mask(handle, vf, ["host00.example"], keystore)
    vaulted_ids = [rid for _, ids in plan.selections for rid in ids]
    engine.apply_mask(plan, handle, vf)
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
    vaulted_rows = vf.get_entry("host00.example").rows
    up = engine.plan_unmask(vf, None, engine.KEEP_LIVE)
    report, conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
    assert len(conflicts) == 1
    c = conflicts[0]
    assert (c.hostname, c.action) == ("host00.example", engine.KEEP_LIVE)
    assert (c.live_rows, c.vaulted_rows, c.restored_rows) == (1, len(vaulted_ids), len(vaulted_ids))
    live = [r for r in handle.list_logins() if r.hostname == "host00.example"]
    # live row intact under its id; vaulted rows present under fresh ids
    assert content_multiset(live) == content_multiset(list(vaulted_rows) + [resaved])
    assert resaved.row_id in {r.row_id for r in live}
    fresh = {r.row_id for r in live} - {resaved.row_id}
    assert fresh and fresh.isdisjoint(set(vaulted_ids))


def test_conflict_keep_live_collapses_duplicates(world):
    handle, vf, vaulted_ids, resaved = masked_then_resaved(world, same_credential=True)
    up = engine.plan_unmask(vf, None, engine.KEEP_LIVE)
    report, conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
    live = [r for r in handle.list_logins() if r.hostname == "host00.example"]
    # the duplicate vaulted row was dropped in favor of the live one
    dup_key = resaved.cell("encryptedUsername")
    assert [r for r in live if r.cell("encryptedUsername") == dup_key] == [resaved]
    assert conflicts[0].restored_rows == len(vaulted_ids) - 1


def test_conflict_overwrite_live_restores_verbatim(world):
    handle, vf, vaulted_ids, resaved = masked_then_resaved(world, same_credential=False)
    original_rows = list(vf.get_entry("host00.example").rows)
    up = engine.plan_unmask(vf, None, engine.OVERWRITE_LIVE)
    report, conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
    live = [r for r in handle.list_logins() if r.hostname == "host00.example"]
    assert live == original_rows  # byte-exact, original ids, resaved row gone
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


def test_fresh_ids_skip_ids_restored_verbatim(store_factory, tmp_path, tiny_kdf):
    # ids: x 1, b 2, a 3. a comes back verbatim at 3; b's vaulted row 2 lost its
    # id to a newer live b row, so keep-live gives it a fresh id, which is not 3.
    handle = store_factory({"x.example": 1, "b.example": 1, "a.example": 1})
    with create_vault(tmp_path / "v.cmv", "secret", tiny_kdf) as vf:
        original = {r.row_id: r for r in handle.list_logins()}
        engine.apply_mask(engine.plan_mask(handle, vf, ["a.example", "b.example"]), handle, vf)
        resaved = canonical_login_row(2, "b.example", encryptedUsername="ENC-USER-new")
        handle.insert_rows([resaved])
        up = engine.plan_unmask(vf, None, engine.KEEP_LIVE)
        report, conflicts = engine.apply_unmask(up, vf.open_proof, handle, vf)
    rows = {r.row_id: r for r in handle.list_logins()}
    assert rows[1] == original[1] and rows[2] == resaved and rows[3] == original[3]
    assert content_multiset(rows.values()) == content_multiset(
        list(original.values()) + [resaved])
    assert [(c.hostname, c.restored_rows) for c in conflicts] == [("b.example", 1)]


# -- crash safety ----------------------------------------------------------------------

def test_crash_after_vault_commit_loses_nothing(world, monkeypatch):
    handle, vf, keystore = world
    original = row_multiset(handle)
    plan = engine.plan_mask(handle, vf, SIX, keystore)
    monkeypatch.setenv(CRASH_ENV, "after-vault-commit")
    with pytest.raises(SimulatedCrash):
        engine.apply_mask(plan, handle, vf)
    monkeypatch.delenv(CRASH_ENV)
    # rows now exist in BOTH files; nothing was lost
    in_store = row_multiset(handle)
    in_vault = Counter(
        (r.row_id, r.hostname, r.cells) for e in vf.entries for r in e.rows)
    assert in_store == original
    for key in original:
        assert in_store[key] or in_vault[key]
    # recovery: unmask with keep-live collapses the duplicates
    up = engine.plan_unmask(vf, None, engine.KEEP_LIVE)
    engine.apply_unmask(up, vf.open_proof, handle, vf)
    assert row_multiset(handle) == original
    assert vf.hosts() == []


def test_crash_after_store_delete_is_recoverable(world, monkeypatch):
    handle, vf, keystore = world
    original = handle.dump_canonical()
    plan = engine.plan_mask(handle, vf, SIX, keystore)
    monkeypatch.setenv(CRASH_ENV, "after-store-delete")
    with pytest.raises(SimulatedCrash):
        engine.apply_mask(plan, handle, vf)
    monkeypatch.delenv(CRASH_ENV)
    # the mask itself completed; a normal unmask restores everything
    up = engine.plan_unmask(vf, None, engine.KEEP_LIVE)
    engine.apply_unmask(up, vf.open_proof, handle, vf)
    assert handle.dump_canonical() == original


def test_crash_after_store_insert_loses_nothing(world, monkeypatch):
    handle, vf, keystore = world
    original = handle.dump_canonical()
    rows = row_multiset(handle)
    engine.apply_mask(engine.plan_mask(handle, vf, SIX, keystore), handle, vf)
    up = engine.plan_unmask(vf, None, engine.KEEP_LIVE)
    monkeypatch.setenv(CRASH_ENV, "after-store-insert")
    with pytest.raises(SimulatedCrash):
        engine.apply_unmask(up, vf.open_proof, handle, vf)
    monkeypatch.delenv(CRASH_ENV)
    vf.close()  # the process died: only what reached the disk counts
    with open_vault(vf.path, "secret") as reopened:
        in_store = row_multiset(handle)
        in_vault = Counter(
            (r.row_id, r.hostname, r.cells) for e in reopened.entries for r in e.rows)
        assert sorted(reopened.hosts()) == SIX
        for key in rows:
            assert in_store[key] or in_vault[key]
        # recovery: keep-live drops the vaulted copies of the restored rows
        up = engine.plan_unmask(reopened, None, engine.KEEP_LIVE)
        engine.apply_unmask(up, reopened.open_proof, handle, reopened)
        assert handle.dump_canonical() == original
        assert reopened.hosts() == []


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
    engine.apply_mask(engine.plan_mask(handle, vf, SIX, keystore), handle, vf)
    report = engine.status(handle, vf)
    assert report.mode == engine.MODE_MASKED
    assert sorted(report.masked_hosts) == SIX


def test_status_detects_replaced_keystore(world):
    handle, vf, keystore = world
    engine.apply_mask(engine.plan_mask(handle, vf, SIX, keystore), handle, vf)
    keystore.write_bytes(b"replaced by someone else entirely")
    assert engine.status(handle, vf).keystore_ok is False
    os.unlink(keystore)
    assert engine.status(handle, vf).keystore_ok is False


def test_mode_is_pure_function_of_vault_entries(world):
    handle, vf, keystore = world
    assert engine.status(handle, vf).mode == engine.MODE_NORMAL
    engine.apply_mask(engine.plan_mask(handle, vf, ["host00.example"], keystore),
                      handle, vf)
    assert engine.status(handle, vf).mode == engine.MODE_MASKED
    up = engine.plan_unmask(vf)
    engine.apply_unmask(up, vf.open_proof, handle, vf)
    assert engine.status(handle, vf).mode == engine.MODE_NORMAL
