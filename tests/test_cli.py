import hashlib
import io
import json
import os
import shutil
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from credmask.cli import main
from credmask.minutiae import save_template
from credmask.store import CANONICAL_COLUMNS, canonical_login_row, init_fixture, open_store
from credmask.evaluation import generate_synthetic
from credmask.wire import encode_cell_value

from conftest import CHILD_ENV, file_sha256, ten_host_counts
from test_vault_reference import tagged

PASS = "correct horse"
REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def run(capsys, monkeypatch):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def _run(*args, passphrase=None, stdin_text=None, extra_fds=()):
        argv = [str(a) for a in args]
        opened = []
        if passphrase is not None:
            r, w = os.pipe()
            os.write(w, passphrase.encode() + b"\n")
            os.close(w)
            opened.append(r)
            argv += ["--passphrase-fd", str(r)]
        argv += [str(a) for a in extra_fds]
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(argv)
        out, err = capsys.readouterr()
        for fd in opened:
            os.close(fd)
        return code, out, err

    return _run


@pytest.fixture
def world(store_factory, tmp_path):
    handle = store_factory(ten_host_counts())
    handle.close()
    keystore = handle.path.parent / "key3.db"  # sibling: the CLI default
    keystore.write_bytes(os.urandom(1024))
    return handle.path, tmp_path / "vault.cmv", keystore


def feed_fd(text):
    r, w = os.pipe()
    os.write(w, text.encode() + b"\n")
    os.close(w)
    return r


def cli_mask(run, store_path, vault_path, hosts, init=True, **kw):
    args = ["mask", "--store", store_path, "--vault", vault_path,
            "--hosts", ",".join(hosts), "--kdf-memory-mib", "1",
            "--kdf-iterations", "1"]
    if init:
        args.append("--init")
    return run(*args, passphrase=PASS, **kw)


# -- list -----------------------------------------------------------------------

def test_list_ten_hosts(run, world):
    store_path, _, _ = world
    code, out, err = run("list", "--store", store_path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("HOSTNAME")
    assert len(lines) == 11
    assert all("live" in ln for ln in lines[1:])


def test_list_empty_store(run, store_factory):
    handle = store_factory({})
    code, out, _ = run("list", "--store", handle.path)
    assert code == 0
    assert out.strip().splitlines() == [out.strip().splitlines()[0]]


def test_list_missing_store(run, tmp_path):
    code, out, err = run("list", "--store", tmp_path / "absent.sqlite")
    assert code == 1
    assert "error:" in err


def test_list_json_lines(run, world):
    store_path, _, _ = world
    code, out, _ = run("list", "--store", store_path, "--format", "json-lines")
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(records) == 10
    assert all(r["state"] == "live" for r in records)
    assert sum(r["rows"] for r in records) == 25


def test_list_json_lines_are_json_dumps_of_each_record(run, store_factory):
    counts = {'quo"te.example': 1, "back\\slash.example": 2, "caf\u00e9.example": 3}
    handle = store_factory(counts)
    handle.close()
    code, out, err = run("list", "--store", handle.path, "--format", "json-lines")
    assert code == 0, err
    assert out == "".join(
        json.dumps({"hostname": host, "rows": counts[host], "state": "live"}) + "\n"
        for host in sorted(counts))


def test_list_shows_masked_hosts(run, world):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    code, out, _ = run("list", "--store", store_path, "--vault", vault_path,
                       passphrase=PASS)
    assert code == 0
    masked = [ln for ln in out.splitlines() if "masked" in ln]
    assert len(masked) == 1 and "host00.example" in masked[0]


def test_list_config_supplies_vault(run, world, tmp_path):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    config = tmp_path / "credmask.conf"
    config.write_text(f"vault={vault_path}\n")
    code, out, _ = run("list", "--store", store_path, "--config", config, passphrase=PASS)
    assert code == 0
    masked = [ln for ln in out.splitlines() if "masked" in ln]
    assert len(masked) == 1 and "host00.example" in masked[0]


def test_list_status_and_planning_encode_no_cells(run, world, monkeypatch):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0

    def refuse(value):
        raise AssertionError("a cell was encoded")

    monkeypatch.setattr("credmask.store.encode_cell_value", refuse)
    for args in (["list"], ["status"], ["mask", "--hosts", "host01.example", "--dry-run"]):
        code, out, err = run(*args, "--store", store_path, "--vault", vault_path,
                             passphrase=PASS)
        assert code == 0, err
        assert ".example" in out


def test_list_status_and_mask_decode_no_vaulted_row(run, world, monkeypatch):
    store_path, vault_path, _ = world
    original = dump_of(store_path)
    assert cli_mask(run, store_path, vault_path, ["host00.example", "host01.example"])[0] == 0

    from credmask import vault as vault_mod

    walk = vault_mod._walk_rows

    def refuse(buf, pos, count, cells, rows):
        if rows is not None:
            raise AssertionError("a vaulted row was decoded")
        return walk(buf, pos, count, cells, rows)

    monkeypatch.setattr(vault_mod, "_walk_rows", refuse)
    code, out, err = run("list", "--store", store_path, "--vault", vault_path,
                         "--format", "json-lines", passphrase=PASS)
    assert code == 0, err
    assert {"hostname": "host00.example", "rows": 3, "state": "masked"} in [
        json.loads(line) for line in out.splitlines()]
    code, out, err = run("status", "--store", store_path, "--vault", vault_path,
                         passphrase=PASS)
    assert code == 0, err
    assert "masked hosts: host00.example, host01.example" in out
    code, _, err = cli_mask(run, store_path, vault_path, ["host02.example"], init=False)
    assert code == 0, err
    monkeypatch.undo()
    code, _, err = run("unmask", "--store", store_path, "--vault", vault_path, "--all",
                       passphrase=PASS)
    assert code == 0, err
    assert dump_of(store_path) == original


def test_crlf_passphrase_line_opens_a_vault_made_with_lf(run, world):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    fd = feed_fd(PASS + "\r")  # PASS\r\n
    code, out, err = run("status", "--store", store_path, "--vault", vault_path,
                         extra_fds=["--passphrase-fd", fd])
    os.close(fd)
    assert code == 0, err
    assert "mode: masked" in out
    fd = feed_fd(PASS + "\r\r")  # only one \r belongs to the line ending
    code, _, _ = run("status", "--store", store_path, "--vault", vault_path,
                     extra_fds=["--passphrase-fd", fd])
    os.close(fd)
    assert code == 4


def test_a_passphrase_that_is_not_utf8_exits_1_without_quoting_it(run, world):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    dump, vault_hash = dump_of(store_path), file_sha256(vault_path)
    r, w = os.pipe()
    os.write(w, b"pass\xe9word\n")
    os.close(w)
    code, _, err = run("mask", "--store", store_path, "--vault", vault_path,
                       "--hosts", "host01.example", extra_fds=["--passphrase-fd", r])
    os.close(r)
    assert code == 1
    assert err == "error: passphrase is not valid UTF-8\n"
    assert "0xe9" not in err and "position" not in err
    assert dump_of(store_path) == dump
    assert file_sha256(vault_path) == vault_hash


# -- mask -----------------------------------------------------------------------

def test_mask_then_status_masked(run, world):
    store_path, vault_path, _ = world
    code, out, _ = cli_mask(run, store_path, vault_path,
                            ["host00.example", "host01.example"])
    assert code == 0
    assert "log off" in out.lower()
    code, out, _ = run("status", "--store", store_path, "--vault", vault_path,
                       passphrase=PASS)
    assert code == 0
    assert "mode: masked" in out
    assert "host00.example" in out and "host01.example" in out


def test_mask_busy_store_exits_3(run, world):
    store_path, vault_path, _ = world
    lock = store_path.parent / ".parentlock"
    lock.touch()
    before = file_sha256(store_path)
    code, _, err = cli_mask(run, store_path, vault_path, ["host00.example"])
    assert code == 3
    assert file_sha256(store_path) == before
    lock.unlink()


@pytest.mark.parametrize("hosts", [[","], ["nobody.example"], ["host00.example"]],
                         ids=["empty", "unknown", "already-masked"])
def test_mask_checks_the_browser_lock_before_the_selection(run, world, hosts):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    lock = store_path.parent / ".parentlock"
    lock.touch()
    store_hash, vault_hash = file_sha256(store_path), file_sha256(vault_path)
    code, _, err = cli_mask(run, store_path, vault_path, hosts, init=False)
    assert code == 3 and "lock file" in err
    lock.unlink()
    assert cli_mask(run, store_path, vault_path, hosts, init=False)[0] == 1
    assert file_sha256(store_path) == store_hash
    assert file_sha256(vault_path) == vault_hash


def test_mask_force_against_held_database_lock_exits_3(run, world, tiny_kdf):
    from credmask.vault import create_vault, open_vault

    store_path, vault_path, _ = world
    create_vault(vault_path, PASS, tiny_kdf).close()
    before = dump_of(store_path)
    blocker = sqlite3.connect(store_path)
    blocker.execute("BEGIN IMMEDIATE")
    try:
        start = time.monotonic()
        code, _, err = run("mask", "--store", store_path, "--vault", vault_path,
                           "--hosts", "host00.example", "--force", passphrase=PASS)
        elapsed = time.monotonic() - start
    finally:
        blocker.rollback()
        blocker.close()
    assert code == 3, err
    assert elapsed < 6
    with open_vault(vault_path, PASS) as vf:
        assert vf.entries == {}
    assert dump_of(store_path) == before


def test_mask_dry_run_changes_nothing(run, world):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    store_hash = file_sha256(store_path)
    vault_hash = file_sha256(vault_path)
    code, out, _ = run("mask", "--store", store_path, "--vault", vault_path,
                       "--hosts", "host01.example", "--dry-run", passphrase=PASS)
    assert code == 0
    assert "dry run" in out
    assert file_sha256(store_path) == store_hash
    assert file_sha256(vault_path) == vault_hash


def test_mask_unknown_host_exits_1(run, world):
    store_path, vault_path, _ = world
    code, _, err = cli_mask(run, store_path, vault_path, ["stranger.example"])
    assert code == 1
    assert "stranger.example" in err


def test_mask_interactive_menu(run, world):
    store_path, vault_path, _ = world
    code, out, _ = run("mask", "--store", store_path, "--vault", vault_path,
                       "--init", "--kdf-memory-mib", "1", "--kdf-iterations", "1",
                       passphrase=PASS, stdin_text="1,3\n")
    assert code == 0
    code, out, _ = run("list", "--store", store_path, "--vault", vault_path,
                       "--format", "json-lines", passphrase=PASS)
    masked = [json.loads(ln)["hostname"] for ln in out.strip().splitlines()
              if json.loads(ln)["state"] == "masked"]
    assert masked == ["host00.example", "host02.example"]


@pytest.mark.parametrize("answer", ["0", "0-1"])
def test_mask_menu_refuses_numbers_below_1(run, world, answer):
    # options[0 - 1] is the last host, so 0 used to mask host #10 of 10
    from credmask.vault import open_vault
    store_path, vault_path, _ = world
    before = dump_of(store_path)
    code, _, err = run("mask", "--store", store_path, "--vault", vault_path,
                       "--init", "--kdf-memory-mib", "1", "--kdf-iterations", "1",
                       passphrase=PASS, stdin_text=answer + "\n")
    assert code == 1
    assert "cannot parse selection" in err
    assert dump_of(store_path) == before
    with open_vault(vault_path, PASS) as vf:
        assert vf.entries == {}


# -- deleted cells leave the store's files ---------------------------------------

def secret_profile(tmp_path, wal):
    """200 rows over hosts h0-h4 in turn, each with its own username and
    password ciphertexts; in WAL mode when ``wal``."""
    rows = [canonical_login_row(i, f"h{i % 5}.example",
                                encryptedUsername=f"USER-{i:03d}-{os.urandom(8).hex()}",
                                encryptedPassword=f"PASS-{i:03d}-{os.urandom(8).hex()}")
            for i in range(1, 201)]
    store_path = tmp_path / "profile" / "signons.sqlite"
    init_fixture(store_path, rows).close()
    if wal:
        conn = sqlite3.connect(store_path)
        assert conn.execute("PRAGMA journal_mode=WAL").fetchone() == ("wal",)
        conn.close()
    return store_path, rows


def cells_of(rows, hosts):
    user = CANONICAL_COLUMNS.index("encryptedUsername")
    return [cell for row in rows if row[1] in hosts for cell in row[user:user + 2]]


def left_in_files(store_path, cells):
    """The cells whose bytes some signons.sqlite* file still holds."""
    blobs = [p.read_bytes() for p in store_path.parent.glob(store_path.name + "*")]
    return [cell for cell in cells if any(cell.encode() in blob for blob in blobs)]


@pytest.mark.parametrize("wal", [False, True], ids=["rollback-journal", "wal-reader-open"])
def test_mask_leaves_no_masked_cell_in_the_store_files(run, tmp_path, stock_sqlite, wal):
    store_path, rows = secret_profile(tmp_path, wal)
    masked = cells_of(rows, {"h0.example", "h1.example"})
    assert len(masked) == 160 and left_in_files(store_path, masked) == masked
    reader = sqlite3.connect(store_path)  # a browser holding the store open
    try:
        assert reader.execute("SELECT count(*) FROM moz_logins").fetchone() == (200,)
        code, _, err = cli_mask(run, store_path, tmp_path / "v.cmv",
                                ["h0.example", "h1.example"])
        assert (code, err) == (0, "")
        assert left_in_files(store_path, masked) == []
        assert reader.execute("SELECT count(*) FROM moz_logins").fetchone() == (120,)
    finally:
        reader.close()


def test_unmask_overwrite_live_leaves_no_replaced_cell_in_a_wal_store(
        run, tmp_path, stock_sqlite):
    store_path, rows = secret_profile(tmp_path, wal=True)
    assert cli_mask(run, store_path, tmp_path / "v.cmv", ["h0.example"])[0] == 0
    resaved = canonical_login_row(5, "h0.example", encryptedUsername="USER-resaved-1f2e",
                                  encryptedPassword="PASS-resaved-3d4c")
    with open_store(store_path, "rw") as handle:
        handle.insert_rows([resaved])
    reader = sqlite3.connect(store_path)
    try:
        reader.execute("SELECT count(*) FROM moz_logins").fetchone()
        code, _, err = run("unmask", "--store", store_path, "--vault", tmp_path / "v.cmv",
                           "--all", "--conflicts", "overwrite-live", passphrase=PASS)
        assert (code, err) == (0, "")
        assert left_in_files(store_path, cells_of([resaved], {"h0.example"})) == []
    finally:
        reader.close()


def test_mask_says_when_a_reader_keeps_masked_bytes_in_a_wal_store(run, tmp_path):
    store_path, rows = secret_profile(tmp_path, wal=True)
    reader = sqlite3.connect(store_path, isolation_level=None)
    try:
        reader.execute("BEGIN")  # a read transaction the checkpoint must wait for
        reader.execute("SELECT count(*) FROM moz_logins").fetchone()
        code, out, err = cli_mask(run, store_path, tmp_path / "v.cmv", ["h0.example"])
        assert code == 0
        assert "masked 1 host(s)" in out
        assert len(err.splitlines()) == 1
        assert "remain" in err and "until the browser closes" in err
    finally:
        reader.close()
    assert left_in_files(store_path, cells_of(rows, {"h0.example"})) == []


# -- unmask ---------------------------------------------------------------------

def dump_of(path):
    handle = open_store(path)
    try:
        return handle.dump_canonical()
    finally:
        handle.close()


def test_unmask_round_trip_byte_identical(run, world):
    store_path, vault_path, _ = world
    original = dump_of(store_path)
    assert cli_mask(run, store_path, vault_path,
                    ["host00.example", "host01.example", "host02.example"])[0] == 0
    assert dump_of(store_path) != original
    code, out, _ = run("unmask", "--store", store_path, "--vault", vault_path,
                       "--all", passphrase=PASS)
    assert code == 0
    assert dump_of(store_path) == original
    code, out, _ = run("status", "--store", store_path, "--vault", vault_path,
                       passphrase=PASS)
    assert "mode: normal" in out


def test_unmask_wrong_passphrase_exits_2_files_untouched(run, world):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    store_hash = file_sha256(store_path)
    vault_hash = file_sha256(vault_path)
    code, out, err = run("unmask", "--store", store_path, "--vault", vault_path,
                         "--all", passphrase="wrong " + PASS)
    assert code == 2
    assert file_sha256(store_path) == store_hash
    assert file_sha256(vault_path) == vault_hash
    # the typed secret never reaches stdout or stderr
    assert "wrong " + PASS not in out + err and PASS not in out + err


def test_unmask_tampered_vault_exits_4(run, world):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    blob = bytearray(vault_path.read_bytes())
    blob[0] ^= 0xFF  # structural corruption
    vault_path.write_bytes(blob)
    code, _, err = run("unmask", "--store", store_path, "--vault", vault_path,
                       "--all", passphrase=PASS)
    assert code == 4


def test_unmask_conflict_fail_exits_5(run, world):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    handle = open_store(store_path, "rw")
    from credmask.store import canonical_login_row
    handle.insert_rows([canonical_login_row(100, "host00.example",
                                            encryptedUsername="ENC-USER-resaved")])
    handle.close()
    code, _, err = run("unmask", "--store", store_path, "--vault", vault_path,
                       "--all", "--conflicts", "fail", passphrase=PASS)
    assert code == 5
    code, out, _ = run("unmask", "--store", store_path, "--vault", vault_path,
                       "--all", "--conflicts", "keep-live", passphrase=PASS)
    assert code == 0
    assert "conflict on host00.example" in out


def test_unmask_overwrite_live_failing_insert_keeps_the_live_row(run, world):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    with open_store(store_path, "rw") as handle:  # the browser saves a newer row
        handle.insert_rows([canonical_login_row(100, "host00.example",
                                                encryptedUsername="ENC-USER-resaved")])
    conn = sqlite3.connect(store_path)  # and then upgrades its schema
    conn.execute("ALTER TABLE moz_logins ADD COLUMN timesUsed INTEGER")
    conn.commit()
    conn.close()
    before = dump_of(store_path)
    vault_hash = file_sha256(vault_path)
    code, _, err = run("unmask", "--store", store_path, "--vault", vault_path,
                       "--all", "--conflicts", "overwrite-live", passphrase=PASS)
    assert code == 1
    assert "schema" in err
    assert dump_of(store_path) == before
    assert file_sha256(vault_path) == vault_hash


MALFORMED_CELLS = pytest.mark.parametrize("cell", [
    b"i" + (7).to_bytes(4, "big"),
    b"f\x00\x00",
    b"zjunk",
    b"",
], ids=["5-byte-integer", "3-byte-real", "unknown-tag", "empty"])


def vault_bad_entry(vault_path, store_path, cell, monkeypatch):
    """Add an entry for bad.example whose one row holds ``cell`` as its encType."""
    from credmask.vault import open_vault

    import dump_reference
    import vault_reference

    [good] = dump_reference.login_rows([canonical_login_row(900, "bad.example")],
                                       CANONICAL_COLUMNS, "id")
    row = good._replace(cells=tuple(
        (name, cell if name == "encType" else value) for name, value in good.cells))
    bad = vault_reference.encode_entry("bad.example", 0, str(store_path.resolve()),
                                       CANONICAL_COLUMNS, [row])
    with open_vault(vault_path, PASS) as vf, monkeypatch.context() as patch:
        # the entries lead the payload: append one, sealed under the vault's key
        payload = vf._serialize()
        end = 4 + sum(len(e._encoded) for e in vf.entries.values())
        count = len(vf.entries) + 1
        patch.setattr(vf, "_serialize", lambda: (
            count.to_bytes(4, "big") + payload[4:end] + bad + payload[end:]))
        vf.commit()


@MALFORMED_CELLS
def test_unmask_of_a_malformed_vaulted_cell_exits_1_and_changes_nothing(run, world, cell,
                                                                        monkeypatch):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    vault_bad_entry(vault_path, store_path, cell, monkeypatch)
    before, vault_hash = dump_of(store_path), file_sha256(vault_path)
    code, _, err = run("unmask", "--store", store_path, "--vault", vault_path,
                       "--all", passphrase=PASS)
    assert code == 1
    assert "cell" in err
    assert dump_of(store_path) == before
    assert file_sha256(vault_path) == vault_hash


@MALFORMED_CELLS
def test_unmask_of_a_host_beside_a_malformed_vaulted_cell_restores_it(run, world, cell,
                                                                      monkeypatch):
    from credmask.vault import open_vault

    store_path, vault_path, _ = world
    original = dump_of(store_path)
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    vault_bad_entry(vault_path, store_path, cell, monkeypatch)
    code, out, err = run("unmask", "--store", store_path, "--vault", vault_path,
                         "--hosts", "host00.example", passphrase=PASS)
    assert code == 0, err
    assert "restored 1 host(s); mode: masked" in out
    assert dump_of(store_path) == original
    with open_vault(vault_path, PASS) as vf:
        assert list(vf.entries) == ["bad.example"]
        with pytest.raises(ValueError, match="cell"):
            vf.entries["bad.example"].store_rows(CANONICAL_COLUMNS, "id")


def sealed_entries(vault_path, tiny_kdf, monkeypatch, store_path, rows_by_entry):
    """Seal a vault of one entry per item of ``rows_by_entry``, each a hostname
    and its canonical rows as (column name, tagged bytes) row objects; returns
    the store and vault bytes."""
    import vault_reference
    from test_vault import sealed, u32

    entries = b"".join(vault_reference.encode_entry(host, 0, str(store_path.resolve()),
                                                    CANONICAL_COLUMNS, rows)
                       for host, rows in rows_by_entry)
    sealed(vault_path, tiny_kdf, monkeypatch,
           u32(len(rows_by_entry)) + entries + u32(0) + b"\x01\x00")
    return store_path.read_bytes(), vault_path.read_bytes()


def test_a_vault_naming_a_host_twice_exits_4_and_changes_nothing(run, store_factory, tmp_path,
                                                                  tiny_kdf, monkeypatch):
    import dump_reference

    handle = store_factory({"b.example": 1})
    handle.close()
    vault_path = tmp_path / "vault.cmv"
    before = sealed_entries(vault_path, tiny_kdf, monkeypatch, handle.path, [
        ("a.example", dump_reference.login_rows([canonical_login_row(row_id, "a.example")],
                                                CANONICAL_COLUMNS, "id"))
        for row_id in (101, 102)])
    for command in (["list"], ["status"], ["unmask", "--all"]):
        code, out, err = run(*command, "--store", handle.path, "--vault", vault_path,
                             passphrase="secret")
        assert (code, out) == (4, ""), err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (handle.path.read_bytes(), vault_path.read_bytes()) == before


def test_unmask_restores_a_row_whose_cells_are_off_its_column_list_in_store_order(
        run, store_factory, tmp_path, tiny_kdf, monkeypatch):
    import dump_reference

    handle = store_factory({"b.example": 1})
    vault_path = tmp_path / "vault.cmv"
    rows = [canonical_login_row(101, "a.example", httpRealm="ü realm"),
            canonical_login_row(102, "a.example", encryptedUsername=b"\x00\xff", encType=1.5),
            canonical_login_row(103, "a.example", guid=None)]
    encoded = dump_reference.login_rows(rows, CANONICAL_COLUMNS, "id")
    encoded[1] = encoded[1]._replace(cells=encoded[1].cells[::-1])  # id cell last
    sealed_entries(vault_path, tiny_kdf, monkeypatch, handle.path, [("a.example", encoded)])
    code, out, err = run("unmask", "--store", handle.path, "--vault", vault_path, "--all",
                         passphrase="secret")
    assert code == 0, err
    assert tagged(handle.read_rows(hosts=["a.example"])) == tagged(rows)


def test_unmask_requires_selection(run, world):
    store_path, vault_path, _ = world
    code, _, err = run("unmask", "--store", store_path, "--vault", vault_path)
    assert code == 1
    assert "--hosts or --all" in err


def test_unmask_refuses_both_hosts_and_all(run, world):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example", "host01.example"])[0] == 0
    hashes = [file_sha256(p) for p in (store_path, vault_path)]
    code, _, err = run("unmask", "--store", store_path, "--vault", vault_path,
                       "--hosts", "host00.example", "--all", passphrase=PASS)
    assert code == 1
    assert "exactly one of --hosts or --all" in err
    assert [file_sha256(p) for p in (store_path, vault_path)] == hashes


def test_unmask_busy_store_exits_3(run, world):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    (store_path.parent / ".parentlock").touch()
    code, _, _ = run("unmask", "--store", store_path, "--vault", vault_path,
                     "--all", passphrase=PASS)
    assert code == 3
    (store_path.parent / ".parentlock").unlink()


def held_database_lock(store_path):
    blocker = sqlite3.connect(store_path)
    blocker.execute("BEGIN IMMEDIATE")
    return blocker


def test_mask_against_held_database_lock_exits_3(run, world, tiny_kdf):
    from credmask.vault import create_vault

    store_path, vault_path, _ = world
    create_vault(vault_path, PASS, tiny_kdf).close()
    before, vault_hash = dump_of(store_path), file_sha256(vault_path)
    blocker = held_database_lock(store_path)
    try:
        start = time.monotonic()
        code, _, err = cli_mask(run, store_path, vault_path, ["host00.example"], init=False)
        elapsed = time.monotonic() - start
    finally:
        blocker.rollback()
        blocker.close()
    assert code == 3, err
    assert elapsed < 6
    assert dump_of(store_path) == before
    assert file_sha256(vault_path) == vault_hash


def test_unmask_against_held_database_lock_exits_3(run, world):
    from credmask.vault import open_vault

    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    before, vault_hash = dump_of(store_path), file_sha256(vault_path)
    blocker = held_database_lock(store_path)
    try:
        start = time.monotonic()
        code, _, err = run("unmask", "--store", store_path, "--vault", vault_path,
                           "--all", passphrase=PASS)
        elapsed = time.monotonic() - start
    finally:
        blocker.rollback()
        blocker.close()
    assert code == 3, err
    assert elapsed < 6
    assert dump_of(store_path) == before
    assert file_sha256(vault_path) == vault_hash
    with open_vault(vault_path, PASS) as vf:
        assert list(vf.entries) == ["host00.example"]


def test_mask_init_on_busy_profile_leaves_an_empty_vault_a_rerun_opens(run, world):
    from credmask.vault import open_vault

    store_path, vault_path, _ = world
    before = dump_of(store_path)
    lock = store_path.parent / ".parentlock"
    lock.touch()
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 3
    lock.unlink()
    assert dump_of(store_path) == before
    with open_vault(vault_path, PASS) as vf:
        assert vf.entries == {}
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    with open_vault(vault_path, PASS) as vf:
        assert list(vf.entries) == ["host00.example"]


@pytest.mark.parametrize("init", [False, True], ids=["without-init", "with-init"])
def test_mask_dry_run_ignores_a_browser_lock_file(run, world, init):
    store_path, vault_path, _ = world
    (store_path.parent / ".parentlock").touch()
    store_hash = file_sha256(store_path)
    extra = ["--init", "--kdf-memory-mib", "1", "--kdf-iterations", "1"] if init else []
    code, out, err = run("mask", "--store", store_path, "--vault", vault_path,
                         "--hosts", "host00.example", "--dry-run", *extra,
                         passphrase=PASS if init else None)
    assert code == 0, err
    assert "would mask" in out
    assert file_sha256(store_path) == store_hash
    assert not vault_path.exists()
    assert not vault_path.with_name(vault_path.name + ".lock").exists()


@pytest.fixture
def encoded_cells(monkeypatch):
    """One entry per cell the store encodes, that is per cell it reads."""
    from credmask import store

    calls = []
    encode = store.encode_cell_value

    def counting(value):
        calls.append(None)
        return encode(value)

    monkeypatch.setattr(store, "encode_cell_value", counting)
    return calls


@pytest.fixture
def read_cells(monkeypatch):
    """One entry per cell the store reads through ``StoreHandle.read_rows``."""
    from credmask.store import StoreHandle

    calls = []
    read_rows = StoreHandle.read_rows

    def counting(self, *args, **kwargs):
        for row in read_rows(self, *args, **kwargs):
            calls.extend(None for _ in row)
            yield row

    monkeypatch.setattr(StoreHandle, "read_rows", counting)
    return calls


def test_mask_reads_only_the_cells_it_moves(run, world, tiny_kdf, read_cells,
                                            encoded_cells):
    from credmask.vault import create_vault

    store_path, vault_path, _ = world
    create_vault(vault_path, PASS, tiny_kdf).close()
    read_cells.clear()
    code, _, err = cli_mask(run, store_path, vault_path,
                            ["host00.example", "host05.example"], init=False)
    assert code == 0, err
    assert len(read_cells) == (3 + 2) * 10  # moved rows x columns
    assert encoded_cells == []  # each row goes from SQLite's values to the vault bytes


def test_unmask_without_live_conflict_reads_no_cells(run, world, encoded_cells):
    store_path, vault_path, _ = world
    original = dump_of(store_path)
    assert cli_mask(run, store_path, vault_path, ["host00.example", "host01.example"])[0] == 0
    encoded_cells.clear()
    code, _, err = run("unmask", "--store", store_path, "--vault", vault_path,
                       "--all", passphrase=PASS)
    assert code == 0, err
    assert encoded_cells == []
    assert dump_of(store_path) == original


@pytest.mark.parametrize("policy", ["keep-live", "overwrite-live", "fail"])
def test_unmask_remaps_only_an_id_another_host_took(run, world, policy):
    from credmask.vault import open_vault

    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    with open_vault(vault_path, PASS) as vf:
        vaulted = vf.entries["host00.example"].store_rows(CANONICAL_COLUMNS, "id")
    taker = canonical_login_row(vaulted[1][0], "host01.example",
                                encryptedUsername="ENC-USER-new")
    with open_store(store_path, "rw") as handle:
        handle.insert_rows([taker])
    before, vault_hash = dump_of(store_path), file_sha256(vault_path)
    code, out, err = run("unmask", "--store", store_path, "--vault", vault_path,
                         "--all", "--conflicts", policy, passphrase=PASS)
    if policy == "fail":
        assert code == 5
        assert dump_of(store_path) == before
        assert file_sha256(vault_path) == vault_hash
        return
    assert code == 0, err
    assert "conflict" not in out
    user = CANONICAL_COLUMNS.index("encryptedUsername")
    with open_store(store_path) as handle:
        rows = {row[0]: row for row in handle.read_rows()}
    assert tagged([rows[taker[0]]]) == tagged([taker])
    assert tagged([rows[vaulted[0][0]]]) == tagged([vaulted[0]])
    assert tagged([rows[vaulted[2][0]]]) == tagged([vaulted[2]])
    moved = [r for r in rows.values()
             if encode_cell_value(r[user]) == encode_cell_value(vaulted[1][user])]
    assert len(moved) == 1 and moved[0][0] not in {r[0] for r in vaulted}
    assert tagged([moved[0][1:]]) == tagged([vaulted[1][1:]])


# -- fingerprint policy -------------------------------------------------------------

@pytest.fixture
def fingerprint_world(run, world, tmp_path):
    store_path, vault_path, keystore = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    records = generate_synthetic(11, 2, 20, probes_per_template=1,
                                 impostors_per_template=1,
                                 position_jitter=1.0, angle_jitter=0.05,
                                 deletion_rate=0.0)
    enrolled_min = tmp_path / "enrolled.min"
    good_probe = tmp_path / "probe-good.min"
    bad_probe = tmp_path / "probe-bad.min"
    save_template(records[0].template, enrolled_min)
    save_template(records[0].genuine_probes[0], good_probe)
    save_template(records[0].impostor_probes[0], bad_probe)
    code, _, err = run("auth", "enroll-fingerprint", "--vault", vault_path,
                       "--template", enrolled_min, "--threshold", "0.4",
                       passphrase=PASS)
    assert code == 0, err
    code, _, err = run("auth", "set-policy", "both", "--vault", vault_path,
                       passphrase=PASS)
    assert code == 0, err
    return store_path, vault_path, good_probe, bad_probe


def test_unmask_policy_both_needs_probe(run, fingerprint_world):
    store_path, vault_path, good_probe, bad_probe = fingerprint_world
    code, _, err = run("unmask", "--store", store_path, "--vault", vault_path,
                       "--all", passphrase=PASS)
    assert code == 2
    assert "fingerprint" in err


def test_unmask_bad_probe_exits_2(run, fingerprint_world):
    store_path, vault_path, good_probe, bad_probe = fingerprint_world
    store_hash = file_sha256(store_path)
    vault_hash = file_sha256(vault_path)
    code, _, err = run("unmask", "--store", store_path, "--vault", vault_path,
                       "--all", "--fingerprint", bad_probe, passphrase=PASS)
    assert code == 2
    assert file_sha256(store_path) == store_hash
    assert file_sha256(vault_path) == vault_hash


def test_unmask_good_probe_succeeds(run, fingerprint_world):
    store_path, vault_path, good_probe, bad_probe = fingerprint_world
    code, _, err = run("unmask", "--store", store_path, "--vault", vault_path,
                       "--all", "--fingerprint", good_probe, passphrase=PASS)
    assert code == 0, err


def oversized_min(path):
    path.write_text("MIN1 256\n" + "".join(f"{i}.5 {i}.25 1.0 T\n" for i in range(256)))
    return path


def test_unmask_probe_over_255_minutiae_exits_1(run, fingerprint_world, tmp_path):
    store_path, vault_path, _, _ = fingerprint_world
    store_hash = file_sha256(store_path)
    vault_hash = file_sha256(vault_path)
    code, out, err = run("unmask", "--store", store_path, "--vault", vault_path, "--all",
                         "--fingerprint", oversized_min(tmp_path / "big.min"),
                         passphrase=PASS)
    assert code == 1
    assert "255" in err and "17.25" not in out + err
    assert file_sha256(store_path) == store_hash
    assert file_sha256(vault_path) == vault_hash


def test_enroll_template_over_255_minutiae_exits_1(run, fingerprint_world, tmp_path):
    store_path, vault_path, _, _ = fingerprint_world
    store_hash = file_sha256(store_path)
    vault_hash = file_sha256(vault_path)
    code, out, err = run("auth", "enroll-fingerprint", "--vault", vault_path,
                         "--template", oversized_min(tmp_path / "big.min"), passphrase=PASS)
    assert code == 1
    assert "255" in err and "17.25" not in out + err
    assert file_sha256(store_path) == store_hash
    assert file_sha256(vault_path) == vault_hash


# -- concurrent maskers ------------------------------------------------------------------

def test_interleaved_maskers_lose_no_row(store_factory, tmp_path, capsys, monkeypatch,
                                         tiny_kdf):
    # mask b.example runs to completion while mask a.example derives its key
    from credmask import crypto
    from credmask.vault import create_vault, open_vault

    handle = store_factory({"a.example": 2, "b.example": 3})
    before = list(handle.read_rows())
    handle.close()
    vault_path = tmp_path / "vault.cmv"
    create_vault(vault_path, PASS, tiny_kdf).close()
    real_derive = crypto.derive_key
    loser = {}

    def mask(host):
        return main(["mask", "--store", str(handle.path), "--vault", str(vault_path),
                     "--hosts", host, "--passphrase-fd", str(feed_fd(PASS))])

    def derive_key(secret, params):
        if not loser:
            loser["started"] = True  # the nested mask derives without the hook
            loser["code"] = mask("b.example")
            loser["err"] = capsys.readouterr().err
        return real_derive(secret, params)

    monkeypatch.setattr(crypto, "derive_key", derive_key)
    assert mask("a.example") == 0
    assert loser["code"] == 1
    assert "vault is locked" in loser["err"]
    monkeypatch.undo()

    with open_vault(vault_path, PASS) as vf:
        vaulted = [row for entry in vf.entries.values()
                   for row in entry.store_rows(CANONICAL_COLUMNS, "id")]
    with open_store(handle.path) as after:
        live = list(after.read_rows())
    assert list(vf.entries) == ["a.example"]
    assert tagged(sorted(vaulted + live, key=lambda row: row[0])) == tagged(before)


def test_masker_during_another_vault_commit_exits_3(store_factory, tmp_path, monkeypatch,
                                                    tiny_kdf):
    # a second process masks the same host while the first seals its vault
    from credmask import crypto
    from credmask.vault import create_vault, open_vault

    handle = store_factory({"a.example": 2, "b.example": 3})
    before = list(handle.read_rows())
    handle.close()
    vault_a, vault_b = tmp_path / "a.cmv", tmp_path / "b.cmv"
    for path in (vault_a, vault_b):
        create_vault(path, PASS, tiny_kdf).close()
    real_seal = crypto.seal
    other = {}

    def seal(*args):
        if not other:
            other["proc"] = subprocess.run(
                [sys.executable, "-m", "credmask", "mask", "--store", str(handle.path),
                 "--vault", str(vault_b), "--hosts", "a.example", "--passphrase-fd", "0"],
                input=PASS + "\n", capture_output=True, text=True, timeout=60, cwd=REPO_ROOT,
                env=CHILD_ENV)
        return real_seal(*args)

    monkeypatch.setattr(crypto, "seal", seal)
    fd = feed_fd(PASS)
    code = main(["mask", "--store", str(handle.path), "--vault", str(vault_a),
                 "--hosts", "a.example", "--passphrase-fd", str(fd)])
    os.close(fd)
    monkeypatch.undo()
    assert code == 0
    assert other["proc"].returncode == 3, other["proc"].stderr

    places = []
    for path in (vault_a, vault_b):
        with open_vault(path, PASS) as vf:
            places.append([row for entry in vf.entries.values()
                           for row in entry.store_rows(CANONICAL_COLUMNS, "id")])
    with open_store(handle.path) as after:
        places.append(list(after.read_rows()))
    everywhere = [row for rows in places for row in rows]
    assert tagged(sorted(everywhere, key=lambda row: row[0])) == tagged(before)


# -- status ---------------------------------------------------------------------------

def test_status_fresh_vault(run, world, tiny_kdf):
    store_path, vault_path, _ = world
    from credmask.vault import create_vault
    create_vault(vault_path, PASS, tiny_kdf).close()
    code, out, _ = run("status", "--store", store_path, "--vault", vault_path,
                       passphrase=PASS)
    assert code == 0
    assert "mode: normal" in out


def test_status_missing_vault(run, world):
    store_path, vault_path, _ = world
    code, out, _ = run("status", "--store", store_path, "--vault", vault_path)
    assert code == 0
    assert "mode: normal (no vault)" in out


def test_status_corrupt_vault_exits_4(run, world):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    blob = bytearray(vault_path.read_bytes())
    blob[40] ^= 0x01  # inside nonce/ciphertext: fails authentication
    vault_path.write_bytes(blob)
    code, _, err = run("status", "--store", store_path, "--vault", vault_path,
                       passphrase=PASS)
    assert code == 4


def test_status_reports_keystore(run, world):
    store_path, vault_path, keystore = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    code, out, _ = run("status", "--store", store_path, "--vault", vault_path,
                       passphrase=PASS)
    assert "keystore: ok" in out
    keystore.write_bytes(b"swapped out")
    code, out, _ = run("status", "--store", store_path, "--vault", vault_path,
                       passphrase=PASS)
    assert "keystore: CHANGED" in out


def test_paths_are_recorded_resolved(run, tmp_path, monkeypatch):
    # mask from x/ with a relative store path, then look from x/elsewhere/
    x = tmp_path / "x"
    init_fixture(x / "prof" / "logins.sqlite",
                 [canonical_login_row(1, "a.example"), canonical_login_row(2, "b.example")]
                 ).close()
    (x / "prof" / "key3.db").write_bytes(os.urandom(64))
    (x / "elsewhere").mkdir()
    vault_path = tmp_path / "vault.cmv"
    original = dump_of(x / "prof" / "logins.sqlite")
    monkeypatch.chdir(x)
    assert cli_mask(run, "prof/logins.sqlite", vault_path, ["a.example"])[0] == 0
    monkeypatch.chdir(x / "elsewhere")
    code, out, err = run("status", "--store", "../prof/logins.sqlite", "--vault", vault_path,
                         passphrase=PASS)
    assert code == 0, err
    assert "keystore: ok" in out.splitlines()
    assert "MISMATCH" not in out
    code, _, err = run("unmask", "--store", "../prof/logins.sqlite", "--vault", vault_path,
                       "--all", passphrase=PASS)
    assert code == 0, err
    assert dump_of(x / "prof" / "logins.sqlite") == original


# -- entries bound to their store --------------------------------------------------------

@pytest.fixture
def two_stores(run, world, store_factory):
    """world's store A with host00 masked, and a second store B of the same shape."""
    store_a, vault_path, _ = world
    store_b = store_factory(ten_host_counts(), name="B")
    store_b.close()
    assert cli_mask(run, store_a, vault_path, ["host00.example"])[0] == 0
    return store_a, store_b.path, vault_path


def test_unmask_into_another_store_changes_nothing(run, two_stores):
    store_a, store_b, vault_path = two_stores
    hashes = [file_sha256(p) for p in (store_a, store_b, vault_path)]
    for extra in ([], ["--conflicts", "overwrite-live"]):
        code, _, err = run("unmask", "--store", store_b, "--vault", vault_path, "--all",
                           *extra, passphrase=PASS)
        assert code == 1
        assert "--store-moved" in err
        assert [file_sha256(p) for p in (store_a, store_b, vault_path)] == hashes


def test_mask_refuses_a_vault_holding_another_stores_hosts(run, two_stores):
    store_a, store_b, vault_path = two_stores
    hashes = [file_sha256(p) for p in (store_a, store_b, vault_path)]
    code, _, err = cli_mask(run, store_b, vault_path, ["host01.example"], init=False)
    assert code == 1
    assert str(store_a.resolve()) in err
    assert [file_sha256(p) for p in (store_a, store_b, vault_path)] == hashes


def test_status_reports_hosts_from_another_store(run, two_stores):
    store_a, store_b, vault_path = two_stores
    code, out, _ = run("status", "--store", store_b, "--vault", vault_path, passphrase=PASS)
    assert code == 0
    assert f"store: MISMATCH, hosts masked from {store_a.resolve()}" in out.splitlines()
    code, out, _ = run("status", "--store", store_a, "--vault", vault_path, passphrase=PASS)
    assert "MISMATCH" not in out


def test_store_moved_restores_a_moved_profile(run, world, tmp_path):
    store_path, vault_path, _ = world
    original = dump_of(store_path)
    assert cli_mask(run, store_path, vault_path, ["host00.example", "host03.example"])[0] == 0
    moved = shutil.move(store_path.parent, tmp_path / "moved") / store_path.name
    vault_hash = file_sha256(vault_path)
    code, _, err = run("unmask", "--store", moved, "--vault", vault_path, "--all",
                       passphrase=PASS)
    assert code == 1, err
    assert file_sha256(vault_path) == vault_hash
    code, out, err = run("unmask", "--store", moved, "--vault", vault_path, "--all",
                         "--store-moved", passphrase=PASS)
    assert code == 0, err
    assert dump_of(moved) == original


def test_store_moved_checks_the_key_store_beside_the_target(run, world, tmp_path):
    store_path, vault_path, keystore = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    moved = shutil.move(store_path.parent, tmp_path / "moved") / store_path.name
    (moved.parent / keystore.name).write_bytes(b"another profile's key store")
    hashes = [file_sha256(p) for p in (moved, vault_path)]
    code, _, err = run("unmask", "--store", moved, "--vault", vault_path, "--all",
                       "--store-moved", passphrase=PASS)
    assert code == 1
    assert "key store" in err
    assert [file_sha256(p) for p in (moved, vault_path)] == hashes


def test_status_unreadable_store_exits_1(run, tmp_path):
    bad = tmp_path / "not-a-db.sqlite"
    bad.write_bytes(b"junk")
    code, _, err = run("status", "--store", bad)
    assert code == 1


def test_mask_of_a_text_cell_that_is_not_utf8_exits_1_and_leaks_nothing(store_factory,
                                                                      tmp_path):
    handle = store_factory({"a.example": 2, "b.example": 1})
    handle.close()
    conn = sqlite3.connect(handle.path)
    conn.execute("UPDATE moz_logins SET encryptedPassword = "
                 "CAST(x'53454352455466ff' AS TEXT) WHERE id = 1")
    conn.commit()
    conn.close()
    store_hash = file_sha256(handle.path)
    vault_path = tmp_path / "vault.cmv"
    proc = subprocess.run(
        [sys.executable, "-m", "credmask", "mask", "--store", str(handle.path),
         "--vault", str(vault_path), "--hosts", "a.example", "--init",
         "--kdf-memory-mib", "1", "--kdf-iterations", "1", "--passphrase-fd", "0"],
        input=PASS + "\n", capture_output=True, text=True, timeout=60, cwd=REPO_ROOT,
        env=CHILD_ENV)
    assert proc.returncode == 1, proc.stderr
    assert "SECRET" not in proc.stderr and "Traceback" not in proc.stderr
    assert file_sha256(handle.path) == store_hash
    from credmask.vault import open_vault
    with open_vault(vault_path, PASS) as vf:
        assert vf.entries == {}


def run_subprocess(*args, stdin=PASS):
    return subprocess.run(
        [sys.executable, "-m", "credmask", *map(str, args), "--passphrase-fd", "0"],
        input=stdin + "\n", capture_output=True, text=True, timeout=60, cwd=REPO_ROOT,
        env=CHILD_ENV)


def test_mask_beside_a_non_utf8_hostname_moves_its_host_and_leaks_nothing(
        store_factory, tmp_path):
    handle = store_factory({"a.example": 2, "b.example": 1})
    handle.close()
    original = dump_of(handle.path)
    conn = sqlite3.connect(handle.path)
    conn.execute("UPDATE moz_logins SET hostname = "
                 "CAST(x'5345435245542d686f737466ff' AS TEXT) WHERE id = 3")
    conn.commit()
    vault_path = tmp_path / "vault.cmv"
    proc = run_subprocess("mask", "--store", handle.path, "--vault", vault_path,
                          "--hosts", "a.example", "--init", "--kdf-memory-mib", "1",
                          "--kdf-iterations", "1")
    assert proc.returncode == 0, proc.stderr  # the mask never reads the bad row
    assert [row[0] for row in conn.execute("SELECT id FROM moz_logins")] == [3]
    conn.text_factory = bytes
    bad_row = conn.execute("SELECT * FROM moz_logins WHERE id = 3").fetchone()
    store_hash = file_sha256(handle.path)
    for command in ("status", "list"):  # these read every hostname
        proc = run_subprocess(command, "--store", handle.path, "--vault", vault_path)
        assert proc.returncode == 1, proc.stderr
        assert "SECRET" not in proc.stderr and "Traceback" not in proc.stderr
    assert file_sha256(handle.path) == store_hash
    proc = run_subprocess("unmask", "--store", handle.path, "--vault", vault_path, "--all")
    assert proc.returncode == 0, proc.stderr  # it reads ids, and hostnames of a.example only
    assert "SECRET" not in proc.stdout + proc.stderr
    assert conn.execute("SELECT * FROM moz_logins WHERE id = 3").fetchone() == bad_row
    conn.execute("UPDATE moz_logins SET hostname = 'b.example' WHERE id = 3")
    conn.commit()
    conn.close()
    assert dump_of(handle.path) == original
    from credmask.vault import open_vault
    with open_vault(vault_path, PASS) as vf:
        assert vf.entries == {}


def test_unmask_failing_a_non_id_constraint_exits_1_and_changes_nothing(run, world):
    store_path, vault_path, _ = world
    conn = sqlite3.connect(store_path)
    conn.execute("CREATE UNIQUE INDEX guid_unique ON moz_logins (guid)")
    conn.commit()
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    guid = "{guid-0001}"  # host00's first row, now in the vault
    conn.execute("INSERT INTO moz_logins (id, hostname, guid) VALUES (100, 'host01.example', ?)",
                 (guid,))
    conn.commit()
    conn.close()
    dump, vault_hash = dump_of(store_path), file_sha256(vault_path)
    proc = run_subprocess("unmask", "--store", store_path, "--vault", vault_path, "--all")
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert dump_of(store_path) == dump
    assert file_sha256(vault_path) == vault_hash


def test_unmask_beside_a_text_id_under_an_int_primary_key_exits_1_and_changes_nothing(
        tmp_path):
    # "INT PRIMARY KEY" is no rowid alias, so the id column can hold text
    store_path, vault_path = tmp_path / "signons.sqlite", tmp_path / "vault.cmv"
    conn = sqlite3.connect(store_path)
    conn.execute('CREATE TABLE moz_logins ("id" INT PRIMARY KEY, hostname TEXT, password TEXT)')
    conn.executemany("INSERT INTO moz_logins VALUES (?, ?, ?)",
                     [(1, "a.example", "p1"), (2, "a.example", "p2"), ("x", "b.example", "p3")])
    conn.commit()
    conn.close()
    store_hash = file_sha256(store_path)
    # the store is refused when opened: mask writes no vault, unmask finds none
    for args in (["mask", "--hosts", "a.example", "--init", "--kdf-memory-mib", "1",
                  "--kdf-iterations", "1"], ["unmask", "--all"]):
        proc = run_subprocess(*args, "--store", store_path, "--vault", vault_path)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert file_sha256(store_path) == store_hash
        assert not vault_path.exists()


# Triggers a user who can write the store could plant: each would run inside
# credmask's own write transaction.
LOGINS_TRIGGERS = [
    ("mask", "leak", "AFTER DELETE ON moz_logins BEGIN "
     "INSERT INTO stash VALUES (old.encryptedUsername, old.encryptedPassword); END"),
    ("mask", "wipe", "AFTER DELETE ON MOZ_LOGINS BEGIN "
     "DELETE FROM moz_logins WHERE hostname = 'b.example'; END"),
    ("mask", "keep", "BEFORE DELETE ON moz_logins BEGIN SELECT RAISE(IGNORE); END"),
    ("unmask", "wipe", "AFTER INSERT ON moz_logins BEGIN "
     "DELETE FROM moz_logins WHERE hostname = 'b.example'; END"),
]


@pytest.mark.parametrize("command,name,body", LOGINS_TRIGGERS,
                         ids=[f"{command}-{name}" for command, name, _ in LOGINS_TRIGGERS])
def test_a_trigger_on_the_logins_table_is_refused_and_changes_nothing(
        run, store_factory, tmp_path, tiny_kdf, command, name, body):
    from credmask.vault import create_vault

    handle = store_factory({"a.example": 3, "b.example": 3})
    handle.close()
    store_path, vault_path = handle.path, tmp_path / "vault.cmv"
    keystore = store_path.parent / "key3.db"
    keystore.write_bytes(os.urandom(1024))
    if command == "mask":
        create_vault(vault_path, PASS, tiny_kdf).close()
        args = ["--hosts", "a.example"]
    else:  # planted while a.example is masked
        assert cli_mask(run, store_path, vault_path, ["a.example"])[0] == 0
        args = ["--all"]
    conn = sqlite3.connect(store_path)
    conn.executescript(f"CREATE TABLE stash (u, p); CREATE TRIGGER {name} {body};")
    conn.close()

    def state():
        conn = sqlite3.connect(store_path)
        stash = conn.execute("SELECT * FROM stash").fetchall()
        conn.close()
        return dump_of(store_path), stash, file_sha256(vault_path), file_sha256(keystore)

    before = state()
    code, _, err = run(command, "--store", store_path, "--vault", vault_path, *args,
                       passphrase=PASS)
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(name) in err and "ENC-" not in err
    assert state() == before


# -- auth command -----------------------------------------------------------------------

def test_auth_enroll_passphrase(run, world, tiny_kdf):
    store_path, vault_path, _ = world
    from credmask.vault import create_vault, open_vault
    create_vault(vault_path, PASS, tiny_kdf).close()
    gate_fd = feed_fd("different gate secret")
    code, out, _ = run("auth", "enroll-passphrase", "--vault", vault_path,
                       passphrase=PASS,
                       extra_fds=["--gate-passphrase-fd", gate_fd])
    assert code == 0
    with open_vault(vault_path, PASS) as vf:
        assert [r.kind for r in vf.auth_records] == ["passphrase"]


def run_with_gate(run, gate, *args):
    fd = feed_fd(gate)
    try:
        return run(*args, passphrase=PASS, extra_fds=["--gate-passphrase-fd", fd])
    finally:
        os.close(fd)


def enroll_gate(run, vault_path, gate):
    return run_with_gate(run, gate, "auth", "enroll-passphrase", "--vault", vault_path)


def unmask_with_gate(run, store_path, vault_path, gate):
    return run_with_gate(run, gate, "unmask", "--store", store_path, "--vault", vault_path,
                         "--all")


def test_unmask_verifies_a_distinct_gate_passphrase(run, world):
    store_path, vault_path, _ = world
    original = dump_of(store_path)
    assert cli_mask(run, store_path, vault_path, ["host00.example", "host01.example"])[0] == 0
    code, out, err = enroll_gate(run, vault_path, "gate secret")
    assert code == 0, err
    shown = out + err
    store_hash, vault_hash = file_sha256(store_path), file_sha256(vault_path)
    for wrong in (PASS, "gate secreT"):
        code, out, err = unmask_with_gate(run, store_path, vault_path, wrong)
        assert code == 2
        shown += out + err
        assert file_sha256(store_path) == store_hash
        assert file_sha256(vault_path) == vault_hash
    code, out, err = unmask_with_gate(run, store_path, vault_path, "gate secret")
    assert code == 0, err
    assert dump_of(store_path) == original
    shown += out + err
    assert PASS not in shown and "gate secret" not in shown


def test_unmask_prompts_for_the_gate_passphrase(run, world, monkeypatch):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    assert enroll_gate(run, vault_path, "gate secret")[0] == 0
    prompts = []

    def getpass(prompt):
        prompts.append(prompt)
        return "gate secret"

    monkeypatch.setattr("getpass.getpass", getpass)
    code, out, err = run("unmask", "--store", store_path, "--vault", vault_path,
                         "--all", passphrase=PASS)
    assert code == 0, err
    assert prompts == ["Gate passphrase: "]
    assert "gate secret" not in out + err


def test_reenrolling_the_gate_replaces_it(run, world):
    store_path, vault_path, _ = world
    original = dump_of(store_path)
    assert cli_mask(run, store_path, vault_path, ["host00.example"])[0] == 0
    assert enroll_gate(run, vault_path, "first gate")[0] == 0
    code, out, err = enroll_gate(run, vault_path, "second gate")
    assert code == 0, err
    assert "first gate" not in out + err and "second gate" not in out + err
    store_hash, vault_hash = file_sha256(store_path), file_sha256(vault_path)
    assert unmask_with_gate(run, store_path, vault_path, "first gate")[0] == 2
    assert file_sha256(store_path) == store_hash
    assert file_sha256(vault_path) == vault_hash
    assert unmask_with_gate(run, store_path, vault_path, "second gate")[0] == 0
    assert dump_of(store_path) == original


def test_auth_wrong_vault_passphrase_exits_2(run, world, tiny_kdf):
    store_path, vault_path, _ = world
    from credmask.vault import create_vault
    create_vault(vault_path, PASS, tiny_kdf).close()
    gate_fd = feed_fd("gate")
    code, _, err = run("auth", "enroll-passphrase", "--vault", vault_path,
                       passphrase="wrong", extra_fds=["--gate-passphrase-fd", gate_fd])
    assert code == 2


def test_auth_set_policy_without_fingerprint_exits_1(run, world, tiny_kdf):
    store_path, vault_path, _ = world
    from credmask.vault import create_vault
    create_vault(vault_path, PASS, tiny_kdf).close()
    code, _, err = run("auth", "set-policy", "both", "--vault", vault_path,
                       passphrase=PASS)
    assert code == 1
    assert "fingerprint" in err


def test_auth_enroll_fingerprint_rejects_small_template(run, world, tiny_kdf, tmp_path):
    store_path, vault_path, _ = world
    from credmask.vault import create_vault
    from credmask.minutiae import Minutia, Template
    create_vault(vault_path, PASS, tiny_kdf).close()
    small = Template(tuple(Minutia(float(i), 0.0, 0.0, "termination") for i in range(3)))
    path = tmp_path / "small.min"
    save_template(small, path)
    code, _, err = run("auth", "enroll-fingerprint", "--vault", vault_path,
                       "--template", path, passphrase=PASS)
    assert code == 1


# -- bio-eval ------------------------------------------------------------------------------

def test_bio_eval_default_synthetic_run_is_pinned(run):
    # full spec defaults: seed 7, 50 templates, 20 minutiae, 400x400 field
    code, out, _ = run("bio-eval", "--synthetic")
    assert code == 0
    assert "EER 0.0000" in out  # frozen regression value, oracle-verified


def test_bio_eval_seed_7_csv_table_is_pinned(run):
    # the whole FAR/FRR table, so a changed score shows even where the EER does not
    code, out, err = run("bio-eval", "--synthetic", "--seed", "7", "--format", "csv")
    assert code == 0
    assert err.strip() == "EER 0.0000"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1dd3ecf9b355eabe7afa4335c06c3818068cfef87eb9e76ca1f8a0264ec79bdf")


def test_bio_eval_synthetic_deterministic(run):
    args = ("bio-eval", "--synthetic", "--seed", "7", "--templates", "6",
            "--minutiae", "12", "--probes", "1", "--impostors", "2")
    code, out, _ = run(*args)
    assert code == 0
    eer_line = [ln for ln in out.splitlines() if ln.startswith("EER")][0]
    code, out2, _ = run(*args)
    assert [ln for ln in out2.splitlines() if ln.startswith("EER")][0] == eer_line


def test_bio_eval_separable_toy_dataset(run, tmp_path):
    records = generate_synthetic(4, 3, 20, probes_per_template=2,
                                 impostors_per_template=2,
                                 position_jitter=0.5, angle_jitter=0.02,
                                 deletion_rate=0.0)
    rec = records[0]
    (tmp_path / "genuine").mkdir()
    (tmp_path / "impostor").mkdir()
    save_template(rec.template, tmp_path / "enrolled.min")
    for i, t in enumerate(rec.genuine_probes):
        save_template(t, tmp_path / "genuine" / f"g{i}.min")
    for i, t in enumerate(rec.impostor_probes):
        save_template(t, tmp_path / "impostor" / f"i{i}.min")
    code, out, _ = run("bio-eval", "--dataset", tmp_path)
    assert code == 0
    assert "EER 0.0000" in out


def test_bio_eval_empty_genuine_dir_exits_1(run, tmp_path):
    (tmp_path / "genuine").mkdir()
    (tmp_path / "impostor").mkdir()
    records = generate_synthetic(4, 2, 20, probes_per_template=1,
                                 impostors_per_template=1)
    save_template(records[0].template, tmp_path / "enrolled.min")
    save_template(records[0].impostor_probes[0], tmp_path / "impostor" / "i0.min")
    code, _, err = run("bio-eval", "--dataset", tmp_path)
    assert code == 1


def test_bio_eval_csv_format(run):
    code, out, err = run("bio-eval", "--synthetic", "--seed", "3", "--templates",
                         "4", "--minutiae", "10", "--probes", "1",
                         "--impostors", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "threshold,far,frr"
    assert all(len(ln.split(",")) == 3 for ln in lines[1:])
    assert "EER" in err


def test_bio_eval_default_impostors_fit_a_few_templates(run):
    # each template's impostors are the others, so at most n_templates - 1
    for n_templates, impostors in ((2, 1), (3, 2), (5, 4), (6, 5)):
        code, out, _ = run("bio-eval", "--synthetic", "--templates", str(n_templates),
                           "--minutiae", "12", "--probes", "1")
        assert code == 0
        assert f"impostor {n_templates * impostors} comparisons" in out
    code, _, err = run("bio-eval", "--synthetic", "--templates", "3", "--minutiae", "12",
                       "--impostors", "3")
    assert code == 1
    assert "impostors_per_template" in err


def test_bio_eval_needs_exactly_one_source(run, tmp_path):
    code, _, err = run("bio-eval")
    assert code == 1
    code, _, err = run("bio-eval", "--synthetic", "--dataset", tmp_path)
    assert code == 1


# -- config file, usage ------------------------------------------------------------------------

def test_config_supplies_vault_and_lock_name(run, world, tmp_path):
    store_path, vault_path, _ = world
    config = tmp_path / "credmask.conf"
    config.write_text(f"# config\nvault={vault_path}\nlock_file=custom.lock\n")
    code, _, _ = run("mask", "--store", store_path, "--hosts", "host00.example",
                     "--init", "--kdf-memory-mib", "1", "--kdf-iterations", "1",
                     "--config", config, passphrase=PASS)
    assert code == 0
    # the custom lock name is honored; the default .parentlock is not
    (store_path.parent / "custom.lock").touch()
    code, _, _ = run("unmask", "--store", store_path, "--all", "--config", config,
                     passphrase=PASS)
    assert code == 3
    (store_path.parent / "custom.lock").unlink()
    (store_path.parent / ".parentlock").touch()
    code, _, _ = run("unmask", "--store", store_path, "--all", "--config", config,
                     passphrase=PASS)
    assert code == 0
    (store_path.parent / ".parentlock").unlink()


@pytest.mark.parametrize("line, named", [("lockfile=custom.lock", "lockfile"),
                                         ("lock_file=", "lock_file")])
def test_config_mistake_is_refused(run, world, tmp_path, line, named):
    store_path, vault_path, _ = world
    config = tmp_path / "credmask.conf"
    config.write_text(f"vault={vault_path}\n{line}\n")
    before = dump_of(store_path)
    code, _, err = run("mask", "--store", store_path, "--hosts", "host00.example",
                       "--init", "--kdf-memory-mib", "1", "--kdf-iterations", "1",
                       "--config", config, passphrase=PASS)
    assert code == 1
    assert repr(named) in err
    assert dump_of(store_path) == before
    assert not vault_path.exists()


def copy_store(source, directory):
    directory.mkdir()
    shutil.copy(source, directory / "s.sqlite")
    return directory / "s.sqlite"


def test_store_path_percent_escape_opens_that_file(run, world, tmp_path):
    store_path, vault_path, _ = world
    target = copy_store(store_path, tmp_path / "p%41")
    decoy = copy_store(store_path, tmp_path / "pA")
    decoy_dump = dump_of(decoy)
    assert cli_mask(run, target, vault_path, ["host00.example"])[0] == 0
    assert dump_of(decoy) == decoy_dump
    conn = sqlite3.connect(target)  # a plain path, no URI parsing
    hosts = {h for (h,) in conn.execute("SELECT hostname FROM moz_logins")}
    conn.close()
    assert "host01.example" in hosts and "host00.example" not in hosts


def test_store_path_with_hash_lists_and_creates_nothing(run, world, tmp_path):
    store_path, _, _ = world
    target = copy_store(store_path, tmp_path / "c#d")
    code, out, err = run("list", "--store", target)
    assert code == 0, err
    assert "host00.example" in out
    assert not (tmp_path / "c").exists()


def test_unknown_option_exits_1(run):
    code, _, err = run("list", "--no-such-flag")
    assert code == 1


def test_missing_required_option_exits_1(run):
    code, _, err = run("list")
    assert code == 1


MASK = ("mask", "--vault", "{vault}", "--hosts", "host00.example", "--init",
        "--kdf-memory-mib", "1", "--kdf-iterations", "1")
MISTAKES = {
    "unknown option": (*MASK, "--store", "{store}", "--no-such-flag"),
    "abbreviated option": (*MASK, "--stor", "{store}"),
    "missing --store": MASK,
    "bad --conflicts": ("unmask", "--store", "{store}", "--vault", "{vault}", "--all",
                        "--conflicts", "keep-both"),
    "non-integer --kdf-memory-mib": (*MASK, "--store", "{store}", "--kdf-memory-mib", "lots"),
    "auth without a subcommand": ("auth",),
}


@pytest.mark.parametrize("args", MISTAKES.values(), ids=MISTAKES.keys())
def test_command_line_mistake_exits_1_with_one_error_line(run, world, args):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host01.example"])[0] == 0
    before = dump_of(store_path), file_sha256(vault_path)
    argv = [a.format(store=store_path, vault=vault_path) for a in args]
    # the passphrase is there for a command that wrongly gets past parsing
    code, out, err = run(*argv, passphrase=None if args == ("auth",) else PASS)
    assert code == 1, err
    assert out == ""
    assert [ln for ln in err.splitlines() if ln.startswith("error: ")] == \
        err.splitlines()[:1]
    assert "Traceback" not in err
    assert (dump_of(store_path), file_sha256(vault_path)) == before


@pytest.mark.parametrize("args", [("--help",), ("unmask", "--help"),
                                  ("auth", "set-policy", "--help")])
def test_help_exits_0(run, args):
    code, out, err = run(*args)
    assert code == 0, err
    assert out.lower().startswith("usage: credmask")
    assert err == ""


def test_init_prompt_asks_again_until_the_passphrases_match(run, world, monkeypatch):
    store_path, vault_path, _ = world
    answers = iter(["first try", "typo", "final", "final"])
    prompts = []

    def getpass(prompt):
        prompts.append(prompt)
        return next(answers)

    monkeypatch.setattr("getpass.getpass", getpass)
    code, out, err = run("mask", "--store", store_path, "--vault", vault_path,
                         "--hosts", "host00.example", "--init", "--kdf-memory-mib", "1",
                         "--kdf-iterations", "1")
    assert code == 0, err
    assert prompts == ["Vault passphrase: ", "Repeat for confirmation: "] * 2
    assert "Error: The two entered values do not match." in out
    assert "final" not in out + err and "typo" not in out + err
    from credmask.vault import open_vault
    with open_vault(vault_path, "final") as vf:
        assert list(vf.entries) == ["host00.example"]


def test_eof_at_the_host_menu_exits_1_and_changes_nothing(run, world):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host01.example"])[0] == 0
    before = dump_of(store_path), file_sha256(vault_path)
    code, out, err = run("mask", "--store", store_path, "--vault", vault_path,
                         passphrase=PASS, stdin_text="")
    assert code == 1
    assert "Select hosts to mask" in out
    assert err == "error: aborted\n"
    assert (dump_of(store_path), file_sha256(vault_path)) == before


def test_ctrl_c_at_the_passphrase_prompt_exits_1_and_changes_nothing(run, world,
                                                                      monkeypatch):
    store_path, vault_path, _ = world
    assert cli_mask(run, store_path, vault_path, ["host01.example"])[0] == 0
    before = dump_of(store_path), file_sha256(vault_path)

    def getpass(prompt):
        raise KeyboardInterrupt

    monkeypatch.setattr("getpass.getpass", getpass)
    code, _, err = run("unmask", "--store", store_path, "--vault", vault_path, "--all")
    assert code == 1
    assert err == "error: aborted\n"
    assert (dump_of(store_path), file_sha256(vault_path)) == before
