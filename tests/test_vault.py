import fcntl
import os
import time
import tracemalloc

import pytest

from credmask import auth, engine
from credmask.cli import main
from credmask.errors import (
    AlreadyExistsError,
    BadVersionError,
    EmptySelectionError,
    TamperedVaultError,
    VaultLockedError,
    WrongSecretError,
)
from credmask.minutiae import Minutia, Template
from credmask.store import CANONICAL_COLUMNS, canonical_login_row
from credmask.vault import create_vault, encode_entries, open_vault
from credmask.wire import Reader, Writer

from conftest import make_rows
from crash_child import KILLED, run_killed
from test_vault_reference import tagged


def entry_for(host, rows):
    [(_, _, entry)] = encode_entries(rows, [host], int(time.time()),
                                     "/profile/signons.sqlite", CANONICAL_COLUMNS, "id")
    return entry


def stored(entry):
    """The entry's rows in the canonical schema order."""
    return entry.store_rows(CANONICAL_COLUMNS, "id")


def entries_for(host_counts):
    """Entries keyed by hostname, in ``host_counts`` order."""
    return {host: entry for host, _, entry in encode_entries(
        make_rows(host_counts), list(host_counts), int(time.time()),
        "/profile/signons.sqlite", CANONICAL_COLUMNS, "id")}


@pytest.fixture
def vault_path(tmp_path):
    return tmp_path / "vault.cmv"


def test_create_then_open_empty(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf):
        pass
    with open_vault(vault_path, "secret") as vf:
        assert vf.entries == {}
        assert vf.auth_records == []
        assert vf.policy == auth.POLICY_PASSPHRASE_ONLY


def test_create_refuses_existing_path(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf):
        pass
    with pytest.raises(AlreadyExistsError):
        create_vault(vault_path, "secret", tiny_kdf)


def test_create_rejects_empty_passphrase(vault_path, tiny_kdf):
    with pytest.raises(ValueError):
        create_vault(vault_path, "", tiny_kdf)


def test_entries_survive_commit_and_reopen(vault_path, tiny_kdf):
    entries = entries_for({"a.example": 2, "b.example": 1})
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.entries.update(entries)
        vf.commit()
    with open_vault(vault_path, "secret") as vf:
        assert list(vf.entries.items()) == list(entries.items())


def test_put_six_entries_lists_six(vault_path, tiny_kdf):
    order = [f"h{i}.example" for i in (3, 0, 5, 1, 4, 2)]
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.entries.update(entries_for(dict.fromkeys(order, 1)))
        vf.commit()
    with open_vault(vault_path, "secret") as vf:  # in payload order, not sorted
        assert list(vf.entries) == order


def test_take_removes_only_requested(store_factory, vault_path, tiny_kdf):
    handle = store_factory({"a.example": 1, "b.example": 2})
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        engine.apply_mask(handle, vf, ["a.example", "b.example"])
        kept = vf.entries["b.example"]
        engine.apply_unmask(engine.plan_unmask(vf, ["a.example"]), vf.open_proof, handle, vf)
    with open_vault(vault_path, "secret") as vf:
        assert list(vf.entries.items()) == [("b.example", kept)]


def test_take_empty_set(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.entries.update(entries_for({"a.example": 1}))
        with pytest.raises(EmptySelectionError):
            engine.plan_unmask(vf, [])
        assert list(vf.entries) == ["a.example"]


def test_put_then_take_round_trips_verbatim(vault_path, tiny_kdf):
    keep = entries_for({"stay.example": 2})
    move = entries_for({"go.example": 3})
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.entries.update(keep)
        without = vf._serialize()
        vf.entries.update(move)
        vf.commit()
    with open_vault(vault_path, "secret") as vf:
        assert vf.entries.pop("go.example") == move["go.example"]
        vf.commit()
    with open_vault(vault_path, "secret") as vf:  # as if it had never held go.example
        assert vf._serialize() == without


def test_wrong_passphrase_rejected(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf):
        pass
    with pytest.raises(WrongSecretError):
        open_vault(vault_path, "not-the-secret")


def test_every_byte_flip_fails_to_open(vault_path, tiny_kdf):
    # full-file sweep lives in the acceptance suite; sample positions here
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.entries.update(entries_for({"a.example": 1}))
        vf.commit()
    blob = bytearray(vault_path.read_bytes())
    for pos in range(0, len(blob), 17):
        blob[pos] ^= 0x40
        vault_path.write_bytes(blob)
        with pytest.raises((WrongSecretError, TamperedVaultError, BadVersionError)):
            open_vault(vault_path, "secret")
        blob[pos] ^= 0x40
    vault_path.write_bytes(blob)
    open_vault(vault_path, "secret").close()


def test_truncated_file_is_tampered(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf):
        pass
    vault_path.write_bytes(vault_path.read_bytes()[:20])
    with pytest.raises(TamperedVaultError):
        open_vault(vault_path, "secret")


def test_unknown_version_reported(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf):
        pass
    blob = bytearray(vault_path.read_bytes())
    blob[4:6] = (2).to_bytes(2, "big")
    vault_path.write_bytes(blob)
    with pytest.raises(BadVersionError):
        open_vault(vault_path, "secret")


def assert_unlocked(path):
    fd = os.open(f"{path}.lock", os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    finally:
        os.close(fd)


def test_failed_open_releases_the_lock(vault_path, tiny_kdf, monkeypatch):
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        good = vault_path.read_bytes()
        monkeypatch.setattr(vf, "_serialize", lambda: b"\xff" * 9)
        vf.commit()
        corrupt_payload = vault_path.read_bytes()
    bad_version = bytearray(good)
    bad_version[4:6] = (2).to_bytes(2, "big")
    cases = [
        (good[:20], "secret", TamperedVaultError),
        (b"XXXX" + good[4:], "secret", TamperedVaultError),
        (bytes(bad_version), "secret", BadVersionError),
        (good, "wrong", WrongSecretError),
        (corrupt_payload, "secret", TamperedVaultError),
    ]
    for blob, passphrase, error in cases:
        vault_path.write_bytes(blob)
        with pytest.raises(error):
            open_vault(vault_path, passphrase)
        assert_unlocked(vault_path)
    vault_path.write_bytes(good)
    open_vault(vault_path, "secret").close()


def test_open_takes_the_lock_before_reading(vault_path, tiny_kdf, monkeypatch):
    with create_vault(vault_path, "secret", tiny_kdf):
        read = []
        monkeypatch.setattr(type(vault_path), "read_bytes",
                            lambda self: read.append(self) or b"")
        with pytest.raises(VaultLockedError):
            open_vault(vault_path, "secret")
        assert read == []


def test_missing_vault_leaves_no_lock_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        open_vault(tmp_path / "absent.cmv", "secret")
    assert list(tmp_path.iterdir()) == []


def test_on_disk_layout_is_bit_exact(vault_path, tiny_kdf):
    from credmask import crypto

    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.entries.update(entries_for({"a.example": 1}))
        vf.commit()
        payload_len = len(vf._serialize())
    blob = vault_path.read_bytes()
    assert blob[0:4] == b"CMV1"
    assert int.from_bytes(blob[4:6], "big") == 1          # format version
    assert int.from_bytes(blob[6:10], "big") == tiny_kdf.memory_bytes
    assert int.from_bytes(blob[10:14], "big") == tiny_kdf.iterations
    assert blob[14] == tiny_kdf.parallelism
    assert blob[15:31] == tiny_kdf.salt                   # 16-byte salt
    nonce = blob[31:55]                                   # 24-byte nonce
    assert len(nonce) == 24
    sealed = blob[55:]
    assert len(sealed) == payload_len + 16                # trailing 16-byte tag
    key = crypto.derive_key(b"secret", tiny_kdf)
    assert len(crypto.open_sealed(key, nonce, sealed, blob[:55])) == payload_len


def test_entry_requires_rows():
    rows = [canonical_login_row(1, "b.example")]
    assert [h for h, _, _ in encode_entries(rows, ["a.example", "b.example"], 0, "p",
                                            CANONICAL_COLUMNS, "id")] == ["b.example"]


def test_fresh_nonce_every_commit(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.commit()
        first = vault_path.read_bytes()
        vf.commit()
        second = vault_path.read_bytes()
    assert first != second  # same state, different nonce and ciphertext


def test_no_plaintext_leaks_to_disk(vault_path, tiny_kdf):
    rows = [canonical_login_row(1, "leaky.example",
                                encryptedUsername="SENSITIVE-USER-BYTES",
                                encryptedPassword="SENSITIVE-PASS-BYTES")]
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.entries["leaky.example"] = entry_for("leaky.example", rows)
        vf.commit()
    blob = vault_path.read_bytes()
    for field in (b"leaky.example", b"SENSITIVE-USER-BYTES", b"SENSITIVE-PASS-BYTES",
                  b"signons"):
        assert field not in blob


@pytest.fixture
def killed_before_replace(store_factory, vault_path, tiny_kdf):
    """a.example masked, then a child masking b.example killed after writing
    and fsyncing the new vault's temp file, before it replaces the vault."""
    handle = store_factory({"a.example": 1, "b.example": 1})
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        engine.apply_mask(handle, vf, ["a.example"])
    dump = handle.dump_canonical()
    proc = run_killed("vault-commit-pre-replace", "mask", "--store", handle.path,
                      "--vault", vault_path, "--hosts", "b.example", passphrase="secret")
    assert proc.returncode == KILLED, proc.stderr
    return handle, dump


def test_crash_between_temp_write_and_rename_keeps_old_state(killed_before_replace,
                                                             vault_path):
    handle, dump = killed_before_replace
    with open_vault(vault_path, "secret") as vf:
        assert list(vf.entries) == ["a.example"]
    assert handle.dump_canonical() == dump


def test_mask_after_a_crash_before_rename_succeeds_beside_the_stray_temp(
        killed_before_replace, vault_path):
    handle, _ = killed_before_replace
    assert len(list(vault_path.parent.glob(f".{vault_path.name}.*.tmp"))) == 1
    r, w = os.pipe()
    os.write(w, b"secret\n")
    os.close(w)
    try:
        assert main(["mask", "--store", str(handle.path), "--vault", str(vault_path),
                     "--hosts", "b.example", "--passphrase-fd", str(r)]) == 0
    finally:
        os.close(r)
    with open_vault(vault_path, "secret") as vf:
        assert list(vf.entries) == ["a.example", "b.example"]
    assert list(handle.read_rows()) == []
    assert list(vault_path.parent.glob(f".{vault_path.name}.*.tmp")) == []


def test_commit_removes_only_its_own_stray_temps_and_keeps_what_it_cannot(tmp_path,
                                                                          tiny_kdf):
    vault_path = tmp_path / "v[1].cmv"  # a glob pattern, unescaped
    with create_vault(vault_path, "secret", tiny_kdf):
        pass
    stray = tmp_path / ".v[1].cmv.abc123.tmp"
    stray.write_bytes(b"sealed")
    stuck = tmp_path / ".v[1].cmv.dir.tmp"
    stuck.mkdir()  # unlink fails on a directory
    others = [tmp_path / ".v1.cmv.abc123.tmp", tmp_path / ".other.cmv.abc123.tmp"]
    for other in others:
        other.write_bytes(b"not ours")
    with open_vault(vault_path, "secret"):
        pass  # opening writes nothing
    assert stray.exists()
    with open_vault(vault_path, "secret") as vf:
        vf.commit()
    assert not stray.exists() and stuck.is_dir()
    assert all(other.read_bytes() == b"not ours" for other in others)
    with open_vault(vault_path, "secret") as vf:
        assert vf.entries == {}


def test_second_commit_wins(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.entries.update(entries_for({"a.example": 1}))
        vf.commit()
        vf.entries.update(entries_for({"b.example": 1}))
        vf.commit()
    with open_vault(vault_path, "secret") as vf:
        assert list(vf.entries) == ["a.example", "b.example"]


def test_one_open_handle_per_path(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf):
        with pytest.raises(VaultLockedError):
            open_vault(vault_path, "secret")
    open_vault(vault_path, "secret").close()


def test_auth_records_and_policy_round_trip(vault_path, tiny_kdf):
    template = Template(tuple(
        Minutia(float(i * 12), float(i * 7 % 40), 0.3 * i, "termination")
        for i in range(10)
    ), source_id="enrolled")
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        auth.enroll_passphrase(vf, "gate-secret")
        auth.enroll_fingerprint(vf, template, threshold=0.4)
        auth.set_policy(vf, auth.POLICY_BOTH)
        vf.keystore_record = ("/profile/key3.db", b"\x01" * 32)
        vf.commit()
    with open_vault(vault_path, "secret") as vf:
        kinds = sorted(r.kind for r in vf.auth_records)
        assert kinds == ["fingerprint", "passphrase"]
        assert vf.policy == auth.POLICY_BOTH
        assert vf.keystore_record == ("/profile/key3.db", b"\x01" * 32)
        fp = [r for r in vf.auth_records if r.kind == "fingerprint"][0]
        assert fp.template == template
        assert fp.threshold == 0.4
        # reopened records are bound to the new instance
        assert all(r.vault_token == vf.auth_token for r in vf.auth_records)


# -- entries stay encoded: the walk against the payload -------------------------------

def decrypted_payload(path, passphrase):
    from credmask import crypto

    blob = path.read_bytes()
    params = crypto.KdfParams(int.from_bytes(blob[6:10], "big"),
                              int.from_bytes(blob[10:14], "big"), blob[14], blob[15:31])
    key = crypto.derive_key(passphrase.encode(), params)
    return crypto.open_sealed(key, blob[31:55], blob[55:], blob[:55])


def varied_rows():
    """Rows holding NULL, blob, real, text, empty and non-ASCII cells, by host."""
    return {
        "bücher.example": [
            canonical_login_row(1, "bücher.example", httpRealm=None, encType=1.5,
                                encryptedUsername=b"\x00\xff\xfe", encryptedPassword=b"",
                                formSubmitURL=""),
            canonical_login_row(2, "bücher.example", encryptedPassword="пароль 世界",
                                guid=None, encType=-(2 ** 63)),
        ],
        "plain.example": [canonical_login_row(7, "plain.example", usernameField="ü" * 300)],
    }


def varied_entries():
    return {host: entry_for(host, rows) for host, rows in varied_rows().items()}


def test_serialize_of_an_opened_vault_is_its_payload(vault_path, tiny_kdf):
    template = Template(tuple(
        Minutia(float(i * 9), float(i * 5 % 30), 0.2 * i,
                "termination" if i % 2 else "bifurcation")
        for i in range(12)
    ), source_id="enrolled-ü")
    entries = varied_entries()
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.entries.update(entries)
        auth.enroll_passphrase(vf, "gate-secret")
        auth.enroll_fingerprint(vf, template, threshold=0.4)
        vf.keystore_record = ("/profile/key3.db", bytes(range(32)))
        vf.commit()

    def check_reopened(expected_entries):
        payload = decrypted_payload(vault_path, "secret")
        with open_vault(vault_path, "secret") as vf:
            assert vf._serialize() == payload
            assert list(vf.entries.items()) == list(expected_entries.items())
            assert [e.row_count for e in vf.entries.values()] == [
                len(stored(e)) for e in expected_entries.values()]
            assert [e.max_row_id for e in vf.entries.values()] == [
                max(row[0] for row in stored(e)) for e in vf.entries.values()]
            vf.commit()  # no entry change: the same payload again
        assert decrypted_payload(vault_path, "secret") == payload

    check_reopened(entries)
    added = entries_for({"added.example": 2})
    with open_vault(vault_path, "secret") as vf:
        vf.entries.update(added)
        vf.commit()
    check_reopened(entries | added)
    with open_vault(vault_path, "secret") as vf:
        assert vf.entries.pop("bücher.example") == entries.pop("bücher.example")
        vf.commit()
    check_reopened(entries | added)


def test_opening_holds_less_than_2_2_copies_of_the_file(vault_path, tiny_kdf):
    """The sealed body is decrypted in place and the file's bytes are freed
    before the payload is parsed: the file and the payload, no third copy."""
    rows = [canonical_login_row(i, "big.example", encryptedPassword=f"{i:0200d}")
            for i in range(1, 5001)]
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.entries["big.example"] = entry_for("big.example", rows)
        vf.commit()
    size = vault_path.stat().st_size
    assert size >= 1 << 20
    tracemalloc.start()
    try:
        with open_vault(vault_path, "secret") as vf:
            peak = tracemalloc.get_traced_memory()[1]
            assert vf.entries["big.example"].row_count == 5000
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * size


def test_rows_are_decoded_only_when_read(vault_path, tiny_kdf, monkeypatch):
    from credmask import vault as vault_mod

    rows = varied_rows()
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.entries.update(varied_entries())
        vf.commit()
    decoded = []
    walk = vault_mod._walk_rows

    def recording(buf, pos, count, cells, rows):
        if rows is not None:  # decoding: an entry's bytes begin with its hostname
            decoded.append(Reader(bytes(buf)).text())
        return walk(buf, pos, count, cells, rows)

    monkeypatch.setattr(vault_mod, "_walk_rows", recording)
    with open_vault(vault_path, "secret") as vf:
        assert [(e.hostname, e.row_count) for e in vf.entries.values()] == [
            ("bücher.example", 2), ("plain.example", 1)]
        assert decoded == []
        assert tagged(stored(vf.entries["plain.example"])) == tagged(rows["plain.example"])
        assert decoded == ["plain.example"]


def u32(n):
    return n.to_bytes(4, "big")


def entry_head(hostname=b"a.example", row_count=1, columns=("id",)):
    """An entry's fields up to and including its row count."""
    buf = bytearray()
    w = Writer(buf)
    w.prefixed(hostname)
    w.u64(0)
    w.text("/profile/signons.sqlite")
    w.u16(len(columns))
    for column in columns:
        w.text(column)
    w.u32(row_count)
    return bytes(buf)


def row_bytes(name=b"id", row_id=1, extra=()):
    """A row whose id cell is named ``name``, preceded by ``extra`` (name, text) cells."""
    buf = bytearray()
    w = Writer(buf)
    w.u64(row_id)
    w.u16(1 + len(extra))
    for extra_name, text in extra:
        w.text(extra_name)
        w.prefixed(b"t" + text.encode())
    w.prefixed(name)
    w.prefixed(b"i" + row_id.to_bytes(8, "big"))
    return bytes(buf)


def payload_of(entry=None, records=u32(0), tail=b"\x01\x00"):
    """One entry, the auth records, then policy code and key-store flag."""
    return u32(1) + (entry_head() + row_bytes() if entry is None else entry) + records + tail


MALFORMED = {
    "cell length past the end": u32(1) + entry_head() + row_bytes()[:-13] + u32(10 ** 6) + b"xy",
    "truncated row header": u32(1) + entry_head() + b"\x00" * 9,
    "bad UTF-8 in a hostname": payload_of(entry_head(hostname=b"bad-\xff.example") + row_bytes()),
    "bad UTF-8 in a cell name": payload_of(entry_head() + row_bytes(name=b"i\xc3")),
    "bad UTF-8 in a cell name after a row on the column list": payload_of(
        entry_head(row_count=2) + row_bytes() + row_bytes(name=b"i\xc3")),
    "zero-row entry": payload_of(entry_head(row_count=0)),
    "unknown record tag": payload_of(records=u32(1) + b"\x09"),
    "unknown policy code": payload_of(tail=b"\x09\x00"),
    "trailing bytes": payload_of() + b"\x00",
    "a hostname with two entries": (u32(2) + entry_head() + row_bytes(row_id=1)
                                    + entry_head() + row_bytes(row_id=2) + u32(0) + b"\x01\x00"),
}


def sealed(vault_path, tiny_kdf, monkeypatch, payload):
    """Write ``payload`` as a vault sealed under the right key, so the tag passes."""
    vault_path.unlink(missing_ok=True)
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        monkeypatch.setattr(vf, "_serialize", lambda: payload)
        vf.commit()


def test_hand_built_payload_opens(vault_path, tiny_kdf, monkeypatch):
    sealed(vault_path, tiny_kdf, monkeypatch, payload_of())
    with open_vault(vault_path, "secret") as vf:
        entry = vf.entries["a.example"]
        assert (entry.row_count, entry.schema_columns) == (1, ("id",))
        assert tagged(entry.store_rows(("id",), "id")) == [(b"i" + (1).to_bytes(8, "big"),)]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_payload_is_tampered_at_open(vault_path, tiny_kdf, monkeypatch, case):
    sealed(vault_path, tiny_kdf, monkeypatch, MALFORMED[case])
    for decode in ((), None):  # checking alone, and decoding every host as unmask --all
        with pytest.raises(TamperedVaultError):
            open_vault(vault_path, "secret", decode)
        assert_unlocked(vault_path)


def test_rows_with_the_columns_in_another_order_open_and_decode_in_store_order(
        vault_path, tiny_kdf, monkeypatch):
    row_2 = bytearray()  # its id cell before its x cell
    reordered = Writer(row_2)
    reordered.u64(2)
    reordered.u16(2)
    reordered.text("id")
    reordered.prefixed(b"i" + (2).to_bytes(8, "big"))
    reordered.text("x")
    reordered.prefixed(b"tmore")
    rows = (row_bytes(row_id=1, extra=[("x", "ü")]) + bytes(row_2)
            + row_bytes(row_id=3, extra=[("x", "")]))  # rows 1 and 3: x, then id
    sealed(vault_path, tiny_kdf, monkeypatch,
           payload_of(entry_head(row_count=3, columns=("x", "id")) + rows))
    with open_vault(vault_path, "secret") as vf:
        entry = vf.entries["a.example"]
        assert (entry.row_count, entry.max_row_id) == (3, 3)
        assert entry.store_rows(("id", "x"), "id") == [(1, "ü"), (2, "more"), (3, "")]
        assert entry.store_rows(("x", "id"), "id") == [("ü", 1), ("more", 2), ("", 3)]


def test_entry_whose_rows_lack_a_listed_column_opens_and_unmask_exits_1(
        vault_path, tiny_kdf, monkeypatch, store_factory, capsys):
    from credmask import cli

    import dump_reference
    import vault_reference

    handle = store_factory({"a.example": 2})
    handle.close()
    store_path = handle.path
    [row] = dump_reference.login_rows([canonical_login_row(900, "gone.example")],
                                      CANONICAL_COLUMNS, "id")
    row = row._replace(cells=tuple(cell for cell in row.cells if cell[0] != "guid"))
    entry = vault_reference.encode_entry("gone.example", 0, str(store_path.resolve()),
                                         CANONICAL_COLUMNS, [row])
    sealed(vault_path, tiny_kdf, monkeypatch, payload_of(entry))
    with open_vault(vault_path, "secret") as vf:
        assert vf.entries["gone.example"].schema_columns == CANONICAL_COLUMNS
    before = store_path.read_bytes(), vault_path.read_bytes()
    r, w = os.pipe()
    os.write(w, b"secret\n")
    os.close(w)
    try:
        code = cli.main(["unmask", "--store", str(store_path), "--vault", str(vault_path),
                         "--all", "--passphrase-fd", str(r)])
    finally:
        os.close(r)
    assert code == 1
    assert "!= schema" in capsys.readouterr().err  # SchemaMismatchError's message
    assert (store_path.read_bytes(), vault_path.read_bytes()) == before
