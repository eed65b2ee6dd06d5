import fcntl
import os
import time

import pytest

from credmask import auth
from credmask.errors import (
    AlreadyExistsError,
    BadVersionError,
    DuplicateHostError,
    TamperedVaultError,
    UnknownHostError,
    VaultLockedError,
    WrongSecretError,
)
from credmask.faults import CRASH_ENV, SimulatedCrash
from credmask.minutiae import Minutia, Template
from credmask.store import canonical_login_row
from credmask.vault import VaultEntry, create_vault, open_vault

from conftest import make_rows


def entry_for(host, rows):
    return VaultEntry(
        hostname=host,
        rows=tuple(rows),
        masked_at=int(time.time()),
        store_path="/profile/signons.sqlite",
        schema_columns=tuple(rows[0].column_names()),
    )


def entries_for(host_counts):
    rows = make_rows(host_counts)
    by_host = {}
    for row in rows:
        by_host.setdefault(row.hostname, []).append(row)
    return [entry_for(h, rs) for h, rs in by_host.items()]


@pytest.fixture
def vault_path(tmp_path):
    return tmp_path / "vault.cmv"


def test_create_then_open_empty(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf):
        pass
    with open_vault(vault_path, "secret") as vf:
        assert vf.entries == []
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
        vf.put_entries(entries)
        vf.commit()
    with open_vault(vault_path, "secret") as vf:
        assert vf.entries == entries


def test_put_six_entries_lists_six(vault_path, tiny_kdf):
    entries = entries_for({f"h{i}.example": 1 for i in range(6)})
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.put_entries(entries)
        assert len(vf.hosts()) == 6


def test_put_nothing_changes_nothing(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.put_entries([])
        assert vf.entries == []


def test_put_duplicate_host_rejected(vault_path, tiny_kdf):
    entries = entries_for({"a.example": 1})
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.put_entries(entries)
        with pytest.raises(DuplicateHostError):
            vf.put_entries(entries_for({"a.example": 1}))


def test_take_removes_only_requested(vault_path, tiny_kdf):
    entries = entries_for({"a.example": 1, "b.example": 1})
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.put_entries(entries)
        taken = vf.take_entries({"a.example"})
        assert [e.hostname for e in taken] == ["a.example"]
        assert vf.hosts() == ["b.example"]


def test_take_empty_set(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.put_entries(entries_for({"a.example": 1}))
        assert vf.take_entries(set()) == []
        assert vf.hosts() == ["a.example"]


def test_take_unknown_host(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        with pytest.raises(UnknownHostError):
            vf.take_entries({"nope.example"})


def test_put_then_take_round_trips_verbatim(vault_path, tiny_kdf):
    keep = entries_for({"stay.example": 2})
    move = entries_for({"go.example": 3})
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.put_entries(keep)
        vf.put_entries(move)
        taken = vf.take_entries({"go.example"})
        assert taken == move
        assert vf.entries == keep


def test_wrong_passphrase_rejected(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf):
        pass
    with pytest.raises(WrongSecretError):
        open_vault(vault_path, "not-the-secret")


def test_every_byte_flip_fails_to_open(vault_path, tiny_kdf):
    # full-file sweep lives in the acceptance suite; sample positions here
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.put_entries(entries_for({"a.example": 1}))
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
        vf.put_entries(entries_for({"a.example": 1}))
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


def test_entry_requires_rows_of_its_own_host():
    rows = make_rows({"a.example": 1})
    with pytest.raises(ValueError):
        VaultEntry("a.example", (), 0, "p", ("id",))
    with pytest.raises(ValueError):
        VaultEntry("b.example", tuple(rows), 0, "p", rows[0].column_names())


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
        vf.put_entries([entry_for("leaky.example", rows)])
        vf.commit()
    blob = vault_path.read_bytes()
    for field in (b"leaky.example", b"SENSITIVE-USER-BYTES", b"SENSITIVE-PASS-BYTES",
                  b"signons"):
        assert field not in blob


def test_crash_between_temp_write_and_rename_keeps_old_state(
        vault_path, tiny_kdf, monkeypatch):
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.put_entries(entries_for({"a.example": 1}))
        vf.commit()
        vf.put_entries(entries_for({"b.example": 1}))
        monkeypatch.setenv(CRASH_ENV, "vault-commit-pre-replace")
        with pytest.raises(SimulatedCrash):
            vf.commit()
        monkeypatch.delenv(CRASH_ENV)
    with open_vault(vault_path, "secret") as vf:
        assert vf.hosts() == ["a.example"]


def test_second_commit_wins(vault_path, tiny_kdf):
    with create_vault(vault_path, "secret", tiny_kdf) as vf:
        vf.put_entries(entries_for({"a.example": 1}))
        vf.commit()
        vf.put_entries(entries_for({"b.example": 1}))
        vf.commit()
    with open_vault(vault_path, "secret") as vf:
        assert vf.hosts() == ["a.example", "b.example"]


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
        auth.enroll_passphrase(vf, "gate-secret", tiny_kdf)
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
