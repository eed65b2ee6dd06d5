"""Two-phase mask/unmask engine over the store adapter and the vault.

Everything mutating is split into a plan step (pure reads, produces a
validated intent) and an apply step, which makes stale intents detectable
and gives the CLI a dry-run for free.

Write ordering is the crash-safety core: masking commits the vault before
deleting store rows, and unmasking reinserts store rows before committing
the vault with entries removed. A crash at any point therefore leaves every
original row recoverable from the store and the vault combined; duplicates
left by a crash are collapsed on the next unmask under the keep-live policy.

The key-store file is never opened for writing anywhere, so restoring rows
byte-exactly is sufficient to bring auto-login back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import store as store_mod
from .auth import AuthProof, check_policy
from .errors import (
    AlreadyMaskedError,
    AuthFailedError,
    EmptySelectionError,
    MissingKeyStoreError,
    NothingMaskedError,
    StalePlanError,
    UnknownHostError,
    UnresolvedConflictError,
)
from .faults import crash_point
from .store import KeyStoreDigest, LoginRow, StoreHandle, check_not_busy, keystore_digest
from .vault import VaultEntry, VaultFile
from .wire import encode_cell_value

KEEP_LIVE = "keep-live"
OVERWRITE_LIVE = "overwrite-live"
FAIL = "fail"
CONFLICT_POLICIES = (KEEP_LIVE, OVERWRITE_LIVE, FAIL)

MODE_NORMAL = "normal"
MODE_MASKED = "masked"

# Cell used to recognize "the same saved credential" across a mask/unmask
# cycle when both a live and a vaulted copy exist.
_DEDUP_COLUMN = "encryptedUsername"


@dataclass(frozen=True)
class MaskPlan:
    store_path: str
    vault_path: str
    selections: tuple[tuple[str, tuple[int, ...]], ...]
    keystore_before: KeyStoreDigest | None


@dataclass(frozen=True)
class UnmaskPlan:
    vault_path: str
    store_path: str
    hosts: frozenset[str]
    conflict_policy: str


@dataclass(frozen=True)
class StatusReport:
    mode: str
    masked_hosts: tuple[str, ...]
    live_hosts: tuple[str, ...]
    keystore_ok: bool


@dataclass(frozen=True)
class ConflictReport:
    """A vaulted host that had live rows again at unmask time."""

    hostname: str
    live_rows: int
    vaulted_rows: int
    restored_rows: int
    action: str  # the conflict policy that was applied


def plan_mask(store: StoreHandle, vault: VaultFile | None, hosts: Iterable[str],
              keystore_path: str | Path | None = None) -> MaskPlan:
    """Resolve a host selection into exact row ids; reads only.

    Every host must have at least one stored row and must not be vaulted
    already. When a key-store path is given its digest is recorded so the
    round trip can attest the file was never touched.
    """
    wanted = sorted(set(hosts))
    if not wanted:
        raise EmptySelectionError("no hosts selected")
    vaulted = set(vault.hosts()) if vault is not None else set()
    already = [h for h in wanted if h in vaulted]
    if already:
        raise AlreadyMaskedError(f"already masked: {already}")
    by_host = store.host_row_ids()
    unknown = [h for h in wanted if h not in by_host]
    if unknown:
        raise UnknownHostError(f"no stored rows for: {unknown}")
    digest = keystore_digest(keystore_path) if keystore_path is not None else None
    return MaskPlan(
        store_path=str(store.path),
        vault_path=str(vault.path) if vault is not None else "",
        selections=tuple((h, tuple(by_host[h])) for h in wanted),
        keystore_before=digest,
    )


def apply_mask(plan: MaskPlan, store: StoreHandle, vault: VaultFile,
               force: bool = False,
               sibling_locks: Sequence[str] = store_mod.DEFAULT_SIBLING_LOCKS) -> StatusReport:
    """Move the planned rows into the vault: vault commit first, then delete.

    Unless ``force`` is set, a browser lock file next to the store raises
    StoreBusyError before anything is read. One store write transaction then
    holds the re-read of the planned rows (and only those), the vault commit
    and the delete; a database lock held past sqlite3's 5 s busy wait raises
    StoreBusyError. The order means an interruption can only ever duplicate
    rows, never lose them. Fails with StalePlanError when the store or vault
    no longer matches the plan, leaving both files untouched.
    """
    _require_same_path(plan.store_path, store.path, "store")
    _require_same_path(plan.vault_path, vault.path, "vault")
    if not force:
        check_not_busy(store.path, sibling_locks)

    with store.write_transaction():
        planned = [rid for _, row_ids in plan.selections for rid in row_ids]
        rows_by_id = {row.row_id: row for row in store.list_logins(planned)}
        vaulted = set(vault.hosts())
        entries = []
        now = int(time.time())
        for hostname, row_ids in plan.selections:
            if hostname in vaulted:
                raise StalePlanError(f"{hostname} was vaulted after planning")
            rows = []
            for rid in row_ids:
                row = rows_by_id.get(rid)
                if row is None or row.hostname != hostname:
                    raise StalePlanError(f"row {rid} of {hostname} changed after planning")
                rows.append(row)
            entries.append(VaultEntry(
                hostname=hostname,
                rows=tuple(rows),
                masked_at=now,
                store_path=str(store.path),
                schema_columns=store.schema,
            ))

        vault.put_entries(entries)
        if plan.keystore_before is not None and vault.keystore_record is None:
            vault.keystore_record = (plan.keystore_before.path, plan.keystore_before.digest)
        vault.commit()
        crash_point("after-vault-commit")
        store.delete_rows(planned)
    crash_point("after-store-delete")
    return status(store, vault)


def plan_unmask(vault: VaultFile, hosts: Iterable[str] | None = None,
                conflict_policy: str = KEEP_LIVE,
                store_path: str | Path = "") -> UnmaskPlan:
    """Pick which vaulted hosts to restore; reads only. None means all."""
    if conflict_policy not in CONFLICT_POLICIES:
        raise ValueError(f"conflict_policy must be one of {CONFLICT_POLICIES}")
    vaulted = vault.hosts()
    if not vaulted:
        raise NothingMaskedError("the vault holds no entries")
    if hosts is None:
        wanted = frozenset(vaulted)
    else:
        wanted = frozenset(hosts)
        unknown = wanted - set(vaulted)
        if unknown:
            raise UnknownHostError(f"not vaulted: {sorted(unknown)}")
        if not wanted:
            raise EmptySelectionError("no hosts selected")
    return UnmaskPlan(
        vault_path=str(vault.path),
        store_path=str(store_path),
        hosts=wanted,
        conflict_policy=conflict_policy,
    )


def apply_unmask(plan: UnmaskPlan, proof: AuthProof | None, store: StoreHandle,
                 vault: VaultFile, force: bool = False,
                 sibling_locks: Sequence[str] = store_mod.DEFAULT_SIBLING_LOCKS,
                 ) -> tuple[StatusReport, list[ConflictReport]]:
    """Restore vaulted rows after the proof satisfies the vault's policy.

    Authentication is checked before any store access; an invalid proof
    performs zero writes. Unless ``force`` is set, a browser lock file next to
    the store then raises StoreBusyError. The read, deletes and inserts run as
    one store write transaction, which commits before the vault forgets the
    rows, so an interruption never loses a credential. Cells are read only
    for the live rows of hosts that keep-live must compare.
    """
    if proof is None or proof.vault_token != vault.auth_token:
        raise AuthFailedError("proof was not issued by this vault instance")
    check_policy(vault.policy, [proof])
    _require_same_path(plan.vault_path, vault.path, "vault")
    _require_same_path(plan.store_path, store.path, "store")

    entries = [vault.get_entry(h) for h in sorted(plan.hosts)]
    if not force:
        check_not_busy(store.path, sibling_locks)

    with store.write_transaction():
        live_ids = store.host_row_ids()
        occupied = {rid for ids in live_ids.values() for rid in ids}
        # past every live and every vaulted id, so a fresh id never collides
        vaulted_ids = [row.row_id for e in entries for row in e.rows]
        next_id = 1 + max([*occupied, *vaulted_ids], default=0)
        compared: dict[str, list[LoginRow]] = {}
        if plan.conflict_policy == KEEP_LIVE:
            ids = [rid for e in entries for rid in live_ids.get(e.hostname, ())]
            for row in store.list_logins(ids) if ids else ():
                compared.setdefault(row.hostname, []).append(row)

        to_insert: list[LoginRow] = []
        to_delete: list[int] = []
        reports: list[ConflictReport] = []

        for entry in entries:
            live = live_ids.get(entry.hostname, [])
            if live and plan.conflict_policy == FAIL:
                reports.append(ConflictReport(
                    entry.hostname, len(live), len(entry.rows), 0, FAIL))
                continue

            if live and plan.conflict_policy == KEEP_LIVE:
                # Newer live rows win; vaulted rows that do not duplicate a live
                # credential come back under fresh row ids (the one sanctioned
                # deviation from byte-exactness, and only under an actual conflict).
                live_keys = {_dedup_key(row, store) for row in compared[entry.hostname]}
                kept = [row for row in entry.rows if _dedup_key(row, store) not in live_keys]
                for row in kept:
                    row, next_id = _with_fresh_id(row, next_id, store)
                    to_insert.append(row)
                reports.append(ConflictReport(
                    entry.hostname, len(live), len(entry.rows), len(kept), KEEP_LIVE))
                continue

            # Restore verbatim, after overwrite-live drops the host's live rows.
            # Only a row id another host took is remapped; under fail that is a
            # conflict, and otherwise it is never reported as one.
            to_delete.extend(live)
            occupied.difference_update(live)
            for row in entry.rows:
                if row.row_id in occupied:
                    if plan.conflict_policy == FAIL:
                        reports.append(ConflictReport(
                            entry.hostname, 0, len(entry.rows), 0, FAIL))
                        break
                    row, next_id = _with_fresh_id(row, next_id, store)
                to_insert.append(row)
                occupied.add(row.row_id)
            if live:
                reports.append(ConflictReport(
                    entry.hostname, len(live), len(entry.rows), len(entry.rows),
                    OVERWRITE_LIVE))

        if plan.conflict_policy == FAIL and reports:
            raise UnresolvedConflictError(reports)
        if to_delete:
            store.delete_rows(to_delete)
        if to_insert:
            store.insert_rows(to_insert)
    crash_point("after-store-insert")
    vault.take_entries(plan.hosts)
    if not vault.entries:
        vault.keystore_record = None
    vault.commit()
    return status(store, vault), reports


def status(store: StoreHandle, vault: VaultFile | None) -> StatusReport:
    """Current mode plus host inventories; masked mode is simply a non-empty vault."""
    masked = tuple(vault.hosts()) if vault is not None else ()
    keystore_ok = True
    if vault is not None and vault.keystore_record is not None:
        path, recorded = vault.keystore_record
        try:
            keystore_ok = keystore_digest(path).digest == recorded
        except MissingKeyStoreError:
            keystore_ok = False
    return StatusReport(
        mode=MODE_MASKED if masked else MODE_NORMAL,
        masked_hosts=masked,
        live_hosts=tuple(store.host_row_ids()),
        keystore_ok=keystore_ok,
    )


# -- internals ------------------------------------------------------------------

def _require_same_path(planned: str, actual: Path, label: str) -> None:
    if planned and Path(planned).resolve() != Path(actual).resolve():
        raise StalePlanError(f"plan was made for a different {label}: {planned}")


def _dedup_key(row: LoginRow, store: StoreHandle):
    if _DEDUP_COLUMN in store.schema:
        return (row.hostname, row.cell(_DEDUP_COLUMN))
    non_pk = tuple(v for name, v in row.cells if name != store.pk_column)
    return (row.hostname, non_pk)


def _with_fresh_id(row: LoginRow, next_id: int, store: StoreHandle) -> tuple[LoginRow, int]:
    cells = tuple(
        (name, encode_cell_value(next_id) if name == store.pk_column else value)
        for name, value in row.cells
    )
    return LoginRow(row_id=next_id, hostname=row.hostname, cells=cells), next_id + 1
