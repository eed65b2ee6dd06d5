"""Two-phase mask/unmask engine over the store adapter and the vault.

Everything mutating is split into a plan step (pure reads, produces a
validated intent) and an apply step, which gives the CLI a dry-run for free.
``apply_mask`` makes its plan itself, under the store's write lock, so the
rows it moves are the rows it read there and the store is read once.
``apply_unmask`` reads every row id but only its own hosts' rows, so neither
reads another host's hostname.

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
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import store as store_mod
from .auth import AuthProof, check_policy
from .errors import (
    AlreadyMaskedError,
    AuthFailedError,
    EmptySelectionError,
    MissingKeyStoreError,
    NothingMaskedError,
    StoreMismatchError,
    UnknownHostError,
    UnresolvedConflictError,
)
from .store import KeyStoreDigest, StoreHandle, check_not_busy, keystore_digest
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


class MaskPlan(NamedTuple):
    """Per selected host, in hostname order: the hostname, its row ids and its
    rows as the store read them, both in row-id order."""

    selections: tuple[tuple[str, tuple[int, ...], tuple[tuple, ...]], ...]
    keystore_before: KeyStoreDigest | None


class UnmaskPlan(NamedTuple):
    hosts: frozenset[str]
    conflict_policy: str
    store_moved: bool = False  # restore hosts masked from another store path


class StatusReport(NamedTuple):
    """Mode plus host inventories; ``live_hosts`` is sorted by hostname."""

    mode: str
    masked_hosts: tuple[str, ...]
    live_hosts: tuple[str, ...]
    keystore_ok: bool
    foreign_stores: tuple[str, ...] = ()  # stores other masked hosts came from


class ConflictReport(NamedTuple):
    """A vaulted host that had live rows again at unmask time."""

    hostname: str
    live_rows: int
    vaulted_rows: int
    restored_rows: int
    action: str  # the conflict policy that was applied


def plan_mask(store: StoreHandle, vault: VaultFile | None, hosts: Iterable[str],
              keystore_path: str | Path | None = None) -> MaskPlan:
    """Read the selected hosts' rows, and no others, once; group them per host.

    Every host must have at least one stored row and must not be vaulted
    already. When a key-store path is given its digest is recorded so the
    round trip can attest the file was never touched. A dry run calls this
    alone; :func:`apply_mask` calls it under the store's write lock.
    """
    wanted = sorted(set(hosts))
    if not wanted:
        raise EmptySelectionError("no hosts selected")
    already = [h for h in wanted if vault is not None and h in vault.entries]
    if already:
        raise AlreadyMaskedError(f"already masked: {already}")
    rows_by_host: dict[str, list[tuple]] = {h: [] for h in wanted}
    host_index = store.schema.index(store_mod.HOSTNAME_COLUMN)
    for row in store.read_rows(hosts=wanted):
        rows_by_host[row[host_index]].append(row)
    unknown = [h for h, rows in rows_by_host.items() if not rows]
    if unknown:
        raise UnknownHostError(f"no stored rows for: {unknown}")
    pk_index = store.schema.index(store.pk_column)
    digest = keystore_digest(keystore_path) if keystore_path is not None else None
    return MaskPlan(
        selections=tuple((h, tuple(int(row[pk_index]) for row in rows), tuple(rows))
                         for h, rows in rows_by_host.items()),
        keystore_before=digest,
    )


def apply_mask(store: StoreHandle, vault: VaultFile, hosts: Iterable[str],
               keystore_path: str | Path | None = None,
               sibling_locks: Sequence[str] = store_mod.DEFAULT_SIBLING_LOCKS) -> MaskPlan:
    """Move the selected hosts' rows into the vault: vault commit first, then
    delete; returns the plan it carried out.

    A vault holding another store's hosts raises StoreMismatchError, and a
    browser lock file named in ``sibling_locks`` next to the store raises
    StoreBusyError, both before the store is read. One store write
    transaction then holds :func:`plan_mask`, with its checks of the
    selection, the vault commit and the delete; a database lock held past
    sqlite3's 5 s busy wait raises StoreBusyError. The rows moved are the
    rows read under that lock. The order means an interruption can only ever
    duplicate rows, never lose them.
    """
    foreign = _foreign_stores(vault.entries.values(), store.path)
    if foreign:
        raise StoreMismatchError(
            f"the vault holds hosts masked from another store: {', '.join(foreign)}")
    check_not_busy(store.path, sibling_locks)

    with store.write_transaction():
        plan = plan_mask(store, vault, hosts, keystore_path)
        now = int(time.time())
        store_path = str(Path(store.path).resolve())
        for hostname, _, rows in plan.selections:  # none is vaulted: plan_mask checked
            vault.entries[hostname] = VaultEntry.from_store_rows(
                hostname, rows, now, store_path, store.schema, store.pk_column)
        if plan.keystore_before is not None and vault.keystore_record is None:
            vault.keystore_record = (plan.keystore_before.path, plan.keystore_before.digest)
        vault.commit()
        store.delete_rows(rid for _, row_ids, _ in plan.selections for rid in row_ids)
    return plan


def plan_unmask(vault: VaultFile, hosts: Iterable[str] | None = None,
                conflict_policy: str = KEEP_LIVE, store_moved: bool = False) -> UnmaskPlan:
    """Pick which vaulted hosts to restore; reads only. None means all.

    ``store_moved`` lets the apply step restore hosts masked from another
    store path, as after moving the profile.
    """
    if conflict_policy not in CONFLICT_POLICIES:
        raise ValueError(f"conflict_policy must be one of {CONFLICT_POLICIES}")
    if not vault.entries:
        raise NothingMaskedError("the vault holds no entries")
    if hosts is None:
        wanted = frozenset(vault.entries)
    else:
        wanted = frozenset(hosts)
        unknown = wanted - vault.entries.keys()
        if unknown:
            raise UnknownHostError(f"not vaulted: {sorted(unknown)}")
        if not wanted:
            raise EmptySelectionError("no hosts selected")
    return UnmaskPlan(
        hosts=wanted,
        conflict_policy=conflict_policy,
        store_moved=store_moved,
    )


def apply_unmask(plan: UnmaskPlan, proof: AuthProof | None, store: StoreHandle,
                 vault: VaultFile,
                 sibling_locks: Sequence[str] = store_mod.DEFAULT_SIBLING_LOCKS,
                 ) -> list[ConflictReport]:
    """Restore vaulted rows after the proof satisfies the vault's policy;
    returns a report per restored host that had live rows again.

    Authentication is checked before any store access; an invalid proof
    performs zero writes. A selected host masked from another store path
    raises StoreMismatchError, unless the plan says the store moved and the
    key store beside it still matches the recorded digest. A browser lock
    file named in ``sibling_locks`` next to the store then raises
    StoreBusyError. The reads, deletes and inserts run as one store write
    transaction, which commits before the vault forgets the rows, so an
    interruption never loses a credential.

    The store is read twice: every row id, and the restored hosts' live rows,
    one scan per 500 hosts. Only keep-live, which compares those rows with
    the vaulted ones, reads their cells; the other policies read their ids
    and hostnames. No other host's hostname is read. A vaulted row keeps its
    id unless keep-live must remap it or another host's live row holds it; a
    fresh id lies past every id the store or the vault holds, so it never
    takes the id of a host that is still masked. Rows are inserted in id order.
    """
    if proof is None or proof.vault_token != vault.auth_token:
        raise AuthFailedError("proof was not issued by this vault instance")
    check_policy(vault.policy, [proof])

    try:
        entries = [vault.entries[h] for h in sorted(plan.hosts)]
    except KeyError as e:
        raise UnknownHostError(f"not vaulted: {e.args[0]}") from None
    foreign = _foreign_stores(entries, store.path)
    if foreign and not plan.store_moved:
        raise StoreMismatchError(
            f"selected hosts were masked from {', '.join(foreign)}, not {store.path}; "
            "pass --store-moved to restore them here")
    if foreign and not _keystore_ok(vault, Path(store.path).resolve().parent):
        raise StoreMismatchError(
            f"the key store beside {store.path} is not the one recorded at mask time")
    check_not_busy(store.path, sibling_locks)

    policy = plan.conflict_policy
    pk_index = store.schema.index(store.pk_column)
    with store.write_transaction():
        occupied = store.row_ids()
        next_id = 1 + max([*occupied, *(e.max_row_id for e in vault.entries.values())],
                          default=0)
        live_ids: dict[str, list[int]] = {e.hostname: [] for e in entries}
        live_keys = set()
        # keep-live compares the live rows' cells; the other policies need their ids
        columns = (store.schema if policy == KEEP_LIVE
                   else (store.pk_column, store_mod.HOSTNAME_COLUMN))
        id_at = columns.index(store.pk_column)
        host_at = columns.index(store_mod.HOSTNAME_COLUMN)
        for row in store._select(columns, hosts=plan.hosts):
            live_ids[row[host_at]].append(int(row[id_at]))
            if policy == KEEP_LIVE:
                live_keys.add(_dedup_key(row[host_at], row, store))

        to_insert: list[tuple] = []
        to_delete: list[int] = []
        reports: list[ConflictReport] = []
        for entry in entries:
            live = live_ids[entry.hostname]
            if policy == OVERWRITE_LIVE:
                to_delete.extend(live)
                occupied.difference_update(live)
            # Keep-live leaves a host's newer live rows alone and brings back
            # the vaulted rows that do not duplicate them under fresh ids: the
            # one sanctioned deviation from byte-exactness.
            remap = bool(live) and policy == KEEP_LIVE
            rows = [row for row in entry.store_rows(store.schema, store.pk_column)
                    if not remap or _dedup_key(entry.hostname, row, store) not in live_keys]
            if policy == FAIL and (live or any(row[pk_index] in occupied for row in rows)):
                reports.append(ConflictReport(
                    entry.hostname, len(live), entry.row_count, 0, FAIL))
                continue
            for row in rows:
                if remap or row[pk_index] in occupied:
                    row = (*row[:pk_index], next_id, *row[pk_index + 1:])
                    next_id += 1
                to_insert.append(row)
                occupied.add(row[pk_index])
            if live:
                reports.append(ConflictReport(
                    entry.hostname, len(live), entry.row_count, len(rows), policy))

        if policy == FAIL and reports:
            raise UnresolvedConflictError(reports)
        if to_delete:
            store.delete_rows(to_delete)
        if to_insert:
            to_insert.sort(key=lambda row: row[pk_index])  # fills B-tree pages in order
            store.insert_rows(to_insert)
    for entry in entries:
        del vault.entries[entry.hostname]
    if not vault.entries:
        vault.keystore_record = None
    vault.commit()
    return reports


def status(store: StoreHandle, vault: VaultFile | None) -> StatusReport:
    """Current mode plus host inventories; masked mode is simply a non-empty vault.

    ``foreign_stores`` names the stores, other than this one, that vaulted
    hosts were masked from.
    """
    entries = vault.entries if vault is not None else {}
    return StatusReport(
        mode=MODE_MASKED if entries else MODE_NORMAL,
        masked_hosts=tuple(entries),
        live_hosts=tuple(sorted(store.hostnames())),
        keystore_ok=_keystore_ok(vault),
        foreign_stores=_foreign_stores(entries.values(), store.path),
    )


# -- internals ------------------------------------------------------------------

def _keystore_ok(vault: VaultFile | None, directory: Path | None = None) -> bool:
    """False when the vault recorded a key-store digest that the key store no
    longer has: the recorded file, or the one of that name in ``directory``."""
    if vault is None or vault.keystore_record is None:
        return True
    path, recorded = vault.keystore_record
    if directory is not None:
        path = directory / Path(path).name
    try:
        return keystore_digest(path).digest == recorded
    except MissingKeyStoreError:
        return False


def _foreign_stores(entries: Iterable[VaultEntry], store_path: Path) -> tuple[str, ...]:
    """The recorded store paths of ``entries`` that do not resolve to ``store_path``."""
    target = Path(store_path).resolve()
    recorded = dict.fromkeys(e.store_path for e in entries)
    return tuple(p for p in recorded if Path(p).resolve() != target)


def _dedup_key(hostname: str, row: tuple, store: StoreHandle):
    """What makes two rows of a host the same saved credential, storage class
    included: 1 and 1.0, or "x" and b"x", are different credentials."""
    if _DEDUP_COLUMN in store.schema:
        return (hostname, encode_cell_value(row[store.schema.index(_DEDUP_COLUMN)]))
    pk_index = store.schema.index(store.pk_column)
    return (hostname, tuple(encode_cell_value(v) for i, v in enumerate(row) if i != pk_index))
