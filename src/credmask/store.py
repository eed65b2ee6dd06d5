"""Login-store adapter: read and mutate the on-disk saved-logins database.

The store is a SQLite 3 file with a ``moz_logins`` table (saved logins) and
an optional ``moz_disabledHosts`` table (never-save list) that is never read
here. The adapter is column-agnostic: it introspects the schema when a
handle is opened and copies every column verbatim, interpreting only the
``hostname`` column and the primary key, which must be the rowid alias (an
``INTEGER PRIMARY KEY`` of a rowid table) so that every id is an integer.
Restores are therefore byte-exact across schema versions, and credential
ciphertexts are never parsed or decrypted. The inventories (``row_ids``, ``host_counts``,
``hostnames``) are single SELECTs that read the id or hostname column and no
other cell; a host selector reads only the rows of its hosts.

The sibling key-store file is opaque here; its integrity is attested purely
by hash (:func:`keystore_digest`) and nothing in this module ever opens it
for writing.
"""

from __future__ import annotations

import os
import sqlite3
from collections import Counter
from contextlib import contextmanager
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from cryptography.hazmat.primitives.hashes import SHA256, Hash

from .errors import (
    AlreadyExistsError,
    MissingKeyStoreError,
    NotADatabaseError,
    ReadOnlyStoreError,
    RowIdConflictError,
    RowNotFoundError,
    SchemaError,
    SchemaMismatchError,
    StoreBusyError,
)
from .wire import encode_cell_value, encode_rows

LOGINS_TABLE = "moz_logins"
DISABLED_TABLE = "moz_disabledHosts"
HOSTNAME_COLUMN = "hostname"

READ_ONLY = "ro"
READ_WRITE = "rw"

SQLITE_MAGIC = b"SQLite format 3\x00"
DUMP_VERSION = 0x01

# Browser-side lock files whose presence means the profile is in use.
DEFAULT_SIBLING_LOCKS = (".parentlock", "parent.lock")

# Firefox-3-era column set; used for fixtures only, real stores are introspected.
CANONICAL_COLUMNS = (
    "id",
    "hostname",
    "httpRealm",
    "formSubmitURL",
    "usernameField",
    "passwordField",
    "encryptedUsername",
    "encryptedPassword",
    "guid",
    "encType",
)

class LoginRow(NamedTuple):
    """One row of the logins table, every column kept verbatim.

    ``cells`` holds (column name, tagged value bytes) pairs in schema order,
    including the primary-key column; NULL is represented as None. The only
    interpreted fields are ``row_id`` and ``hostname``.
    """

    row_id: int
    hostname: str
    cells: tuple[tuple[str, bytes | None], ...]


class KeyStoreDigest(NamedTuple):
    path: str
    digest: bytes  # 32 bytes, pure function of the file contents


class StoreHandle:
    """An open connection to a login store; use :func:`open_store` to build one."""

    def __init__(self, path: Path, mode: str, conn: sqlite3.Connection,
                 schema: tuple[str, ...], pk_column: str):
        self.path = path
        self.mode = mode
        self.schema = schema
        self.pk_column = pk_column
        self._conn = conn

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "StoreHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require_writable(self) -> None:
        if self.mode != READ_WRITE:
            raise ReadOnlyStoreError(f"store opened read-only: {self.path}")

    @contextmanager
    def write_transaction(self):
        """Run the body under the database write lock; commit it whole or roll it back.

        Joins an open transaction. Raises StoreBusyError once another connection
        has held the lock past sqlite3's default 5 s busy timeout, and
        SchemaError when the logins table has a trigger: it would run inside
        the body, where it could copy the cells being masked or delete rows no
        vault holds.
        """
        self._require_writable()
        if self._conn.in_transaction:
            yield
            return
        try:
            self._conn.execute("BEGIN IMMEDIATE")
        except sqlite3.OperationalError as exc:
            raise StoreBusyError(f"database lock held on {self.path}: {exc}") from exc
        try:
            triggers = [name for name, in self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'trigger' "
                "AND tbl_name = ? COLLATE NOCASE", (LOGINS_TABLE,))]
            if triggers:
                raise SchemaError(f"{LOGINS_TABLE} has triggers, which could copy or "
                                  f"change its rows: {', '.join(map(repr, triggers))}")
            yield
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.rollback()
            raise

    # -- reads ----------------------------------------------------------------

    def read_rows(self, ids: Iterable[int] | None = None,
                  hosts: Iterable[str] | None = None) -> Iterator[tuple]:
        """Rows of the logins table as SQLite returns them, ordered by row id.

        Each row is a tuple of native values in schema order. With ``ids``, only
        the rows among them; ids not in the table are skipped. With ``hosts``,
        only the rows whose hostname is exactly one of them, ordered by row id
        per host. A hostname that is not TEXT raises SchemaError.
        """
        host_index = self.schema.index(HOSTNAME_COLUMN)
        for row in self._select(self.schema, ids, hosts):
            _require_text_hostname(row[host_index])
            yield row

    def list_logins(self, ids: Iterable[int] | None = None) -> list[LoginRow]:
        """:meth:`read_rows` with every cell in its tagged byte form; only the
        benchmark harness still reads rows this way."""
        host_index = self.schema.index(HOSTNAME_COLUMN)
        pk_index = self.schema.index(self.pk_column)
        return [
            LoginRow(row_id=int(row[pk_index]), hostname=row[host_index],
                     cells=tuple(zip(self.schema, map(encode_cell_value, row))))
            for row in self.read_rows(ids)
        ]

    def row_ids(self, ids: Iterable[int] | None = None) -> set[int]:
        """Every row id the table holds, or those of ``ids`` it holds; reads only
        the id column. The cursor is spent before ``int`` can raise for a text id."""
        return set(map(int, {i for (i,) in self._select((self.pk_column,), ids)}))

    def host_counts(self) -> dict[str, int]:
        """Rows per hostname, hostnames told apart byte for byte; reads no cells."""
        return dict(self._per_host(f'SELECT "{HOSTNAME_COLUMN}" COLLATE BINARY, count(*) '
                                   f'FROM "{LOGINS_TABLE}" GROUP BY 1'))

    def hostnames(self) -> set[str]:
        """Every hostname that has a row, told apart byte for byte; reads no cells."""
        return {h for h, in self._per_host(
            f'SELECT DISTINCT "{HOSTNAME_COLUMN}" COLLATE BINARY FROM "{LOGINS_TABLE}"')}

    def dump_canonical(self) -> bytes:
        """Deterministic serialization of the logins table.

        Equal table contents produce equal dumps, so byte-comparing two dumps
        is the round-trip oracle. Layout: version byte, then rows sorted by
        row id, each row as row_id (8-byte BE), column count (2-byte BE), and
        per cell a 4-byte BE length plus the tagged value bytes (NULL is the
        sentinel length 0xFFFFFFFF). Rows stream from :meth:`read_rows`.
        """
        out = bytearray([DUMP_VERSION])
        encode_rows(out, self.read_rows(), self.schema.index(self.pk_column),
                    [b""] * len(self.schema))
        return bytes(out)

    # -- mutations ------------------------------------------------------------

    def delete_rows(self, row_ids: Iterable[int]) -> int:
        """Delete exactly the given rows; all-or-nothing.

        Any missing id raises RowNotFoundError with this call's deletes undone;
        the ids are looked up only then.
        """
        self._require_writable()
        ids = sorted(set(int(i) for i in row_ids))
        if not ids:
            return 0
        with self.write_transaction(), self._savepoint() as undo:
            deleted = sum(self._conn.execute(
                f'DELETE FROM "{LOGINS_TABLE}" WHERE "{self.pk_column}" '
                f'IN ({", ".join("?" * len(chunk))})', chunk).rowcount
                for chunk in _chunks(ids, 500))
            if deleted != len(ids):
                undo()
                raise RowNotFoundError(set(ids) - self.row_ids(ids))
        return len(ids)

    def insert_rows(self, rows: Sequence[tuple]) -> int:
        """Insert rows with their original ids and cell values; all-or-nothing.

        A row is a tuple of native values in schema order. A duplicate id, or
        an id the table holds, raises RowIdConflictError with this call's
        inserts undone; any other constraint failure raises sqlite3's own error.
        Each statement inserts as many rows as SQLite's 999 bound variables hold.
        """
        self._require_writable()
        if not rows:
            return 0
        pk_index = self.schema.index(self.pk_column)
        ids = [row[pk_index] for row in rows]
        unique = set(ids)
        if len(unique) != len(ids):
            raise RowIdConflictError(sorted(i for i, n in Counter(ids).items() if n > 1))
        cols = ", ".join(f'"{c}"' for c in self.schema)
        marks = f'({", ".join("?" * len(self.schema))})'
        per = max(1, 999 // len(self.schema))
        with self.write_transaction(), self._savepoint() as undo:
            try:
                for chunk in _chunks(rows, per):
                    self._conn.execute(
                        f'INSERT INTO "{LOGINS_TABLE}" ({cols}) VALUES '
                        f'{", ".join([marks] * len(chunk))}', list(chain.from_iterable(chunk)))
            except sqlite3.IntegrityError:
                undo()
                taken = self.row_ids(sorted(unique))
                if not taken:
                    raise
                raise RowIdConflictError(taken) from None
        return len(rows)

    def checkpoint(self) -> bool:
        """Copy a WAL store's log into the main file and truncate it, so pages
        from before a delete stay in neither; False when a reader held it off
        past sqlite3's 5 s busy wait. Nothing to do for other journal modes."""
        busy, _, _ = self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchone()
        return not busy

    # -- helpers --------------------------------------------------------------

    @contextmanager
    def _savepoint(self):
        """Run the body in a savepoint of the open transaction: an exception
        undoes the body's statements and no others. Yields that undo, for a
        body that must read what was there before them."""
        run = self._conn.execute
        run("SAVEPOINT credmask")
        undo = partial(run, "ROLLBACK TO credmask")
        try:
            yield undo
        except BaseException:
            if self._conn.in_transaction:  # some errors end the whole transaction
                undo()
                run("RELEASE credmask")
            raise
        run("RELEASE credmask")

    def _per_host(self, query: str) -> list[tuple]:
        """The rows of a query whose first column is a hostname, each one TEXT."""
        with _utf8_cells():  # fetchall: no frame an error keeps holds the cursor
            rows = self._conn.execute(query).fetchall()
        for hostname, *_ in rows:
            _require_text_hostname(hostname)
        return rows

    def _select(self, columns: Sequence[str], ids: Iterable[int] | None = None,
                hosts: Iterable[str] | None = None):
        """The given columns of every row, of the rows in ``ids``, or of the rows
        whose hostname is exactly one of ``hosts``, in row-id order per 500 ids
        or hosts. ``columns`` holds the hostname when ``hosts`` is given.

        A TEXT cell that is not UTF-8 raises SchemaError.
        """
        cols = ", ".join(f'"{c}"' for c in columns)
        query = f'SELECT {cols} FROM "{LOGINS_TABLE}"'
        order = f' ORDER BY "{self.pk_column}"'
        with _utf8_cells():
            if ids is None and hosts is None:
                yield from self._conn.execute(query + order)
                return
            key, keys = ((HOSTNAME_COLUMN, sorted(set(hosts))) if hosts is not None
                         else (self.pk_column, sorted(set(int(i) for i in ids))))
            for chunk in _chunks(keys, 500):
                rows = self._conn.execute(
                    f'{query} WHERE "{key}" IN ({", ".join("?" * len(chunk))}){order}', chunk)
                if hosts is None:
                    yield from rows
                else:  # a COLLATE NOCASE column matches other spellings too
                    wanted, at = set(chunk), columns.index(HOSTNAME_COLUMN)
                    yield from (row for row in rows if row[at] in wanted)


# -- module-level operations --------------------------------------------------

def open_store(path: str | os.PathLike, mode: str = READ_ONLY) -> StoreHandle:
    """Open a login store, introspecting the logins table schema.

    Raises NotADatabaseError for files without the SQLite magic and
    SchemaError when the logins table (or its hostname / integer-pk column)
    is missing. Opening takes no lock.
    """
    if mode not in (READ_ONLY, READ_WRITE):
        raise ValueError(f"mode must be {READ_ONLY!r} or {READ_WRITE!r}")
    p = Path(path)
    _check_sqlite_magic(p)
    # as_uri() percent-escapes '#', '?' and '%', which a file: URI would parse
    uri = f"{p.resolve().as_uri()}?mode={'ro' if mode == READ_ONLY else 'rw'}"
    # autocommit: only write_transaction opens transactions
    conn = sqlite3.connect(uri, uri=True, isolation_level=None)
    try:
        if mode == READ_WRITE:  # zero deleted cells and freed pages, whatever the build
            conn.execute("PRAGMA secure_delete=ON")
        schema, pk = _introspect(conn)
    except Exception:
        conn.close()
        raise
    return StoreHandle(p, mode, conn, schema, pk)


def keystore_digest(path: str | os.PathLike) -> KeyStoreDigest:
    """SHA-256 over the key-store file, which is named by its resolved path;
    equal files give equal digests. cryptography's hash, not hashlib's, so a
    command maps one OpenSSL, not two."""
    p = Path(path).resolve()
    if not p.is_file():
        raise MissingKeyStoreError(f"key store not found: {p}")
    sha = Hash(SHA256())
    sha.update(p.read_bytes())
    return KeyStoreDigest(path=str(p), digest=sha.finalize())


def check_not_busy(path: str | os.PathLike,
                   sibling_locks: Sequence[str] = DEFAULT_SIBLING_LOCKS) -> None:
    """Fail with StoreBusyError if a browser lock file sits next to the store.

    This is the only busy test made before a write. A database lock held by
    another connection is found by write_transaction's BEGIN IMMEDIATE.
    """
    for name in sibling_locks:
        lock = Path(path).parent / name
        if lock.exists():
            raise StoreBusyError(f"browser lock file present: {lock}")


def init_fixture(path: str | os.PathLike, rows: Sequence[tuple] = ()) -> StoreHandle:
    """Create a fresh store with the canonical schema and the given rows,
    tuples in CANONICAL_COLUMNS order.

    The never-save table is created empty, as in a real profile.
    """
    p = Path(path)
    if p.exists():
        raise AlreadyExistsError(f"store already exists: {p}")
    p.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(p)
    try:
        with conn:
            conn.execute(
                f'CREATE TABLE "{LOGINS_TABLE}" ('
                ' "id" INTEGER PRIMARY KEY,'
                ' "hostname" TEXT NOT NULL,'
                ' "httpRealm" TEXT,'
                ' "formSubmitURL" TEXT,'
                ' "usernameField" TEXT,'
                ' "passwordField" TEXT,'
                ' "encryptedUsername" TEXT,'
                ' "encryptedPassword" TEXT,'
                ' "guid" TEXT,'
                ' "encType" INTEGER)'
            )
            conn.execute(
                f'CREATE TABLE "{DISABLED_TABLE}" ('
                ' "id" INTEGER PRIMARY KEY,'
                f' "{HOSTNAME_COLUMN}" TEXT UNIQUE NOT NULL)'
            )
    finally:
        conn.close()
    handle = open_store(p, READ_WRITE)
    try:
        handle.insert_rows(rows)
    except Exception:
        handle.close()
        raise
    return handle


def canonical_login_row(row_id: int, hostname: str, **overrides) -> tuple:
    """A row of the canonical fixture schema, native values in CANONICAL_COLUMNS
    order, with plausible defaults."""
    values = {
        "id": row_id,
        "hostname": hostname,
        "httpRealm": None,
        "formSubmitURL": f"https://{hostname}",
        "usernameField": "username",
        "passwordField": "password",
        "encryptedUsername": f"ENC-USER-{row_id}",
        "encryptedPassword": f"ENC-PASS-{row_id}",
        "guid": f"{{guid-{row_id:04d}}}",
        "encType": 1,
    }
    unknown = set(overrides) - set(values)
    if unknown:
        raise SchemaMismatchError(f"not canonical columns: {sorted(unknown)}")
    values.update(overrides)
    values["id"] = row_id
    return tuple(values[c] for c in CANONICAL_COLUMNS)


# -- internals ------------------------------------------------------------------

def _check_sqlite_magic(p: Path) -> None:
    if not p.is_file():
        raise FileNotFoundError(f"no such store: {p}")
    with p.open("rb") as fh:
        header = fh.read(len(SQLITE_MAGIC))
    if header != SQLITE_MAGIC:
        raise NotADatabaseError(f"not a SQLite database: {p}")


def _introspect(conn: sqlite3.Connection) -> tuple[tuple[str, ...], str]:
    try:
        info = conn.execute(f'PRAGMA table_info("{LOGINS_TABLE}")').fetchall()
    except sqlite3.DatabaseError as exc:
        raise NotADatabaseError(str(exc)) from exc
    if not info:
        raise SchemaError(f"table {LOGINS_TABLE} not found")
    columns = tuple(r[1] for r in info)
    if HOSTNAME_COLUMN not in columns:
        raise SchemaError(f"{LOGINS_TABLE} has no {HOSTNAME_COLUMN} column")
    pk_cols = [r for r in info if r[5]]
    # only the rowid alias holds integers alone: an INTEGER key with no index of
    # its own, which INT PRIMARY KEY and WITHOUT ROWID tables have
    if len(pk_cols) != 1 or (pk_cols[0][2] or "").upper() != "INTEGER" or any(
            r[3] == "pk" for r in conn.execute(f'PRAGMA index_list("{LOGINS_TABLE}")')):
        raise SchemaError(f"{LOGINS_TABLE} needs an INTEGER PRIMARY KEY on a rowid table")
    return columns, pk_cols[0][1]


@contextmanager
def _utf8_cells():
    """Raise SchemaError for a TEXT cell that is not UTF-8; sqlite3's own error
    quotes the cell, which may be a credential."""
    try:
        yield
    except sqlite3.OperationalError as exc:
        if not str(exc).startswith("Could not decode to UTF-8"):
            raise
        raise SchemaError(f"{LOGINS_TABLE} holds a TEXT cell that is not UTF-8") from None


def _require_text_hostname(hostname) -> None:
    if not isinstance(hostname, str):
        raise SchemaError(
            f"{HOSTNAME_COLUMN} must be TEXT, got {type(hostname).__name__}"
        )


def _chunks(items: list, size: int):
    for i in range(0, len(items), size):
        yield items[i:i + size]
