"""Encrypted vault holding masked rows, auth records, and restore metadata.

On-disk layout, all integers big-endian:

    magic "CMV1" (4) | format_version u16 | kdf memory-cost u32 (bytes) |
    kdf iterations u32 | kdf parallelism u8 | salt (16) | nonce (24) |
    AEAD ciphertext of the serialized payload | tag (16, trailing)

The payload (laid out in the README) writes every row with
:func:`wire.encode_rows`, the encoder of the store's canonical dump, so a
vaulted row restores byte-exactly. A vault holds one entry per hostname, keyed
by it in payload order; a payload that repeats a hostname does not open. Every
entry is held encoded, as its slice of the payload: ``mask`` encodes the rows
it reads from SQLite straight into a new entry's bytes, and opening checks the
whole payload and keeps each entry's slice. One walker checks each row against
its entry's column list, and rows whose names come in another order are still
read; a row that repeats the byte layout of the row before it (the same names
and value lengths) is checked with one unpack, the format unchanged. Listing
hosts and counting rows decode nothing, and a commit copies the slices.
``unmask`` names the hosts it restores when it opens the vault, and the same
walk that checks their rows decodes them into the values it inserts.
Every commit re-encrypts the whole state under a fresh nonce and replaces the
file atomically (write temp, fsync, rename); a crash mid-commit leaves the
previous version intact, and the next commit removes the temp file it left.
The header is bound as associated data, so any ciphertext or header flip fails
the tag.

The stated threat holds the machine's root credentials, so file permissions
protect nothing; only the passphrase-derived key does.
"""

from __future__ import annotations

import errno
import fcntl
import glob
import operator
import os
import struct
import tempfile
from pathlib import Path
from typing import Callable, Container, Iterable, Sequence

from . import auth, crypto
from .errors import (
    AlreadyExistsError,
    BadVersionError,
    SchemaMismatchError,
    TamperedVaultError,
    VaultLockedError,
    WrongSecretError,
)
from .wire import NULL_LENGTH, Reader, TruncatedError, Writer, decode_cell_value, encode_rows

MAGIC = b"CMV1"
FORMAT_VERSION = 1

_HEADER = struct.Struct(">4sHIIB16s")  # magic, version, mem, iters, parallelism, salt
_U32 = struct.Struct(">I")
_ROW_HEAD = struct.Struct(">qH")  # row id, cell count
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_MIN_FILE = _HEADER.size + crypto.NONCE_LEN + crypto.TAG_LEN

_RECORD_PASSPHRASE = 1
_RECORD_FINGERPRINT = 2
_POLICY_CODE = {
    auth.POLICY_PASSPHRASE_ONLY: 1,
    auth.POLICY_FINGERPRINT_ONLY: 2,
    auth.POLICY_BOTH: 3,
}
_CODE_POLICY = {v: k for k, v in _POLICY_CODE.items()}
# minutiae.TERMINATION and BIFURCATION; only a fingerprint record needs minutiae
_KIND_CODE = {"termination": 1, "bifurcation": 2}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


class VaultEntry:
    """The masked rows of one hostname plus what is needed to restore them.

    An entry holds its payload bytes, whether it was built from store rows or
    read from a vault file: ``row_count``, ``max_row_id`` and the other fields
    need no decoding, and a commit copies the bytes. Its rows are decoded when
    the vault opens, for the hosts named then, or else in :meth:`store_rows`.
    Treat it as a value.
    """

    __slots__ = ("hostname", "masked_at", "store_path", "schema_columns",
                 "row_count", "max_row_id", "_encoded", "_rows_at", "_rows")

    @classmethod
    def from_store_rows(cls, hostname: str, rows: Sequence[tuple], masked_at: int,
                        store_path: str, schema_columns: tuple[str, ...],
                        pk_column: str) -> "VaultEntry":
        """An entry of rows as the store reads them, tuples of native values in
        ``schema_columns`` order, encoded straight into payload bytes."""
        if not rows:
            raise ValueError("a vault entry must hold at least one row")
        columns = tuple(schema_columns)
        pk_index = columns.index(pk_column)
        out = bytearray()
        w = Writer(out)
        w.text(hostname)
        w.u64(masked_at)
        w.text(store_path)
        w.u16(len(columns))
        for col in columns:
            w.text(col)
        w.u32(len(rows))
        rows_at = len(out)
        encode_rows(out, rows, pk_index, _name_fields(columns))
        return cls._from_payload(hostname, masked_at, store_path, columns, len(rows),
                                 max(row[pk_index] for row in rows),
                                 memoryview(bytes(out)), rows_at)

    @classmethod
    def _from_payload(cls, hostname: str, masked_at: int, store_path: str,
                      schema_columns: tuple[str, ...], row_count: int, max_row_id: int,
                      encoded: memoryview, rows_at: int,
                      rows: list | None = None) -> "VaultEntry":
        entry = cls.__new__(cls)
        entry.hostname = hostname
        entry.masked_at = masked_at  # UTC seconds
        entry.store_path = store_path
        entry.schema_columns = schema_columns
        entry.row_count = row_count
        entry.max_row_id = max_row_id
        entry._encoded = encoded  # the entry's payload bytes
        entry._rows_at = rows_at  # offset of its first row in _encoded
        entry._rows = rows  # as _walk_rows decoded them at open, or None
        return entry

    def store_rows(self, columns: tuple[str, ...], pk_column: str) -> list[tuple]:
        """The rows as tuples of native values in ``columns`` order, ready to insert.

        SchemaMismatchError when a row's cells are not exactly ``columns`` or
        its ``pk_column`` cell is not its row id; ValueError for a cell that is
        not a well-formed tagged value. The first row whose cells fail raises,
        and a wrong ``pk_column`` cell only once every row was laid out.
        """
        rows = self._rows
        if rows is None:  # not decoded at open
            rows = []
            _walk_rows(self._encoded.tobytes(), self._rows_at, self.row_count,
                       _cells(self.schema_columns), rows)
        pk_index = columns.index(pk_column)
        out, ids = [], []
        for run in rows:
            if isinstance(run, ValueError):  # a cell that does not decode
                raise run
            names, run_ids, values = run
            names = self.schema_columns if names is None else names
            if not run_ids:
                continue
            if names != columns and sorted(names) != sorted(columns):
                raise SchemaMismatchError(
                    f"vaulted row {run_ids[0]} of {self.hostname}: columns {sorted(names)} "
                    f"!= schema {sorted(columns)}")
            # a tuple per row, a part row at the end dropped; columns are never ()
            run = zip(*[iter(values)] * len(names))
            out.extend(run if names == columns else
                       map(operator.itemgetter(*map(names.index, columns)), run))
            ids += run_ids
        if list(map(operator.itemgetter(pk_index), out)) != ids:
            wrong_id = next(i for i, row in zip(ids, out) if row[pk_index] != i)
            raise SchemaMismatchError(f"row_id {wrong_id} disagrees with its {pk_column} cell")
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, VaultEntry):
            return NotImplemented
        return self._encoded == other._encoded  # every field is in these bytes

    def __repr__(self) -> str:
        return (f"VaultEntry(hostname={self.hostname!r}, rows={self.row_count}, "
                f"masked_at={self.masked_at}, store_path={self.store_path!r})")


class VaultFile:
    """Decrypted in-memory view of a vault; durably saved only by commit().

    ``entries`` maps each vaulted hostname to its entry, in payload order;
    change it in place and commit. Confined to one thread of control; at most
    one open handle per path per process, enforced by an advisory lock on a
    sidecar ``.lock`` file.
    """

    def __init__(self, path: Path, kdf_params: crypto.KdfParams, key: bytes,
                 lock_fd: int):
        self.path = path
        self.kdf_params = kdf_params
        self.entries: dict[str, VaultEntry] = {}
        self.auth_records: list[auth.AuthRecord] = []
        self.policy: str = auth.POLICY_PASSPHRASE_ONLY
        self.keystore_record: tuple[str, bytes] | None = None
        # ephemeral identity binding proofs to this open instance
        self.auth_token: bytes = os.urandom(16)
        # the key opened the vault, so its passphrase is proven
        self.open_proof = auth.AuthProof(kinds=frozenset({auth.KIND_PASSPHRASE}),
                                         vault_token=self.auth_token)
        self._key = key
        self._lock_fd = lock_fd
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        _release_lock(self._lock_fd)

    def __enter__(self) -> "VaultFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- durability --------------------------------------------------------------

    def commit(self) -> None:
        """Re-encrypt the full state under a fresh nonce and atomically replace
        the file; on any failure the previous version remains intact.

        Then remove the temp files an interrupted commit left beside the vault:
        each is sealed and may hold rows restored since. The lock is held, so
        none belongs to a commit in flight; one that cannot be removed stays.
        """
        if self._closed:
            raise ValueError("vault handle is closed")
        nonce = os.urandom(crypto.NONCE_LEN)
        header = _HEADER.pack(
            MAGIC, FORMAT_VERSION, self.kdf_params.memory_bytes,
            self.kdf_params.iterations, self.kdf_params.parallelism,
            self.kdf_params.salt,
        )
        sealed = crypto.seal(self._key, nonce, self._serialize(), header + nonce)
        _atomic_write(self.path, header + nonce, sealed)
        for stray in self.path.parent.glob(f".{glob.escape(self.path.name)}.*.tmp"):
            try:
                stray.unlink()
            except OSError:
                pass

    # -- serialization -------------------------------------------------------------

    def _serialize(self) -> bytearray:
        out = bytearray()
        w = Writer(out)
        w.u32(len(self.entries))
        for entry in self.entries.values():
            w.raw(entry._encoded)
        w.u32(len(self.auth_records))
        for record in self.auth_records:
            if record.kind == auth.KIND_PASSPHRASE:
                w.u8(_RECORD_PASSPHRASE)
                w.raw(record.kdf.salt)
                w.raw(record.verifier)
                w.u32(record.kdf.memory_bytes)
                w.u32(record.kdf.iterations)
                w.u8(record.kdf.parallelism)
            else:
                w.u8(_RECORD_FINGERPRINT)
                w.f64(record.threshold)
                w.text(record.template.source_id)
                w.u32(len(record.template))
                for m in record.template.minutiae:
                    w.f64(m.x)
                    w.f64(m.y)
                    w.f64(m.theta)
                    w.u8(_KIND_CODE[m.kind])
        w.u8(_POLICY_CODE[self.policy])
        if self.keystore_record is None:
            w.u8(0)
        else:
            w.u8(1)
            w.text(self.keystore_record[0])
            w.raw(self.keystore_record[1])
        return out

    def _deserialize(self, payload: bytes, decode: Container[str] | None = ()) -> None:
        """Check the whole payload, decoding the rows of the entries of the
        hostnames in ``decode`` (None: of every entry) and all else but rows.

        Every length, every text field and every record is checked here, so
        the rows decoded later from an entry's slice need no checks. An entry
        with a cell that does not decode is left to :meth:`VaultEntry.store_rows`
        to refuse, as are rows whose cells are not those of the store.
        """
        r = Reader(payload)
        view = memoryview(payload)
        block = b""  # the column list last parsed, as bytes
        entries = []
        for _ in range(r.u32()):
            start = r.pos
            hostname = r.text()
            masked_at = r.u64()
            store_path = r.text()
            at = r.pos
            if not (block and payload.startswith(block, at)):  # mostly the last one again
                columns = tuple(r.text() for _ in range(r.u16()))
                block, cells = payload[at:r.pos], _cells(columns)
            r.pos = at + len(block)
            count = r.u32()
            if not count:
                raise ValueError(f"vault entry {hostname!r} holds no rows")
            rows_at = r.pos
            rows = [] if decode is None or hostname in decode else None
            r.pos, max_row_id = _walk_rows(payload, rows_at, count, cells, rows)
            entries.append(VaultEntry._from_payload(
                hostname, masked_at, store_path, columns, count, max_row_id,
                view[start:r.pos], rows_at - start, rows))
        records: list[auth.AuthRecord] = []
        for _ in range(r.u32()):
            tag = r.u8()
            if tag == _RECORD_PASSPHRASE:
                salt = r.raw(crypto.SALT_LEN)
                verifier = r.raw(crypto.KEY_LEN)
                kdf = crypto.KdfParams(r.u32(), r.u32(), r.u8(), salt)
                records.append(auth.PassphraseRecord(kdf=kdf, verifier=verifier))
            elif tag == _RECORD_FINGERPRINT:
                from .minutiae import Minutia, Template
                threshold = r.f64()
                source_id = r.text()
                minutiae = tuple(
                    Minutia(r.f64(), r.f64(), r.f64(), _CODE_KIND[r.u8()])
                    for _ in range(r.u32())
                )
                records.append(auth.FingerprintRecord(
                    template=Template(minutiae=minutiae, source_id=source_id),
                    threshold=threshold,
                ))
            else:
                raise ValueError(f"unknown auth record tag {tag}")
        policy = _CODE_POLICY.get(r.u8())
        if policy is None:
            raise ValueError("unknown policy code")
        keystore = None
        if r.u8():
            keystore = (r.text(), r.raw(32))
        if not r.exhausted():
            raise ValueError("trailing bytes after payload")
        by_host = {e.hostname: e for e in entries}
        if len(by_host) != len(entries):
            raise ValueError("a hostname has more than one vault entry")
        self.entries = by_host
        self.auth_records = records
        for record in records:
            record.vault_token = self.auth_token
        self.policy = policy
        self.keystore_record = keystore


def _name_fields(columns: tuple[str, ...]) -> list[bytes]:
    """Each column's name field as a row's cell carries it: u32 length, UTF-8."""
    return [_U32.pack(len(name)) + name for name in map(str.encode, columns)]


class _Cells(list):
    """Per column, as a row on the columns holds its cell: the unpacker of the
    name field and value length, the name field, and the width of both. Also
    the whole-row layout to try next and the credit left for layouts, kept
    from entry to entry, so that rows which seldom repeat stop paying for
    layouts after a few tries however short their entries; rows that repeat
    after that are walked cell by cell."""

    __slots__ = ("last", "credit")


def _cells(columns: tuple[str, ...]) -> _Cells:
    cells = _Cells((struct.Struct(f">{len(f)}sI").unpack_from, f, len(f) + 4)
                   for f in _name_fields(columns))
    cells.last, cells.credit = (None, None, 0), 8
    return cells


def _layout(cells: _Cells, buf: bytes, pos: int) -> tuple[Callable, tuple, int]:
    """The layout of the row on ``cells`` whose cells start at ``pos``: the
    unpacker of a whole row like it, what that gives after the row id, and the
    row's width."""
    fmt, expected = [">qH"], [len(cells)]
    for _, f, step in cells:
        (n,) = _U32.unpack_from(buf, pos + step - 4)
        fmt.append(f"{len(f)}sI{0 if n == NULL_LENGTH else n}x")
        expected += f, n
        pos += step if n == NULL_LENGTH else step + n
    row = struct.Struct("".join(fmt))
    return row.unpack_from, tuple(expected), row.size


def _walk_rows(buf: bytes, pos: int, count: int, cells: _Cells,
               rows: list | None) -> tuple[int, int]:
    """Check ``count`` encoded rows from ``pos``; return the offset past them
    and the highest row id among them. Unless ``rows`` is None, also decode
    them onto it in runs of rows with the same cell names: (the names, None
    for ``cells``; the ids of the rows decoded whole; their native values end
    to end, then perhaps part of a row's that was not). A cell that is not a
    well-formed tagged value ends the runs with its ValueError, and the rows
    from its row on are only checked.

    Each row is row id i64, cell count u16, then per cell its name (u32
    length, UTF-8) and its value (u32 length or NULL_LENGTH, bytes). A row on
    ``cells`` costs one unpack per cell; any other row is walked cell by cell.
    When only checking, a row that repeats the value lengths of the row on
    ``cells`` before it gives ``cells`` a whole-row layout, and a later row
    that fits it costs one unpack. Layouts are tried and built only while
    the rows that fit them pay for the failed tries and the builds, so rows
    that seldom repeat cost what they did before. A length past the payload
    fails the next unpack, or the last check.
    """
    head, u32 = _ROW_HEAD.unpack_from, _U32.unpack_from
    i64, f64 = _I64.unpack_from, _F64.unpack_from
    max_row_id = -1 << 63  # the least i64

    def off_layout(pos: int, n_cells: int) -> tuple[int, tuple[str, ...], list]:
        """A row not on ``cells``: the offset past it, its names and its
        values' slices of ``buf``, None for NULL."""
        names, values = [], []
        for _ in range(n_cells):
            (n,) = u32(buf, pos)
            names.append(buf[pos + 4:pos + 4 + n].decode("utf-8"))
            pos += 4 + n
            (n,) = u32(buf, pos)
            values.append(None if n == NULL_LENGTH else slice(pos + 4, pos + 4 + n))
            pos += 4 if n == NULL_LENGTH else 4 + n
        return pos, tuple(names), values

    if rows is None:
        row, expected, size = cells.last
        credit = cells.credit  # rows fitted, less failed tries, less 3 per layout built
        prev_at = prev_end = -1  # the cells of the last row checked cell by cell
        for _ in range(count):
            if row is not None and credit > 0:
                try:
                    got = row(buf, pos)
                    if got[1:] == expected:
                        if got[0] > max_row_id:
                            max_row_id = got[0]
                        pos += size
                        credit += 1
                        continue
                except struct.error:  # a shorter row near the end: the cells tell
                    pass
                credit -= 1
            row_id, n_cells = head(buf, pos)
            if row_id > max_row_id:
                max_row_id = row_id
            row_at = pos = pos + 10
            if n_cells == len(cells):
                try:
                    for cell, field, step in cells:
                        got, n = cell(buf, pos)
                        if got != field:
                            break
                        pos += step if n == NULL_LENGTH else step + n
                    else:
                        if (credit > 0 and prev_end == row_at - 10
                                and pos - row_at == prev_end - prev_at):
                            credit -= 3  # about what a layout's build and check cost
                            layout = _layout(cells, buf, row_at)
                            if layout[0](buf, prev_at - 10)[1:] == layout[1]:  # a repeat
                                row, expected, size = layout
                        prev_at, prev_end = row_at, pos
                        continue
                except struct.error:  # a shorter cell than its column's, near the end
                    pass
            pos = off_layout(row_at, n_cells)[0]
        cells.last, cells.credit = (row, expected, size), credit
    else:
        ids, values = [], []  # the run of rows on cells
        rows.append((None, ids, values))
        add = values.append
        try:
            for k in range(count):
                row_id, n_cells = head(buf, pos)
                if row_id > max_row_id:
                    max_row_id = row_id
                row_at = pos = pos + 10
                if n_cells == len(cells):
                    try:
                        for cell, field, step in cells:
                            got, n = cell(buf, pos)
                            if got != field:
                                break
                            pos += step
                            if n == NULL_LENGTH:
                                add(None)
                                continue
                            end = pos + n
                            tag = buf[pos] if n else None
                            if tag == 0x74:  # t: UTF-8 text
                                add(buf[pos + 1:end].decode())
                            elif tag == 0x69 and n == 9:  # i: 64-bit integer
                                add(i64(buf, pos + 1)[0])
                            elif tag == 0x66 and n == 9:  # f: double
                                add(f64(buf, pos + 1)[0])
                            else:  # b: blob; decode_cell_value refuses a malformed cell
                                add(decode_cell_value(buf[pos:end]))
                            pos = end
                        else:
                            ids.append(row_id)
                            continue
                    except struct.error:  # a shorter cell than its column's, near the end
                        pass
                pos, names, at = off_layout(row_at, n_cells)  # the run ends here
                rows.append((names, [row_id], [v if v is None else decode_cell_value(buf[v])
                                               for v in at]))
                ids, values = [], []
                rows.append((None, ids, values))
                add = values.append
        except (ValueError, IndexError) as exc:  # a cell that does not decode, or a
            rows.append(exc.with_traceback(None))  # broken row that the check refuses
            pos, top = _walk_rows(buf, row_at - 10, count - k, cells, None)
            return pos, max(max_row_id, top)
    if pos > len(buf):
        raise TruncatedError("a row runs past the payload")
    return pos, max_row_id


# -- module operations ---------------------------------------------------------------

def create_vault(path: str | os.PathLike, passphrase: bytes | str,
                 kdf_params: crypto.KdfParams | None = None) -> VaultFile:
    """Create an empty vault at a fresh path and write it durably."""
    p = Path(path)
    if p.exists():
        raise AlreadyExistsError(f"vault already exists: {p}")
    secret = _passphrase_bytes(passphrase)
    params = kdf_params if kdf_params is not None else crypto.KdfParams.generate()
    key = crypto.derive_key(secret, params)
    p.parent.mkdir(parents=True, exist_ok=True)
    lock_fd = _acquire_lock(p)
    try:
        vault = VaultFile(p, params, key, lock_fd)
        vault.commit()
    except Exception:
        _release_lock(lock_fd)
        raise
    return vault


def open_vault(path: str | os.PathLike, passphrase: bytes | str,
               decode: Iterable[str] | None = ()) -> VaultFile:
    """Lock, decrypt and authenticate a vault file into memory, decoding the
    rows of the hostnames in ``decode`` (None: of every host) as it checks them.

    The lock is taken before the file is read, so no other handle can commit
    between this read and this handle's own commit. VaultLockedError when
    another handle holds it; WrongSecretError when the tag fails under a
    well-formed header (a wrong passphrase and a flipped body byte are
    indistinguishable by design); TamperedVaultError for structural
    corruption; BadVersionError for formats this build does not speak. Never
    returns partially decrypted data, and releases the lock on every error.
    """
    p = Path(path)
    if not p.exists():  # fail without leaving a lock file beside no vault
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(p))
    lock_fd = _acquire_lock(p)
    try:
        return _read_locked(p, passphrase, lock_fd,
                            None if decode is None else frozenset(decode))
    except BaseException:
        _release_lock(lock_fd)
        raise


# -- internals --------------------------------------------------------------------------

def _passphrase_bytes(passphrase: bytes | str) -> bytes:
    secret = passphrase.encode("utf-8") if isinstance(passphrase, str) else bytes(passphrase)
    if not secret:
        raise ValueError("passphrase must not be empty")
    return secret


def _read_locked(p: Path, passphrase: bytes | str, lock_fd: int,
                 decode: Container[str] | None) -> VaultFile:
    blob = p.read_bytes()
    if len(blob) < _MIN_FILE:
        raise TamperedVaultError(f"vault file truncated: {p}")
    header = blob[:_HEADER.size]
    magic, version, memory, iterations, parallelism, salt = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TamperedVaultError(f"bad magic in {p}")
    if version != FORMAT_VERSION:
        raise BadVersionError(f"vault format {version} not supported")
    nonce = blob[_HEADER.size:_HEADER.size + crypto.NONCE_LEN]
    sealed = memoryview(blob)[_HEADER.size + crypto.NONCE_LEN:]  # read in place, not copied
    try:
        params = crypto.KdfParams(memory, iterations, parallelism, salt)
    except ValueError as exc:
        raise TamperedVaultError(f"implausible KDF parameters in {p}: {exc}") from exc
    key = crypto.derive_key(_passphrase_bytes(passphrase), params)
    try:
        payload = crypto.open_sealed(key, nonce, sealed, header + nonce)
    except crypto.InvalidTag:
        raise WrongSecretError(
            "vault did not authenticate (wrong passphrase or modified file)"
        ) from None
    del blob, sealed  # the payload alone is parsed
    vault = VaultFile(p, params, key, lock_fd)
    try:
        vault._deserialize(payload, decode)
    except (ValueError, KeyError, struct.error) as exc:
        raise TamperedVaultError(f"vault payload corrupt: {exc}") from exc
    return vault


def _lock_path(p: Path) -> Path:
    return p.with_name(p.name + ".lock")


def _acquire_lock(p: Path) -> int:
    fd = os.open(_lock_path(p), os.O_CREAT | os.O_RDWR, 0o600)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        os.close(fd)
        raise VaultLockedError(f"vault is locked by another handle: {p}") from None
    return fd


def _release_lock(fd: int) -> None:
    try:
        fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def _atomic_write(path: Path, *chunks: bytes) -> None:
    tmp_fd, tmp_name = None, None
    try:
        tmp_fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                                            dir=str(path.parent))
        with os.fdopen(tmp_fd, "wb") as fh:
            tmp_fd = None
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
        tmp_name = None
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    finally:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
