"""Encrypted vault holding masked rows, auth records, and restore metadata.

On-disk layout, all integers big-endian:

    magic "CMV1" (4) | format_version u16 | kdf memory-cost u32 (bytes) |
    kdf iterations u32 | kdf parallelism u8 | salt (16) | nonce (24) |
    AEAD ciphertext of the serialized payload | tag (16, trailing)

The payload (laid out in the README) writes every row with
:func:`wire.encode_rows`, the encoder of the store's canonical dump, so a
vaulted row restores byte-exactly. Every entry is held encoded, as its slice of
the payload: ``mask`` encodes the rows it reads from SQLite straight into a new
entry's bytes, and opening checks the whole payload and keeps each entry's
slice. Opening checks each row against its entry's column list, and rows whose
names come in another order are still read. Listing hosts and counting rows
decode nothing, a commit copies the slices, and ``unmask`` decodes a slice
straight into the values it inserts. Every commit re-encrypts the whole state
under a fresh nonce and replaces the file atomically (write temp, fsync,
rename); a crash mid-commit leaves the previous version intact, and the next
commit removes the temp file it left. The header is bound as associated data,
so any ciphertext or header flip fails the tag.

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
from typing import Callable, Iterable, Sequence

from . import auth, crypto
from .errors import (
    AlreadyExistsError,
    BadVersionError,
    DuplicateHostError,
    SchemaMismatchError,
    TamperedVaultError,
    UnknownHostError,
    VaultLockedError,
    WrongSecretError,
)
from .minutiae import BIFURCATION, TERMINATION, Minutia, Template
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
_KIND_CODE = {TERMINATION: 1, BIFURCATION: 2}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


class VaultEntry:
    """The masked rows of one hostname plus what is needed to restore them.

    An entry holds its payload bytes, whether it was built from store rows or
    read from a vault file, and decodes its rows only in :meth:`store_rows`:
    ``row_count``, ``max_row_id`` and the other fields need no decoding, and a
    commit copies the bytes. Treat it as a value.
    """

    __slots__ = ("hostname", "masked_at", "store_path", "schema_columns",
                 "row_count", "max_row_id", "_encoded", "_rows_at", "_on_layout")

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
        w = Writer()
        w.text(hostname)
        w.u64(masked_at)
        w.text(store_path)
        w.u16(len(columns))
        for col in columns:
            w.text(col)
        w.u32(len(rows))
        out = bytearray(w.getvalue())
        rows_at = len(out)
        encode_rows(out, rows, pk_index, _name_fields(columns))
        return cls._from_payload(hostname, masked_at, store_path, columns, len(rows),
                                 max(row[pk_index] for row in rows),
                                 memoryview(bytes(out)), rows_at, True)

    @classmethod
    def _from_payload(cls, hostname: str, masked_at: int, store_path: str,
                      schema_columns: tuple[str, ...], row_count: int, max_row_id: int,
                      encoded: memoryview, rows_at: int, on_layout: bool) -> "VaultEntry":
        entry = cls.__new__(cls)
        entry.hostname = hostname
        entry.masked_at = masked_at  # UTC seconds
        entry.store_path = store_path
        entry.schema_columns = schema_columns
        entry.row_count = row_count
        entry.max_row_id = max_row_id
        entry._encoded = encoded  # the entry's payload bytes
        entry._rows_at = rows_at  # offset of its first row in _encoded
        entry._on_layout = on_layout  # every row's cells are schema_columns, in order
        return entry

    def store_rows(self, columns: tuple[str, ...], pk_column: str) -> list[tuple]:
        """The rows as tuples of native values in ``columns`` order, ready to insert.

        SchemaMismatchError when a row's cells are not exactly ``columns`` or
        its ``pk_column`` cell is not its row id; ValueError for a cell that is
        not a well-formed tagged value.
        """
        pk_index = columns.index(pk_column)
        rows = _decode_rows(self._encoded, self._rows_at, self.row_count, columns,
                            self.schema_columns if self._on_layout else None, self.hostname)
        for row_id, values in rows:
            if values[pk_index] != row_id:
                raise SchemaMismatchError(
                    f"row_id {row_id} disagrees with its {pk_column} cell")
        return [values for _, values in rows]

    def __eq__(self, other) -> bool:
        if not isinstance(other, VaultEntry):
            return NotImplemented
        return self._encoded == other._encoded  # every field is in these bytes

    def __repr__(self) -> str:
        return (f"VaultEntry(hostname={self.hostname!r}, rows={self.row_count}, "
                f"masked_at={self.masked_at}, store_path={self.store_path!r})")


class VaultFile:
    """Decrypted in-memory view of a vault; durably saved only by commit().

    Confined to one thread of control; at most one open handle per path per
    process, enforced by an advisory lock on a sidecar ``.lock`` file.
    """

    def __init__(self, path: Path, kdf_params: crypto.KdfParams, key: bytes,
                 lock_fd: int):
        self.path = path
        self.kdf_params = kdf_params
        self.format_version = FORMAT_VERSION
        self.entries: list[VaultEntry] = []
        self.auth_records: list[auth.AuthRecord] = []
        self.policy: str = auth.POLICY_PASSPHRASE_ONLY
        self.keystore_record: tuple[str, bytes] | None = None
        # ephemeral identity binding proofs to this open instance
        self.auth_token: bytes = os.urandom(16)
        self.open_proof: auth.AuthProof | None = None
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

    # -- entry operations ------------------------------------------------------

    def hosts(self) -> list[str]:
        return [e.hostname for e in self.entries]

    def put_entries(self, new: Iterable[VaultEntry]) -> None:
        """Append entries; hostnames must be new to the vault. Not durable."""
        incoming = list(new)
        present = set(self.hosts())
        for entry in incoming:
            if entry.hostname in present:
                raise DuplicateHostError(f"already vaulted: {entry.hostname}")
            present.add(entry.hostname)
        self.entries.extend(incoming)

    def take_entries(self, hostnames: Iterable[str]) -> list[VaultEntry]:
        """Remove and return the entries for the given hosts; all or nothing."""
        wanted = set(hostnames)
        present = set(self.hosts())
        missing = wanted - present
        if missing:
            raise UnknownHostError(f"not vaulted: {sorted(missing)}")
        taken = [e for e in self.entries if e.hostname in wanted]
        self.entries = [e for e in self.entries if e.hostname not in wanted]
        return taken

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
            MAGIC, self.format_version, self.kdf_params.memory_bytes,
            self.kdf_params.iterations, self.kdf_params.parallelism,
            self.kdf_params.salt,
        )
        sealed = crypto.seal(self._key, nonce, self._serialize(), header + nonce)
        _atomic_write(self.path, header + nonce + sealed)
        for stray in self.path.parent.glob(f".{glob.escape(self.path.name)}.*.tmp"):
            try:
                stray.unlink()
            except OSError:
                pass

    # -- serialization -------------------------------------------------------------

    def _serialize(self) -> bytes:
        w = Writer()
        w.u32(len(self.entries))
        for entry in self.entries:
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
        return w.getvalue()

    def _deserialize(self, payload: bytes) -> None:
        """Check the whole payload, decoding all but the entries' rows.

        Every length, every text field and every record is checked here, so
        the rows decoded later from an entry's slice need no checks.
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
                block, cells = payload[at:r.pos], [  # per column: unpacker, name field, step
                    (struct.Struct(f">{len(f)}sI").unpack_from, f, len(f) + 4)
                    for f in _name_fields(columns)]
            r.pos = at + len(block)
            count = r.u32()
            if not count:
                raise ValueError(f"vault entry {hostname!r} holds no rows")
            rows_at = r.pos
            r.pos, max_row_id, on_layout = _skip_rows(payload, rows_at, count, cells)
            entries.append(VaultEntry._from_payload(
                hostname, masked_at, store_path, columns, count, max_row_id,
                view[start:r.pos], rows_at - start, on_layout))
        records: list[auth.AuthRecord] = []
        for _ in range(r.u32()):
            tag = r.u8()
            if tag == _RECORD_PASSPHRASE:
                salt = r.raw(crypto.SALT_LEN)
                verifier = r.raw(crypto.KEY_LEN)
                kdf = crypto.KdfParams(r.u32(), r.u32(), r.u8(), salt)
                records.append(auth.PassphraseRecord(kdf=kdf, verifier=verifier))
            elif tag == _RECORD_FINGERPRINT:
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
        self.entries = entries
        self.auth_records = records
        for record in records:
            record.vault_token = self.auth_token
        self.policy = policy
        self.keystore_record = keystore


def _name_fields(columns: tuple[str, ...]) -> list[bytes]:
    """Each column's name field as a row's cell carries it: u32 length, UTF-8."""
    return [_U32.pack(len(name)) + name for name in map(str.encode, columns)]


def _skip_rows(payload: bytes, pos: int, count: int, cells: list) -> tuple[int, int, bool]:
    """Check ``count`` encoded rows from ``pos``; return the offset past them,
    the highest row id among them and whether every row is on ``cells``.

    Each row is row id i64, cell count u16, then per cell its name (u32
    length, UTF-8) and its value (u32 length or NULL_LENGTH, bytes). A row on
    ``cells`` costs one unpack per cell; _row_cells walks the others. A length
    past the payload fails the next unpack, or the last check.
    """
    head = _ROW_HEAD.unpack_from
    max_row_id = -1 << 63  # the least i64
    on_layout = True
    for _ in range(count):
        row_id, n_cells = head(payload, pos)
        if row_id > max_row_id:
            max_row_id = row_id
        row_at = pos = pos + 10
        if n_cells == len(cells):
            try:
                for cell, field, step in cells:
                    got, n = cell(payload, pos)
                    if got != field:
                        break
                    pos += step if n == NULL_LENGTH else step + n
                else:
                    continue
            except struct.error:  # a shorter cell than its column's, near the end
                pass
        on_layout = False
        pos = _row_cells(payload, row_at, n_cells)[0]
    if pos > len(payload):
        raise TruncatedError("a row runs past the payload")
    return pos, max_row_id, on_layout


def _row_cells(buf: bytes, pos: int, n_cells: int) -> tuple[int, tuple[str, ...], list[int]]:
    """Walk one row's cells from ``pos``, decoding their UTF-8 names; return
    the offset past them, the names and each name field's width."""
    u32 = _U32.unpack_from
    names, widths = [], []
    for _ in range(n_cells):
        (n,) = u32(buf, pos)
        names.append(buf[pos + 4:pos + 4 + n].decode("utf-8"))
        widths.append(4 + n)
        pos += 4 + n
        (n,) = u32(buf, pos)
        pos += 4 if n == NULL_LENGTH else 4 + n
    return pos, tuple(names), widths


def _decode_rows(encoded: memoryview, pos: int, count: int, columns: tuple[str, ...],
                 header: tuple[str, ...] | None, hostname: str) -> list[tuple[int, tuple]]:
    """Decode the rows _skip_rows already checked into (row id, values) pairs,
    the values native and in ``columns`` order; no bound is checked again.
    When every row holds the ``header`` columns in order, no name is read.

    SchemaMismatchError when a row's cell names are not exactly ``columns``;
    ValueError for a cell that is not a well-formed tagged value.
    """
    buf = encoded.tobytes()
    u32, head, i64, f64 = (_U32.unpack_from, _ROW_HEAD.unpack_from,
                           _I64.unpack_from, _F64.unpack_from)
    if header is not None:
        key, widths = header, list(map(len, _name_fields(header)))
    layouts: dict[tuple[str, ...], Callable[[list], tuple]] = {}
    rows = []
    for _ in range(count):
        row_id, n_cells = head(buf, pos)
        pos += 10
        if header is None:
            _, key, widths = _row_cells(buf, pos, n_cells)
        values = []
        for width in widths:
            (n,) = u32(buf, pos + width)
            pos += width + 4
            if n == NULL_LENGTH:
                values.append(None)
                continue
            end = pos + n
            tag = buf[pos] if n else None
            if tag == 0x74:  # t: UTF-8 text
                values.append(buf[pos + 1:end].decode("utf-8"))
            elif tag == 0x69 and n == 9:  # i: 64-bit integer
                values.append(i64(buf, pos + 1)[0])
            elif tag == 0x66 and n == 9:  # f: double
                values.append(f64(buf, pos + 1)[0])
            else:  # b: blob; decode_cell_value refuses a malformed cell
                values.append(decode_cell_value(buf[pos:end]))
            pos = end
        layout = layouts.get(key)
        if layout is None:
            layout = layouts[key] = _layout(key, columns, row_id, hostname)
        rows.append((row_id, layout(values)))
    return rows


def _layout(names: tuple[str, ...], columns: tuple[str, ...], row_id: int,
            hostname: str) -> Callable[[list], tuple]:
    """The function putting values in ``names`` order into ``columns`` order."""
    if sorted(names) != sorted(columns):
        raise SchemaMismatchError(
            f"vaulted row {row_id} of {hostname}: columns {sorted(names)} "
            f"!= schema {sorted(columns)}")
    if list(names) == list(columns):
        return tuple
    return operator.itemgetter(*(names.index(c) for c in columns))


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
    vault.open_proof = auth.AuthProof(
        kinds=frozenset({auth.KIND_PASSPHRASE}), vault_token=vault.auth_token
    )
    return vault


def open_vault(path: str | os.PathLike, passphrase: bytes | str) -> VaultFile:
    """Lock, decrypt and authenticate a vault file into memory.

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
        vault = _read_locked(p, passphrase, lock_fd)
    except BaseException:
        _release_lock(lock_fd)
        raise
    vault.open_proof = auth.AuthProof(
        kinds=frozenset({auth.KIND_PASSPHRASE}), vault_token=vault.auth_token
    )
    return vault


# -- internals --------------------------------------------------------------------------

def _passphrase_bytes(passphrase: bytes | str) -> bytes:
    secret = passphrase.encode("utf-8") if isinstance(passphrase, str) else bytes(passphrase)
    if not secret:
        raise ValueError("passphrase must not be empty")
    return secret


def _read_locked(p: Path, passphrase: bytes | str, lock_fd: int) -> VaultFile:
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
    sealed = blob[_HEADER.size + crypto.NONCE_LEN:]
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
    vault = VaultFile(p, params, key, lock_fd)
    try:
        vault._deserialize(payload)
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


def _atomic_write(path: Path, data: bytes) -> None:
    tmp_fd, tmp_name = None, None
    try:
        tmp_fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                                            dir=str(path.parent))
        with os.fdopen(tmp_fd, "wb") as fh:
            tmp_fd = None
            fh.write(data)
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
