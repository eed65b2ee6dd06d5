"""Frozen vault row walkers: the reference for the walk differential tests.

``_skip_rows``, ``_decode_rows`` and ``_layout`` are verbatim copies of the
functions with which ``credmask.vault`` checked an entry's rows at open and
decoded them into store order, one name slice and one set lookup per cell,
before opening learned to check rows against their entry's column list.
``store_rows`` is ``VaultEntry.store_rows`` of the same version, taking the
entry's fields as arguments, and ``open_entries`` is the entry loop of
``VaultFile._deserialize``, which read every column list in full, followed by
its checks of the rest of the payload. The cell decoder, the reader, the
record constants and the error classes come from ``credmask``, so an error
raised here is of the very class the code under test raises.
"""

from __future__ import annotations

import operator
import struct
from typing import Callable

from credmask import auth, crypto
from credmask.errors import SchemaMismatchError
from credmask.minutiae import Minutia, Template
from credmask.vault import _CODE_KIND, _CODE_POLICY, _RECORD_FINGERPRINT, _RECORD_PASSPHRASE
from credmask.wire import NULL_LENGTH, Reader, TruncatedError, decode_cell_value

_U32 = struct.Struct(">I")
_ROW_HEAD = struct.Struct(">qH")  # row id, cell count
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


def _skip_rows(payload: bytes, pos: int, count: int,
               names: set[bytes]) -> tuple[int, int]:
    """Check ``count`` encoded rows from ``pos``; return the offset past them
    and the highest row id among them.

    Each row is row id i64, cell count u16, then per cell its name (u32
    length, UTF-8) and its value (u32 length or NULL_LENGTH, bytes). A length
    that runs past the payload fails the next unpack_from, or the last check.
    """
    u32, head = _U32.unpack_from, _ROW_HEAD.unpack_from
    max_row_id = -1 << 63  # the least i64
    for _ in range(count):
        row_id, cells = head(payload, pos)
        if row_id > max_row_id:
            max_row_id = row_id
        pos += 10
        for _ in range(cells):
            (n,) = u32(payload, pos)
            name_end = pos + 4 + n
            name = payload[pos + 4:name_end]
            if name not in names:
                name.decode("utf-8")
                names.add(name)
            (n,) = u32(payload, name_end)
            pos = name_end + 4
            if n != NULL_LENGTH:
                pos += n
    if pos > len(payload):
        raise TruncatedError("a row runs past the payload")
    return pos, max_row_id


def _decode_rows(encoded: memoryview, pos: int, count: int, columns: tuple[str, ...],
                 hostname: str) -> list[tuple[int, tuple]]:
    """Decode the rows _skip_rows already checked into (row id, values) pairs,
    the values native and in ``columns`` order; no bound is checked again.

    SchemaMismatchError when a row's cell names are not exactly ``columns``;
    ValueError for a cell that is not a well-formed tagged value.
    """
    buf = encoded.tobytes()
    u32, head, i64, f64 = (_U32.unpack_from, _ROW_HEAD.unpack_from,
                           _I64.unpack_from, _F64.unpack_from)
    layouts: dict[tuple[bytes, ...], Callable[[list], tuple]] = {}
    rows = []
    for _ in range(count):
        row_id, n_cells = head(buf, pos)
        pos += 10
        names = []
        values = []
        for _ in range(n_cells):
            (n,) = u32(buf, pos)
            pos += 4 + n
            names.append(buf[pos - n:pos])
            (n,) = u32(buf, pos)
            pos += 4
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
        layout = layouts.get(key := tuple(names))
        if layout is None:
            layout = layouts[key] = _layout(key, columns, row_id, hostname)
        rows.append((row_id, layout(values)))
    return rows


def _layout(names: tuple[bytes, ...], columns: tuple[str, ...], row_id: int,
            hostname: str) -> Callable[[list], tuple]:
    """The function putting values in ``names`` order into ``columns`` order."""
    order = [name.decode("utf-8") for name in names]
    if sorted(order) != sorted(columns):
        raise SchemaMismatchError(
            f"vaulted row {row_id} of {hostname}: columns {sorted(order)} "
            f"!= schema {sorted(columns)}")
    if order == list(columns):
        return tuple
    return operator.itemgetter(*(order.index(c) for c in columns))


def store_rows(encoded: memoryview, rows_at: int, row_count: int, hostname: str,
               columns: tuple[str, ...], pk_column: str) -> list[tuple]:
    """``VaultEntry.store_rows`` of an entry with these fields."""
    pk_index = columns.index(pk_column)
    rows = _decode_rows(encoded, rows_at, row_count, columns, hostname)
    for row_id, values in rows:
        if values[pk_index] != row_id:
            raise SchemaMismatchError(
                f"row_id {row_id} disagrees with its {pk_column} cell")
    return [values for _, values in rows]


def open_entries(payload: bytes) -> list[tuple]:
    """The entries ``VaultFile._deserialize`` of the same version read from a
    whole payload, checking the rest of it as that did. Each entry is (hostname,
    masked_at, store path, columns, row count, max row id, its slice of the
    payload, the offset of its first row in the slice)."""
    r = Reader(payload)
    names: set[bytes] = set()  # cell names already checked to be UTF-8
    entries = []
    for _ in range(r.u32()):
        start = r.pos
        hostname = r.text()
        masked_at = r.u64()
        store_path = r.text()
        columns = tuple(r.text() for _ in range(r.u16()))
        count = r.u32()
        if not count:
            raise ValueError(f"vault entry {hostname!r} holds no rows")
        rows_at = r.pos
        r.pos, max_row_id = _skip_rows(payload, rows_at, count, names)
        entries.append((hostname, masked_at, store_path, columns, count, max_row_id,
                        payload[start:r.pos], rows_at - start))
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
    if r.u8():
        (r.text(), r.raw(32))
    if not r.exhausted():
        raise ValueError("trailing bytes after payload")
    return entries
