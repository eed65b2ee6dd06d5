"""Binary encoding helpers.

All integers are big-endian. Variable-length fields are u32 length-prefixed;
a cell value of NULL is written as the sentinel length 0xFFFFFFFF with no
payload. Cell values carry a one-byte storage-class tag so that a SQLite
value round-trips with both its bytes and its storage class intact:

    i  64-bit signed integer      f  IEEE-754 double
    t  UTF-8 text                 b  raw blob

:func:`encode_rows` is the one encoder of rows: vault entries and the
canonical dump both write a row as its id, its cell count and one tagged
cell per column.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

NULL_LENGTH = 0xFFFFFFFF

_U32 = struct.Struct(">I")
_ROW_HEAD = struct.Struct(">qH")  # row id, cell count
_TAGGED_HEAD = struct.Struct(">Ic")  # cell length, storage-class tag
_INT_CELL = struct.Struct(">Icq")  # length 9, tag i, value
_REAL_CELL = struct.Struct(">Icd")  # length 9, tag f, value
_NULL_FIELD = _U32.pack(NULL_LENGTH)

_TAG_INT = b"i"
_TAG_REAL = b"f"
_TAG_TEXT = b"t"
_TAG_BLOB = b"b"


class TruncatedError(ValueError):
    """Ran off the end of the buffer while decoding."""


def encode_cell_value(value) -> bytes | None:
    """Map a Python-native SQLite value to its tagged byte form (None stays None)."""
    if value is None:
        return None
    if isinstance(value, bool):
        raise TypeError("bool is not a SQLite storage class")
    if isinstance(value, int):
        return _TAG_INT + struct.pack(">q", value)
    if isinstance(value, float):
        return _TAG_REAL + struct.pack(">d", value)
    if isinstance(value, str):
        return _TAG_TEXT + value.encode("utf-8")
    if isinstance(value, (bytes, bytearray, memoryview)):
        return _TAG_BLOB + bytes(value)
    raise TypeError(f"unsupported cell type: {type(value).__name__}")


def decode_cell_value(data: bytes | None):
    """Inverse of :func:`encode_cell_value`; ValueError for a malformed encoding."""
    if data is None:
        return None
    if not data:
        raise ValueError("empty cell encoding")
    tag, payload = data[:1], data[1:]
    if tag in (_TAG_INT, _TAG_REAL) and len(payload) != 8:
        raise ValueError(f"{tag.decode()}-tagged cell of {len(data)} bytes, not 9")
    if tag == _TAG_INT:
        return struct.unpack(">q", payload)[0]
    if tag == _TAG_REAL:
        return struct.unpack(">d", payload)[0]
    if tag == _TAG_TEXT:
        return payload.decode("utf-8")
    if tag == _TAG_BLOB:
        return payload
    raise ValueError(f"unknown cell tag: {tag!r}")


def encode_rows(out: bytearray, rows: Iterable[tuple], pk_index: int,
                prefixes: Sequence[bytes]) -> None:
    """Append rows of native values to ``out``: per row its id (i64, the value
    at ``pk_index``) and cell count (u16), then per column its prefix and its
    cell, a u32 length plus the bytes :func:`encode_cell_value` gives, or
    NULL_LENGTH alone for NULL.

    A vault entry's prefixes are its column-name fields; the dump's are empty.
    """
    for row in rows:
        out += _ROW_HEAD.pack(row[pk_index], len(row))
        for prefix, value in zip(prefixes, row):
            out += prefix
            kind = type(value)
            if kind is str:
                data = value.encode("utf-8")
                out += _TAGGED_HEAD.pack(len(data) + 1, b"t")
                out += data
            elif kind is int:
                out += _INT_CELL.pack(9, b"i", value)
            elif kind is float:
                out += _REAL_CELL.pack(9, b"f", value)
            elif value is None:
                out += _NULL_FIELD
            else:  # bytes: a blob; encode_cell_value refuses other types
                cell = encode_cell_value(value)
                out += _U32.pack(len(cell))
                out += cell


class Writer:
    def __init__(self):
        self._buf = bytearray()

    def u8(self, v: int):
        self._buf += struct.pack(">B", v)

    def u16(self, v: int):
        self._buf += struct.pack(">H", v)

    def u32(self, v: int):
        self._buf += struct.pack(">I", v)

    def u64(self, v: int):
        self._buf += struct.pack(">Q", v)

    def f64(self, v: float):
        self._buf += struct.pack(">d", v)

    def raw(self, data: bytes):
        self._buf += data

    def prefixed(self, data: bytes):
        self.u32(len(data))
        self.raw(data)

    def text(self, s: str):
        self.prefixed(s.encode("utf-8"))

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class Reader:
    """Bounds-checked decoder over ``data``; ``pos`` is the next byte to read."""

    def __init__(self, data: bytes):
        self._data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self._data):
            raise TruncatedError("truncated input")
        out = self._data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return struct.unpack(">B", self._take(1))[0]

    def u16(self) -> int:
        return struct.unpack(">H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def prefixed(self) -> bytes:
        return self._take(self.u32())

    def text(self) -> str:
        return self.prefixed().decode("utf-8")

    def exhausted(self) -> bool:
        return self.pos == len(self._data)
