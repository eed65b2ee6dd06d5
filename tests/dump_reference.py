"""Frozen canonical dump encoder: the reference for the dump byte-identity tests.

``dump`` is a verbatim copy of the loop with which ``StoreHandle.dump_canonical``
wrote the dump through ``wire.Writer``, one row object at a time, and
``login_rows`` builds those row objects from SQLite's native values the way
``StoreHandle.list_logins`` did. ``_Writer`` and ``_tagged`` freeze the
``Writer`` methods and the cell tagging they call, so a change to
``credmask`` cannot move the reference along with the code under test.
"""

from __future__ import annotations

import struct
from collections import namedtuple

NULL_LENGTH = 0xFFFFFFFF
DUMP_VERSION = 0x01

Row = namedtuple("Row", "row_id hostname cells")


class _Writer:
    def __init__(self):
        self._buf = bytearray()

    def u8(self, v: int):
        self._buf += struct.pack(">B", v)

    def u16(self, v: int):
        self._buf += struct.pack(">H", v)

    def u32(self, v: int):
        self._buf += struct.pack(">I", v)

    def i64(self, v: int):
        self._buf += struct.pack(">q", v)

    def raw(self, data: bytes):
        self._buf += data

    def prefixed(self, data: bytes):
        self.u32(len(data))
        self.raw(data)

    def cell(self, data: bytes | None):
        if data is None:
            self.u32(NULL_LENGTH)
        else:
            self.prefixed(data)

    def getvalue(self) -> bytes:
        return bytes(self._buf)


def _tagged(value) -> bytes | None:
    """A native SQLite value as its storage-class tag plus its bytes."""
    if value is None:
        return None
    if isinstance(value, bool):
        raise TypeError("bool is not a SQLite storage class")
    if isinstance(value, int):
        return b"i" + struct.pack(">q", value)
    if isinstance(value, float):
        return b"f" + struct.pack(">d", value)
    if isinstance(value, str):
        return b"t" + value.encode("utf-8")
    if isinstance(value, (bytes, bytearray, memoryview)):
        return b"b" + bytes(value)
    raise TypeError(f"unsupported cell type: {type(value).__name__}")


def login_rows(rows, columns: tuple[str, ...], pk_column: str) -> list[Row]:
    """Rows of native values in ``columns`` order as row objects, every cell tagged."""
    host_index = columns.index("hostname")
    pk_index = columns.index(pk_column)
    return [Row(row_id=int(row[pk_index]), hostname=row[host_index],
                cells=tuple(zip(columns, map(_tagged, row))))
            for row in rows]


def dump(rows) -> bytes:
    """The canonical dump of ``rows``, row objects in row-id order."""
    w = _Writer()
    w.u8(DUMP_VERSION)
    for row in rows:
        w.i64(row.row_id)
        w.u16(len(row.cells))
        for _, value in row.cells:
            w.cell(value)
    return w.getvalue()
