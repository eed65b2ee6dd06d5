"""Frozen vault entry encoder: the reference for the entry byte-identity tests.

``encode_entry`` is a verbatim copy of the per-field loop with which
``VaultFile._serialize`` wrote an entry built from rows, one ``wire.Writer``
call per field, kept so the entry encoders in ``credmask.vault`` can be
checked against it byte for byte. ``_Writer`` freezes the ``Writer`` methods
it calls, so a change to ``credmask.wire`` cannot move the reference along
with the code under test.
"""

from __future__ import annotations

import struct

NULL_LENGTH = 0xFFFFFFFF


class _Writer:
    def __init__(self):
        self._buf = bytearray()

    def u16(self, v: int):
        self._buf += struct.pack(">H", v)

    def u32(self, v: int):
        self._buf += struct.pack(">I", v)

    def u64(self, v: int):
        self._buf += struct.pack(">Q", v)

    def i64(self, v: int):
        self._buf += struct.pack(">q", v)

    def raw(self, data: bytes):
        self._buf += data

    def prefixed(self, data: bytes):
        self.u32(len(data))
        self.raw(data)

    def text(self, s: str):
        self.prefixed(s.encode("utf-8"))

    def cell(self, data: bytes | None):
        if data is None:
            self.u32(NULL_LENGTH)
        else:
            self.prefixed(data)

    def getvalue(self) -> bytes:
        return bytes(self._buf)


def encode_entry(hostname: str, masked_at: int, store_path: str,
                 schema_columns: tuple[str, ...], rows) -> bytes:
    """The payload bytes of one entry; ``rows`` have a ``row_id`` and ``cells``,
    (column name, tagged bytes) pairs, as ``dump_reference.login_rows`` builds them."""
    w = _Writer()
    w.text(hostname)
    w.u64(masked_at)
    w.text(store_path)
    w.u16(len(schema_columns))
    for col in schema_columns:
        w.text(col)
    w.u32(len(rows))
    for row in rows:
        w.i64(row.row_id)
        w.u16(len(row.cells))
        for name, value in row.cells:
            w.text(name)
            w.cell(value)
    return w.getvalue()
