"""Opening and decoding vaulted rows agree with the frozen walkers of
``walk_reference`` on seeded random payloads.

Each payload holds entries under a few column lists, interleaved, whose rows
are mostly on their entry's list and sometimes off it: the columns in another
order, one cell more or fewer, a name of the same length with other bytes, a
name that is a prefix of a column's, an empty name, or a name that is not
UTF-8. Values cover NULL in every column, the INTEGER limits, -0.0, the
infinities, non-ASCII and NUL-holding text and blobs. Open must give the
reference's fields and slices, ``store_rows`` the reference's values in two
column orders, and every payload the reference refuses, truncated and
corrupted ones included, must be refused with the same exception class at the
same step.
"""

import random
import struct

import pytest

from credmask.vault import VaultFile
from credmask.wire import NULL_LENGTH, encode_cell_value

import walk_reference as reference
from test_vault_reference import tagged

HEADERS = [  # each holds "id", the primary key store_rows is asked for
    ("id", "hostname", "encType", "usernameField", "guid"),
    ("hostname", "id", "a", "ab", "ü-naïve", ""),
    ("id", "timePasswordChanged"),
]
VALUES = [None, 0, 1, -1, 2 ** 63 - 1, -(2 ** 63), 0.0, -0.0, 1.0, float("inf"),
          float("-inf"), 5e-324, "", "plain", "ü 世界", "nul\x00text", b"", b"\x00\xff",
          b"blob bytes"]
TAIL = struct.pack(">I", 0) + b"\x01\x00"  # no auth record, policy 1, no key store


def field(name: bytes) -> bytes:
    return struct.pack(">I", len(name)) + name


def value_field(value) -> bytes:
    if value is None:
        return struct.pack(">I", NULL_LENGTH)
    return field(encode_cell_value(value))


def other_name(rng: random.Random, name: bytes, columns: list[bytes]) -> bytes:
    """A name that is not ``name``: same length other bytes, a prefix, or empty."""
    choices = [b""]
    if name:
        choices += [name[:-1], bytes([name[0] ^ 0x01]) + name[1:], b"\xff" * len(name)]
    choices += [c[:-1] for c in columns if len(c) > 1]
    return rng.choice([c for c in choices if c != name] or [b"x"])


def row_bytes(rng: random.Random, row_id: int, header: tuple[str, ...], kind: str) -> bytes:
    columns = [c.encode() for c in header]
    if kind == "nulls":
        values = [None] * len(columns)
    else:
        values = [rng.choice(VALUES) for _ in columns]
    if rng.random() < 0.9:  # else the id cell mostly disagrees with the row id
        values[header.index("id")] = row_id
    cells = list(zip(columns, values))
    if kind == "reordered" and len(cells) > 1:
        while [name for name, _ in cells] == columns:
            rng.shuffle(cells)
    elif kind == "more":
        cells.insert(rng.randrange(len(cells) + 1),
                     (rng.choice(columns + [b"extra"]), rng.choice(VALUES)))
    elif kind == "fewer" and cells:
        del cells[rng.randrange(len(cells))]
    elif kind == "renamed" and cells:
        at = rng.randrange(len(cells))
        cells[at] = (other_name(rng, cells[at][0], columns), cells[at][1])
    out = struct.pack(">qH", row_id, len(cells))
    for name, value in cells:
        out += field(name) + value_field(value)
    return out


ROW_KINDS = ["on"] * 12 + ["nulls", "reordered", "more", "fewer", "renamed"]


def entry_bytes(rng: random.Random, header: tuple[str, ...], first_id: int) -> bytes:
    count = rng.randint(1, 5)
    # most entries keep every row on their column list, as the encoder writes them
    kinds = ["on"] * count if rng.random() < 0.5 else [rng.choice(ROW_KINDS)
                                                       for _ in range(count)]
    out = field(rng.choice(["a.example", "bücher.example", ""]).encode())
    out += struct.pack(">Q", rng.getrandbits(64))
    out += field("/profile/signons.sqlite".encode())
    out += struct.pack(">H", len(header)) + b"".join(field(c.encode()) for c in header)
    out += struct.pack(">I", count)
    for i, kind in enumerate(kinds):
        out += row_bytes(rng, first_id + rng.choice([i, -i, 2 ** 40]), header, kind)
    return out


def random_payload(rng: random.Random) -> bytes:
    count = rng.randint(1, 6)
    headers = [rng.choice(HEADERS) for _ in range(count)]
    entries = b"".join(entry_bytes(rng, h, rng.randint(-5, 10 ** 6)) for h in headers)
    return struct.pack(">I", count) + entries + TAIL


def outcome(fn):
    """What ``fn`` returns, or the class of what it raises."""
    try:
        return "ok", fn()
    except Exception as exc:  # the class is the outcome compared
        return "raised", type(exc)


def opened(payload: bytes):
    vf = VaultFile.__new__(VaultFile)
    vf.auth_token = b"t" * 16
    vf._deserialize(payload)
    return vf.entries


def fields_of(entry) -> tuple:
    return (entry.hostname, entry.masked_at, entry.store_path, entry.schema_columns,
            entry.row_count, entry.max_row_id, bytes(entry._encoded), entry._rows_at)


def check(payload: bytes) -> list:
    """Assert that open and decode agree with the reference on ``payload``;
    return the opened entries (empty when it is refused)."""
    ref = outcome(lambda: reference.open_entries(payload))
    got = outcome(lambda: opened(payload))
    if ref[0] == "raised" or got[0] == "raised":
        assert got == ref
        return []
    entries = got[1]
    assert [fields_of(e) for e in entries] == ref[1]
    for entry, (hostname, _, _, header, count, _, encoded, rows_at) in zip(entries, ref[1]):
        for columns in (header, tuple(reversed(header))):
            want = outcome(lambda: tagged(reference.store_rows(
                memoryview(encoded), rows_at, count, hostname, columns, "id")))
            assert outcome(lambda: tagged(entry.store_rows(columns, "id"))) == want
    return entries


def test_random_payloads_open_and_decode_as_the_reference():
    rng = random.Random(20131)
    entries = []
    for _ in range(300):
        entries += check(random_payload(rng))
    # both walks were taken: entries on their column list and entries off it
    assert {e._on_layout for e in entries} == {True, False}


def test_truncated_and_corrupted_payloads_are_refused_as_by_the_reference():
    rng = random.Random(20132)
    for _ in range(60):
        payload = random_payload(rng)
        for _ in range(15):
            check(payload[:rng.randrange(len(payload))])
            flipped = bytearray(payload)
            flipped[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
            check(bytes(flipped))


@pytest.mark.parametrize("name", [b"", b"timePasswordChange", b"timePasswordChangeD"])
def test_an_off_layout_last_cell_near_the_payload_end_opens(name):
    """The last cell, right before the payload's six-byte tail, has a name
    other than its column's; the empty one is too near the end to be read as
    that column's name field and value length."""
    row = struct.pack(">qH", 1, 2) + field(b"id") + value_field(1) + field(name)
    row += struct.pack(">I", NULL_LENGTH)
    entry = field(b"a.example") + struct.pack(">Q", 0) + field(b"/p")
    entry += struct.pack(">H", 2) + field(b"id") + field(b"timePasswordChanged")
    payload = struct.pack(">I", 1) + entry + struct.pack(">I", 1) + row + TAIL
    [opened_entry] = check(payload)
    assert opened_entry._on_layout is False
