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
same step. Each payload is opened three times, decoding no host, every host
and a random few: the rows decoded at open must be the reference's decoded
rows, and an entry whose rows the reference cannot decode opens all the same
and raises the reference's exception class only when its rows are asked for.
The reference predates one entry per hostname: a payload it opens whose
hostnames repeat must raise ValueError, so the random payloads name each host
once.
"""

import random
import struct

import pytest

from credmask.errors import SchemaMismatchError
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
HOSTNAMES = ["", "a.example", "bücher.example", "b.example", "ü", "login.example.org"]
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


def entry_bytes(rng: random.Random, hostname: str, header: tuple[str, ...],
                first_id: int) -> bytes:
    count = rng.randint(1, 5)
    # most entries keep every row on their column list, as the encoder writes them
    kinds = ["on"] * count if rng.random() < 0.5 else [rng.choice(ROW_KINDS)
                                                       for _ in range(count)]
    out = field(hostname.encode())
    out += struct.pack(">Q", rng.getrandbits(64))
    out += field("/profile/signons.sqlite".encode())
    out += struct.pack(">H", len(header)) + b"".join(field(c.encode()) for c in header)
    out += struct.pack(">I", count)
    for i, kind in enumerate(kinds):
        out += row_bytes(rng, first_id + rng.choice([i, -i, 2 ** 40]), header, kind)
    return out


def random_payload(rng: random.Random) -> bytes:
    count = rng.randint(1, 6)
    entries = b"".join(entry_bytes(rng, hostname, rng.choice(HEADERS), rng.randint(-5, 10 ** 6))
                       for hostname in rng.sample(HOSTNAMES, count))
    return struct.pack(">I", count) + entries + TAIL


def outcome(fn):
    """What ``fn`` returns, or the class of what it raises."""
    try:
        return "ok", fn()
    except Exception as exc:  # the class is the outcome compared
        return "raised", type(exc)


def opened(payload: bytes, decode=()):
    vf = VaultFile.__new__(VaultFile)
    vf.auth_token = b"t" * 16
    vf._deserialize(payload, decode)
    return list(vf.entries.values())


def decoded_at_open(entry, columns: tuple[str, ...]) -> list[tuple[int, tuple]]:
    """The rows the open decoded, as the reference's ``_decode_rows`` gives
    them: (row id, values in ``columns`` order)."""
    rows = []
    for run in entry._rows:
        if isinstance(run, Exception):  # a cell that did not decode ends the runs
            raise run
        names, ids, values = run
        names = entry.schema_columns if names is None else names
        for k, row_id in enumerate(ids):
            if sorted(names) != sorted(columns):
                raise SchemaMismatchError(f"row {row_id}: {names} != {columns}")
            cells = dict(zip(names, values[k * len(names):(k + 1) * len(names)]))
            rows.append((row_id, tuple(cells[c] for c in columns)))
    return rows


def tagged_pairs(rows) -> list:
    return [(row_id, *tagged([values])) for row_id, values in rows]


def fields_of(entry) -> tuple:
    return (entry.hostname, entry.masked_at, entry.store_path, entry.schema_columns,
            entry.row_count, entry.max_row_id, bytes(entry._encoded), entry._rows_at)


def check(payload: bytes, reached: set | None = None) -> list:
    """Assert that open and decode agree with the reference on ``payload``,
    decoding at open no host, every host and a few drawn by the payload's own
    seed; return the entries opened without decoding (empty when the payload
    is refused). ``reached`` collects where asked-for entries were decoded,
    and which walks their rows took."""
    ref = outcome(lambda: reference.open_entries(payload))
    if ref[0] == "ok" and len({fields[0] for fields in ref[1]}) < len(ref[1]):
        ref = "raised", ValueError  # a hostname repeats
    pick = random.Random(payload)
    some = set(pick.sample(HOSTNAMES, pick.randint(1, len(HOSTNAMES))))
    found = []
    for decode in ((), None, some):
        got = outcome(lambda: opened(payload, decode))
        if ref[0] == "raised" or got[0] == "raised":
            assert got == ref
            continue
        entries = got[1]
        found.append(entries)
        assert [fields_of(e) for e in entries] == ref[1]
        for entry, (hostname, _, _, header, count, _, encoded, rows_at) in zip(entries, ref[1]):
            wanted = decode is None or hostname in decode
            for columns in (header, tuple(reversed(header))):
                want = outcome(lambda: tagged(reference.store_rows(
                    memoryview(encoded), rows_at, count, hostname, columns, "id")))
                assert outcome(lambda: tagged(entry.store_rows(columns, "id"))) == want
                rows = outcome(lambda: tagged_pairs(reference._decode_rows(
                    memoryview(encoded), rows_at, count, columns, hostname)))
                assert (entry._rows is not None) == wanted
                if wanted:
                    assert outcome(lambda: tagged_pairs(decoded_at_open(entry, columns))) == rows
                if wanted and reached is not None:
                    *runs, last = entry._rows
                    if isinstance(last, ValueError):
                        reached.add("left to store_rows")
                    else:
                        runs.append(last)
                    reached.update("on the column list" if names is None else "off it"
                                   for names, ids, _ in runs if ids)
                    reached.add("at open")
    return found[0] if found else []


def test_random_payloads_open_and_decode_as_the_reference():
    rng = random.Random(20131)
    entries, reached = [], set()
    for _ in range(300):
        entries += check(random_payload(rng), reached)
    # both walks were taken: rows on their entry's column list and rows off it
    assert reached == {"at open", "on the column list", "off it"}


def test_truncated_and_corrupted_payloads_are_refused_as_by_the_reference():
    rng = random.Random(20132)
    reached = set()
    for _ in range(60):
        payload = random_payload(rng)
        for _ in range(15):
            check(payload[:rng.randrange(len(payload))], reached)
            flipped = bytearray(payload)
            flipped[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
            check(bytes(flipped), reached)
    # a flipped cell that only decoding refuses is left to store_rows
    assert {"at open", "left to store_rows"} <= reached


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
    reached = set()
    assert len(check(payload, reached)) == 1
    assert reached == {"at open", "off it"}
