"""Random rows of every storage class, spread over random hosts, encode per
host to exactly the bytes of the frozen encoders in ``vault_reference`` and
``dump_reference``: the keyed rows of ``wire.encode_rows`` and the entries of
``vault.encode_entries``, the path ``mask`` runs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from credmask.vault import encode_entries
from credmask.wire import encode_rows

import dump_reference
import vault_reference as reference

COLUMNS = ("a", "hostname", "id", "ünï", "c")
I64 = st.integers(-(2 ** 63), 2 ** 63 - 1)
TEXT = st.text(st.characters(codec="utf-8"), max_size=12)
CELL = st.one_of(st.none(), I64, st.floats(), TEXT, st.binary(max_size=12))


@st.composite
def hosts_and_rows(draw):
    """Up to 4 hostnames and up to 16 rows, each of a drawn one of them, in no order."""
    hosts = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    ids = draw(st.lists(I64, max_size=16, unique=True))
    return hosts, [(draw(CELL), draw(st.sampled_from(hosts)), row_id, draw(CELL), draw(CELL))
                   for row_id in ids]


@settings(max_examples=300, deadline=None, database=None)
@given(hosts_and_rows())
def test_keyed_rows_and_entries_are_the_frozen_encoders_bytes(case):
    hosts, rows = case
    fields = [len(name).to_bytes(4, "big") + name for name in map(str.encode, COLUMNS)]
    keyed = {host: [] for host in hosts}
    encode_rows(keyed, rows, COLUMNS.index("id"), fields, COLUMNS.index("hostname"))
    built = {host: (ids, entry) for host, ids, entry in
             encode_entries(rows, hosts, 1_700_000_000, "/p/ß.sqlite", COLUMNS, "id")}
    assert list(built) == [host for host in hosts if any(row[1] == host for row in rows)]
    for host in hosts:
        own = [row for row in rows if row[1] == host]
        expected = reference.encode_entry(host, 1_700_000_000, "/p/ß.sqlite", COLUMNS,
                                          dump_reference.login_rows(own, COLUMNS, "id"))
        header = len(reference.encode_entry(host, 1_700_000_000, "/p/ß.sqlite", COLUMNS, []))
        assert b"".join(keyed[host]) == expected[header:]
        if own:
            ids, entry = built[host]
            assert bytes(entry._encoded) == expected
            assert ids == tuple(row[2] for row in own)
            assert (entry.row_count, entry.max_row_id) == (len(own), max(ids))
