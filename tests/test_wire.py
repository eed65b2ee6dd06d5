import pytest

from credmask.wire import (
    NULL_LENGTH,
    Reader,
    TruncatedError,
    Writer,
    decode_cell_value,
    encode_cell_value,
    encode_rows,
)


@pytest.mark.parametrize("value", [
    0, 1, -1, 2**62, -(2**62),
    0.0, -2.5, 1e300,
    "", "hostname", "ümläut 世界",
    b"", b"\x00\xff\xfe", bytes(range(256)),
    None,
])
def test_cell_values_round_trip(value):
    assert decode_cell_value(encode_cell_value(value)) == value


def test_cell_encoding_is_type_tagged():
    # 1 and "1" and b"1" are distinct cells: storage class survives
    encoded = {encode_cell_value(v) for v in (1, "1", b"1", 1.0)}
    assert len(encoded) == 4


def test_bool_is_not_a_cell():
    with pytest.raises(TypeError):
        encode_cell_value(True)


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        decode_cell_value(b"zjunk")
    with pytest.raises(ValueError):
        decode_cell_value(b"")


@pytest.mark.parametrize("data", [b"i" + bytes(4), b"i" + bytes(9), b"f\x00\x00", b"f"])
def test_fixed_width_cell_of_another_length_rejected(data):
    with pytest.raises(ValueError, match="not 9"):
        decode_cell_value(data)


def test_writer_reader_round_trip():
    w = Writer()
    w.u8(7)
    w.u16(65535)
    w.u32(123456)
    w.u64(2**40)
    w.f64(3.25)
    w.text("text field")
    r = Reader(w.getvalue())
    assert (r.u8(), r.u16(), r.u32(), r.u64(), r.f64()) == (
        7, 65535, 123456, 2**40, 3.25)
    assert r.text() == "text field"
    assert r.exhausted()


def test_reader_truncation_detected():
    w = Writer()
    w.u32(10)  # announces 10 bytes that never arrive
    r = Reader(w.getvalue())
    with pytest.raises(TruncatedError):
        r.prefixed()


def test_null_sentinel_is_reserved():
    out = bytearray()
    encode_rows(out, [(7, None)], 0, [b"", b""])
    assert out[-4:] == NULL_LENGTH.to_bytes(4, "big")


@pytest.mark.parametrize("value", [
    0, -1, 2**63 - 1, -(2**63), -0.0, float("inf"), 5e-324,
    "", "nul\x00 ümlaut 世界", b"", b"\x00\xff", None,
])
def test_encode_rows_writes_each_cell_as_encode_cell_value_tags_it(value):
    out = bytearray(b"head")
    encode_rows(out, [("x", value, -5)], 2, [b"", b"P", b"QQ"])
    cells = [encode_cell_value(v) for v in ("x", value, -5)]
    fields = [NULL_LENGTH.to_bytes(4, "big") if c is None
              else len(c).to_bytes(4, "big") + c for c in cells]
    assert bytes(out) == (b"head" + (-5).to_bytes(8, "big", signed=True)
                          + (3).to_bytes(2, "big")
                          + fields[0] + b"P" + fields[1] + b"QQ" + fields[2])


def test_encode_rows_refuses_a_value_sqlite_cannot_hold():
    with pytest.raises(TypeError):
        encode_rows(bytearray(), [(1, True)], 0, [b"", b""])
