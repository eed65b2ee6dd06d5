import pytest

from credmask.wire import (
    NULL_LENGTH,
    Reader,
    TruncatedError,
    Writer,
    decode_cell_value,
    encode_cell_value,
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
    w.i64(-12)
    w.f64(3.25)
    w.text("text field")
    w.cell(None)
    w.cell(b"payload")
    r = Reader(w.getvalue())
    assert (r.u8(), r.u16(), r.u32(), r.u64(), r.i64(), r.f64()) == (
        7, 65535, 123456, 2**40, -12, 3.25)
    assert r.text() == "text field"
    assert r.cell() is None
    assert r.cell() == b"payload"
    assert r.exhausted()


def test_reader_truncation_detected():
    w = Writer()
    w.u32(10)  # announces 10 bytes that never arrive
    r = Reader(w.getvalue())
    with pytest.raises(TruncatedError):
        r.prefixed()


def test_null_sentinel_is_reserved():
    w = Writer()
    w.cell(None)
    assert w.getvalue() == NULL_LENGTH.to_bytes(4, "big")
