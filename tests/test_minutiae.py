import math
import tracemalloc

import pytest

from credmask import minutiae as minutiae_module
from credmask.minutiae import (
    BIFURCATION,
    MAX_TEMPLATE_BYTES,
    MAX_TEMPLATE_MINUTIAE,
    TERMINATION,
    Minutia,
    Template,
    load_template,
    save_template,
)


# -- minutia/template types --------------------------------------------------------------

def test_theta_normalized_into_range():
    m = Minutia(1.0, 2.0, -math.pi / 2, TERMINATION)
    assert m.theta == pytest.approx(3 * math.pi / 2)
    assert Minutia(0, 0, 2 * math.pi, TERMINATION).theta == 0.0


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        Minutia(0, 0, 0, "island")


def test_nonfinite_coordinates_rejected():
    with pytest.raises(ValueError):
        Minutia(float("nan"), 0, 0, TERMINATION)


# -- .min format -----------------------------------------------------------------------

def test_min_round_trip(tmp_path):
    template = Template(tuple(
        Minutia(1.25 * i, 400.0 - 3.5 * i, (0.7 * i) % (2 * math.pi),
                TERMINATION if i % 3 else BIFURCATION)
        for i in range(12)
    ), source_id="probe")
    path = tmp_path / "probe.min"
    save_template(template, path)
    loaded = load_template(path)
    assert loaded.minutiae == template.minutiae
    assert loaded.source_id == "probe"
    first_line = path.read_text().splitlines()[0]
    assert first_line == "MIN1 12"


def test_min_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.min"
    p.write_text("MIN9 1\n0 0 0 T\n")
    with pytest.raises(ValueError):
        load_template(p)


def test_min_rejects_count_mismatch(tmp_path):
    p = tmp_path / "bad.min"
    p.write_text("MIN1 2\n0 0 0 T\n")
    with pytest.raises(ValueError):
        load_template(p)


def test_min_rejects_bad_kind(tmp_path):
    p = tmp_path / "bad.min"
    p.write_text("MIN1 1\n0 0 0 Q\n")
    with pytest.raises(ValueError):
        load_template(p)


def write_min(path, count, x=31415.92653, y=-27182.81828):
    path.write_text(f"MIN1 {count}\n" + f"{x!r} {y!r} 1.0 T\n" * count)
    return path


def test_min_loads_255_minutiae(tmp_path):
    loaded = load_template(write_min(tmp_path / "full.min", 255))
    assert len(loaded) == MAX_TEMPLATE_MINUTIAE == 255


def test_min_refuses_256_minutiae_before_parsing_any(tmp_path, monkeypatch):
    path = write_min(tmp_path / "over.min", 256)
    built = []
    monkeypatch.setattr(minutiae_module, "Minutia",
                        lambda *args: built.append(args) or Minutia(*args))
    with pytest.raises(ValueError) as info:
        load_template(path)
    assert built == []
    message = str(info.value)
    assert "256" in message and "255" in message
    assert "31415.92653" not in message and "27182.81828" not in message


def test_min_loads_255_minutiae_at_the_longest_float_repr(tmp_path):
    tiny = 2.2250738585072014e-308
    template = Template(tuple(Minutia(-tiny, -tiny, tiny, BIFURCATION) for _ in range(255)))
    path = tmp_path / "longest.min"
    save_template(template, path)
    assert len(repr(-tiny)) == 24
    assert path.stat().st_size <= MAX_TEMPLATE_BYTES
    assert load_template(path) == Template(template.minutiae, source_id="longest")


@pytest.mark.parametrize("header", ["MIN1 256\n", "MIN1 255\n"])
def test_min_refuses_a_20_mib_file_in_bounded_memory(tmp_path, header):
    # MIN1 256 over 20 MiB of minutiae, or a valid header over one 20 MiB line
    line = "31415.92653 -27182.81828 1.0 T\n" if header == "MIN1 256\n" else "7"
    path = tmp_path / "huge.min"
    with path.open("w") as fh:
        fh.write(header)
        chunk = line * (1024 * 1024 // len(line))
        for _ in range(20):
            fh.write(chunk)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            load_template(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    assert "31415" not in str(info.value) and "777" not in str(info.value)
