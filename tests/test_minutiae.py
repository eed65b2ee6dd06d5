import math
import tracemalloc

import numpy as np
import pytest

from credmask import minutiae as minutiae_module
from credmask.errors import BadMarginError, NotBinaryError, TraceTooShortError
from credmask.minutiae import (
    BIFURCATION,
    MAX_TEMPLATE_BYTES,
    MAX_TEMPLATE_MINUTIAE,
    TERMINATION,
    Minutia,
    Template,
    crossing_number,
    estimate_direction,
    extract_minutiae,
    load_skeleton_image,
    load_template,
    save_template,
)


# -- crossing number ------------------------------------------------------------

def transitions_oracle(ring):
    """Independent count: walk the ring and count 0->1 and 1->0 steps."""
    flips = 0
    for i in range(8):
        if ring[i] != ring[(i + 1) % 8]:
            flips += 1
    return flips // 2


def test_crossing_number_all_zero():
    assert crossing_number([0] * 8) == 0


def test_crossing_number_single_neighbor():
    for i in range(8):
        ring = [0] * 8
        ring[i] = 1
        assert crossing_number(ring) == 1


def test_crossing_number_three_isolated_neighbors():
    ring = [0] * 8
    for i in (0, 3, 5):
        ring[i] = 1
    assert crossing_number(ring) == 3


def test_crossing_number_matches_oracle_on_all_256_neighborhoods():
    for pattern in range(256):
        ring = [(pattern >> i) & 1 for i in range(8)]
        assert crossing_number(ring) == transitions_oracle(ring), ring


def test_crossing_number_validates_input():
    with pytest.raises(ValueError):
        crossing_number([0, 1, 2, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        crossing_number([0] * 7)


# -- extraction -------------------------------------------------------------------

def blank(h=30, w=30):
    return np.zeros((h, w), dtype=np.uint8)


def test_blank_image_has_no_minutiae():
    assert len(extract_minutiae(blank(), border_margin=5)) == 0


def test_horizontal_segment_yields_two_terminations():
    img = blank(30, 30)
    img[15, 5:25] = 1  # 20 pixels long, endpoints 5 px from the borders
    template = extract_minutiae(img, border_margin=5)
    assert len(template) == 2
    kinds = {m.kind for m in template.minutiae}
    assert kinds == {TERMINATION}
    left = min(template.minutiae, key=lambda m: m.x)
    right = max(template.minutiae, key=lambda m: m.x)
    assert left.theta == pytest.approx(0.0, abs=0.2)
    assert abs(right.theta - math.pi) < 0.2
    # y-up convention: row 15 in a 30-row image sits at y = 14
    assert left.y == 14.0 and right.y == 14.0


def test_y_junction_yields_one_bifurcation_and_three_terminations():
    img = blank(40, 40)
    jr, jc = 20, 20
    for step in range(1, 9):
        img[jr + step, jc] = 1           # stem going down
        img[jr - step, jc - step] = 1    # arm up-left
        img[jr - step, jc + step] = 1    # arm up-right
    img[jr, jc] = 1
    template = extract_minutiae(img, border_margin=3)
    kinds = sorted(m.kind for m in template.minutiae)
    assert kinds == [BIFURCATION, TERMINATION, TERMINATION, TERMINATION]
    fork = [m for m in template.minutiae if m.kind == BIFURCATION][0]
    assert (fork.x, fork.y) == (float(jc), float(39 - jr))


def test_border_margin_suppresses_edge_minutiae():
    img = blank(30, 30)
    img[15, 0:10] = 1  # left endpoint on the image edge
    with_margin = extract_minutiae(img, border_margin=5)
    without = extract_minutiae(img, border_margin=0)
    assert len(without) == 2
    assert len(with_margin) == 1  # only the interior endpoint survives


def test_extraction_is_row_major_deterministic():
    img = blank(30, 30)
    img[10, 5:15] = 1
    img[20, 5:15] = 1
    a = extract_minutiae(img, border_margin=2)
    b = extract_minutiae(img, border_margin=2)
    assert a.minutiae == b.minutiae
    ys = [m.y for m in a.minutiae]
    assert ys == sorted(ys, reverse=True)  # scan order: top image row first


def test_non_binary_image_rejected():
    img = blank()
    img[3, 3] = 7
    with pytest.raises(NotBinaryError):
        extract_minutiae(img)
    with pytest.raises(NotBinaryError):
        extract_minutiae(np.zeros((4, 4, 3), dtype=np.uint8))


def test_negative_margin_rejected():
    with pytest.raises(BadMarginError):
        extract_minutiae(blank(), border_margin=-1)


def test_bool_images_accepted():
    img = np.zeros((20, 20), dtype=bool)
    img[10, 4:16] = True
    assert len(extract_minutiae(img, border_margin=2)) == 2


# -- direction estimation -------------------------------------------------------------

def test_direction_right_pointing_ridge():
    img = blank()
    img[15, 10:20] = 1
    theta = estimate_direction(img, (15, 10))
    assert theta == pytest.approx(0.0, abs=1e-9)


def test_direction_up_pointing_ridge():
    img = blank()
    img[6:16, 10] = 1  # ridge extends upward (toward smaller rows) from (15, 10)
    theta = estimate_direction(img, (15, 10))
    assert theta == pytest.approx(math.pi / 2, abs=1e-9)


def test_direction_diagonal_ridge():
    img = blank()
    for step in range(10):
        img[15 - step, 10 + step] = 1
    theta = estimate_direction(img, (15, 10))
    assert theta == pytest.approx(math.pi / 4, abs=0.15)


def test_direction_of_bifurcation_is_stem_branch():
    img = blank(40, 40)
    jr, jc = 20, 20
    for step in range(1, 9):
        img[jr + step, jc] = 1
        img[jr - step, jc - step] = 1
        img[jr - step, jc + step] = 1
    img[jr, jc] = 1
    theta = estimate_direction(img, (jr, jc))
    # stem points down: most opposite the two up arms
    assert theta == pytest.approx(3 * math.pi / 2, abs=0.2)


def test_direction_isolated_pixel_fails():
    img = blank()
    img[5, 5] = 1
    with pytest.raises(TraceTooShortError):
        estimate_direction(img, (5, 5))


def test_direction_trace_length_must_be_sane():
    img = blank()
    img[15, 10:20] = 1
    with pytest.raises(ValueError):
        estimate_direction(img, (15, 10), trace_length=1)


def test_direction_short_ridge_uses_what_exists():
    img = blank()
    img[15, 10] = img[15, 11] = 1  # two pixels: one step is possible
    theta = estimate_direction(img, (15, 10), trace_length=5)
    assert theta == pytest.approx(0.0, abs=1e-9)


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


# -- skeleton images ------------------------------------------------------------------

def test_load_p5_graymap(tmp_path):
    img = blank(8, 6)
    img[3, 1:5] = 1
    raw = (img * 255).astype(np.uint8).tobytes()
    p = tmp_path / "skel.pgm"
    p.write_bytes(b"P5\n# a comment\n6 8\n255\n" + raw)
    assert np.array_equal(load_skeleton_image(p), img)


def test_load_p1_bitmap(tmp_path):
    p = tmp_path / "skel.pbm"
    p.write_bytes(b"P1\n4 2\n0 1 1 0\n0 0 0 1\n")
    assert load_skeleton_image(p).tolist() == [[0, 1, 1, 0], [0, 0, 0, 1]]


def test_load_p4_bitmap(tmp_path):
    # 10 wide: rows pad to 16 bits
    row1 = 0b1100000001_000000
    row2 = 0b0000000000_000000
    payload = row1.to_bytes(2, "big") + row2.to_bytes(2, "big")
    p = tmp_path / "skel.pbm"
    p.write_bytes(b"P4\n10 2\n" + payload)
    img = load_skeleton_image(p)
    assert img.shape == (2, 10)
    assert img[0].tolist() == [1, 1, 0, 0, 0, 0, 0, 0, 0, 1]
    assert img[1].tolist() == [0] * 10


def test_extract_from_pgm_end_to_end(tmp_path):
    img = blank(30, 30)
    img[15, 5:25] = 1
    p = tmp_path / "seg.pgm"
    p.write_bytes(b"P5 30 30 255 " + (img * 200).astype(np.uint8).tobytes())
    template = extract_minutiae(load_skeleton_image(p), border_margin=5)
    assert len(template) == 2
