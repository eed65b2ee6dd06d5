"""The bounded-memory matcher against the frozen dense one, bit for bit.

Every case compares the whole ``MatchResult`` (score, pair count and
transform, with ``==``) and the per-hypothesis bound vector of both
directions, which fixes the order the greedy pass visits hypotheses in.
Any warning from the matcher, such as a numpy float overflow, fails the case.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import matcher_reference as reference
from credmask import matching
from credmask.evaluation import generate_synthetic
from credmask.matching import MatchParams, match_templates
from credmask.minutiae import BIFURCATION, TERMINATION, Minutia, Template

from test_matching import moved, random_template

PEAK_LIMIT_MIB = 20.0


def assert_same(a, b, params=matching.DEFAULT_PARAMS):
    # match_templates silences its own float overflows; the bound passes,
    # called apart from it, do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = reference.match(a, b, params)
        assert match_templates(a, b, params) == expected
    with np.errstate(over="ignore", invalid="ignore"):
        for fa, fb in ((a, b), (b, a)):
            fa, fb = matching._as_arrays(fa), matching._as_arrays(fb)
            want = reference.bounds(fa, fb, params)
            hyp = matching._hypotheses(fa, fb, params.kind_strict)
            if want.size == 0:
                assert hyp[0].size == 0
                continue
            got = np.concatenate(list(matching._bound_chunks(fa, fb, hyp, params)))
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    return expected


def peak_mib(a, b, params=matching.DEFAULT_PARAMS):
    tracemalloc.start()
    try:
        match_templates(a, b, params)
        return tracemalloc.get_traced_memory()[1] / (1024.0 * 1024.0)
    finally:
        tracemalloc.stop()


def template_of(rows):
    return Template(tuple(Minutia(float(x), float(y), float(t), k) for x, y, t, k in rows))


def test_seed_7_synthetic_dataset():
    records = generate_synthetic(seed=7, n_templates=50, minutiae_per_template=20)
    for record in records:
        for probe in record.genuine_probes + record.impostor_probes:
            assert_same(record.template, probe)


@pytest.mark.parametrize("kind_strict", [True, False])
@pytest.mark.parametrize("n1,n2", [(80, 12), (15, 80), (40, 40), (60, 25)])
def test_random_templates_with_non_default_tolerances(kind_strict, n1, n2):
    rng = np.random.default_rng(1000 * n1 + n2 + kind_strict)
    for distance, angle in ((1.0, 0.2), (7.5, math.pi / 6), (23.0, 1.0), (50.0, math.pi)):
        params = MatchParams(distance_tolerance=distance, angle_tolerance=angle,
                             kind_strict=kind_strict)
        a = random_template(rng, n=n1)
        b = random_template(rng, n=n2)
        assert_same(a, b, params)
        # a jittered rigid copy, so the best hypotheses pair many minutiae
        shared = min(n1, n2)
        jitter = rng.normal(0.0, distance / 3, size=(shared, 2))
        near = Template(tuple(
            Minutia(m.x + float(dx), m.y + float(dy), m.theta, m.kind)
            for m, (dx, dy) in zip(a.minutiae[:shared], jitter)))
        assert_same(a, moved(near, 1.1, 30.0, -45.0), params)


def test_genuine_probes_up_to_80_minutiae():
    for n in (20, 40, 60):
        record = generate_synthetic(11, 2, n, deletion_rate=0.0,
                                    probes_per_template=1, impostors_per_template=1)[0]
        result = assert_same(record.template, record.genuine_probes[0])
        assert result.matched_pairs > n // 2


def test_duplicate_minutiae():
    rng = np.random.default_rng(5)
    base = random_template(rng, n=12)
    doubled = Template(base.minutiae + base.minutiae[:6] + base.minutiae[:3])
    for params in (matching.DEFAULT_PARAMS, MatchParams(kind_strict=False)):
        assert assert_same(doubled, base, params).matched_pairs == 12
        assert_same(doubled, moved(doubled, 2.0, -7.0, 3.0), params)
        same = template_of([(5.0, 5.0, 0.0, TERMINATION)] * 9)
        assert assert_same(same, same, params).matched_pairs == 9


def test_negative_coordinates():
    rng = np.random.default_rng(6)
    a = random_template(rng, n=30, field=800.0)
    a = moved(a, 0.0, -1200.0, -900.0)
    assert all(m.x < 0 and m.y < 0 for m in a.minutiae)
    assert_same(a, moved(a, 0.7, -33.0, 12.5))
    assert_same(a, random_template(rng, n=25, field=400.0))
    straddling = moved(random_template(rng, n=30, field=60.0), 0.0, -30.0, -30.0)
    assert_same(straddling, moved(straddling, 3.0, 1.0, -2.0),
                MatchParams(distance_tolerance=4.0))


@pytest.mark.parametrize("tol", [1.0, 2.5, 10.0, 0.1, 37.0])
def test_pairs_at_exactly_the_distance_tolerance(tol):
    # a lattice of pitch tol around 0: neighbours sit exactly tol apart, across cell edges
    rows = [(i * tol, j * tol, 0.3, TERMINATION) for i in range(-3, 4) for j in range(-3, 3)]
    a = template_of(rows)
    shifted = template_of([(x + tol, y, t, k) for x, y, t, k in rows[::2]])
    params = MatchParams(distance_tolerance=tol)
    assert_same(a, shifted, params)
    assert_same(a, a, params)
    diagonal = template_of([(x - tol * 0.6, y + tol * 0.8, t, k) for x, y, t, k in rows])
    assert_same(a, diagonal, params)


@pytest.mark.parametrize("tol", [1e-170, 1e-300, 1e150, math.inf])
def test_extreme_distance_tolerances(tol):
    rng = np.random.default_rng(8)
    a = random_template(rng, n=15)
    b = Template(a.minutiae[:10] + random_template(rng, n=5).minutiae)
    params = MatchParams(distance_tolerance=tol, angle_tolerance=math.pi)
    assert_same(a, b, params)
    assert_same(a, moved(a, 0.5, 1e-160, 0.0), params)
    # a gap of 1e-163 squares to 0, so it passes any tolerance
    a = template_of([(0.0, 0.0, 0.0, TERMINATION), (0.0, 1.0, 0.0, TERMINATION)])
    b = template_of([(0.0, 0.0, 0.0, TERMINATION), (1e-163, 1.0, 0.0, TERMINATION)])
    assert assert_same(a, b, params).matched_pairs == 2


def spread_over_1e300(rng, n):
    return template_of(
        (x, y, t, TERMINATION if k else BIFURCATION)
        for x, y, t, k in zip(rng.uniform(-1e300, 1e300, n), rng.uniform(-1e300, 1e300, n),
                              rng.uniform(0, 2 * math.pi, n), rng.integers(0, 2, n)))


def with_far_outlier(template, x, y):
    return Template(template.minutiae + (Minutia(x, y, 1.0, TERMINATION),))


def test_hostile_coordinates_match_the_reference():
    rng = np.random.default_rng(9)
    spread = spread_over_1e300(rng, 24)
    assert_same(spread, spread)
    assert_same(spread, spread_over_1e300(rng, 18))
    assert_same(spread, moved(spread, 0.0, 1e300, -1e300))
    base = random_template(rng, n=30)
    for x, y in ((1e300, -1e300), (-1.7e308, 1.7e308), (3e5, 4e5)):
        far = with_far_outlier(base, x, y)
        probe = with_far_outlier(moved(base, 1.0, 20.0, 20.0), -x, y)
        assert_same(far, base)
        assert_same(far, probe)
        assert_same(far, probe, MatchParams(distance_tolerance=50.0))


def test_peak_memory_of_a_genuine_80_minutiae_match():
    record = generate_synthetic(3, 2, 80, deletion_rate=0.0,
                                probes_per_template=1, impostors_per_template=1)[0]
    assert match_templates(record.template, record.genuine_probes[0]).matched_pairs > 40
    assert peak_mib(record.template, record.genuine_probes[0]) < PEAK_LIMIT_MIB


def test_peak_memory_of_hostile_80_minutiae_matches():
    rng = np.random.default_rng(10)
    spread = spread_over_1e300(rng, 80)
    assert peak_mib(spread, spread) < PEAK_LIMIT_MIB
    base = random_template(rng, n=79)
    far = with_far_outlier(base, 1e300, -1e300)
    assert peak_mib(far, moved(far, 1.0, 20.0, 20.0)) < PEAK_LIMIT_MIB
    # every minutia within one tolerance of every other: no cell prunes anything
    clustered = random_template(rng, n=80, field=5.0)
    assert peak_mib(clustered, moved(clustered, 0.3, 1.0, 1.0)) < PEAK_LIMIT_MIB


# -- the search stops at the first hypothesis that pairs min(n1, n2) minutiae --

def polygon(n, radius=100.0, centre=(200.0, 200.0)):
    """A regular n-gon with radial directions: every rotation by 2*pi/n maps
    it onto itself, so against a rotated copy every reference pair is a
    perfect alignment."""
    return template_of(
        (centre[0] + radius * math.cos(t), centre[1] + radius * math.sin(t), t % (2 * math.pi),
         TERMINATION)
        for t in (2 * math.pi * k / n for k in range(n)))


def subset_probe(rng, a, keep):
    """The minutiae of a at the indices keep, jittered well inside the
    tolerances, under a rigid motion: a strict subset of a."""
    jitter = rng.normal(0.0, 0.5, size=(len(keep), 2))
    return moved(Template(tuple(
        Minutia(a.minutiae[i].x + float(dx), a.minutiae[i].y + float(dy),
                a.minutiae[i].theta, a.minutiae[i].kind)
        for i, (dx, dy) in zip(keep, jitter))), 2.3, -40.0, 75.0)


@pytest.fixture
def chunk_log(monkeypatch):
    """Per call of the bound pass: its hypothesis count and the sizes of the
    chunks the search consumed."""
    log = []
    real = matching._bound_chunks

    def counting(a, b, hyp, params):
        sizes = []
        log.append((hyp[0].size, sizes))
        for chunk in real(a, b, hyp, params):
            sizes.append(chunk.size)
            yield chunk

    monkeypatch.setattr(matching, "_bound_chunks", counting)
    return log


def first_perfect(a, b, params):
    """Index of the first hypothesis, in index order, that pairs every
    minutia of the smaller template, found with the dense reference."""
    fa, fb = matching._as_arrays(a), matching._as_arrays(b)
    m, transform = reference.best_alignment(fa, fb, params)
    assert m == min(len(a), len(b))
    bound = reference.bounds(fa, fb, params)
    hyp = matching._hypotheses(fa, fb, params.kind_strict)
    # a hypothesis with the same transform pairs the same minutiae
    return next(h for h in np.flatnonzero(bound == m)
                if matching._transform(hyp, h) == transform)


def with_centre_minutiae(template, every=3):
    """template with a minutia near its centre after every few of its own."""
    rows = []
    for k, m in enumerate(template.minutiae):
        rows.append(m)
        if k % every == every - 1:
            rows.append(Minutia(190.0 + 7.0 * (k % 4), 195.0 + 3.0 * (k % 5), 0.1 * k, m.kind))
    return Template(tuple(rows))


@pytest.mark.parametrize("kind_strict", [True, False])
@pytest.mark.parametrize("n", [6, 12, 24, 36])
def test_symmetric_template_returns_the_first_perfect_hypothesis(kind_strict, n):
    params = MatchParams(kind_strict=kind_strict)
    poly = polygon(n)
    rotated = moved(poly, 0.4, 30.0, -20.0)
    # the centre minutiae interleave low bounds with the perfect hypotheses,
    # so an order by falling bound that does not keep index order among
    # ties picks another perfect hypothesis
    for a, b in ((poly, rotated), (poly, moved(poly, 2 * math.pi / n, 0.0, 0.0)),
                 (with_centre_minutiae(poly), rotated)):
        for x, y in ((a, b), (b, a)):
            assert assert_same(x, y, params).matched_pairs == n
        fa, fb = matching._as_arrays(a), matching._as_arrays(b)
        assert np.count_nonzero(reference.bounds(fa, fb, params) == n) > 1


@pytest.mark.parametrize("kind_strict", [True, False])
def test_strict_subset_probe(kind_strict):
    rng = np.random.default_rng(12)
    params = MatchParams(kind_strict=kind_strict)
    for n1, keep in ((30, range(0, 30, 3)), (40, range(25, 40)), (24, range(1, 24))):
        a = random_template(rng, n=n1)
        b = subset_probe(rng, a, list(keep))
        assert assert_same(a, b, params).matched_pairs == len(b)
        assert assert_same(b, a, params).matched_pairs == len(b)


@pytest.mark.parametrize("kind_strict", [True, False])
@pytest.mark.parametrize("chunk_elements", [1, 2 ** 8, 2 ** 11])
def test_first_perfect_hypothesis_in_a_late_chunk(monkeypatch, chunk_log, kind_strict,
                                                  chunk_elements):
    monkeypatch.setattr(matching, "_CHUNK_ELEMENTS", chunk_elements)
    rng = np.random.default_rng(13)
    params = MatchParams(kind_strict=kind_strict)
    a = random_template(rng, n=40)
    # only the last minutiae of a have a counterpart, so every perfect
    # hypothesis comes late in index order
    b = subset_probe(rng, a, range(28, 40))
    assert assert_same(a, b, params).matched_pairs == 12
    chunk_log.clear()
    match_templates(a, b, params)
    [(_, sizes)] = chunk_log
    assert first_perfect(a, b, params) >= sizes[0]


@pytest.mark.parametrize("kind_strict", [True, False])
def test_a_perfect_match_stops_at_the_chunk_of_its_first_perfect_hypothesis(
        monkeypatch, chunk_log, kind_strict):
    monkeypatch.setattr(matching, "_CHUNK_ELEMENTS", 2 ** 9)
    rng = np.random.default_rng(14)
    params = MatchParams(kind_strict=kind_strict)
    for n1, keep in ((40, range(28, 40)), (30, range(0, 30, 2)), (20, range(20))):
        a = random_template(rng, n=n1)
        b = subset_probe(rng, a, list(keep))
        h = first_perfect(a, b, params)
        chunk_log.clear()
        assert match_templates(a, b, params).matched_pairs == len(b)
        # one direction only, and no chunk past the one that holds h
        [(total, sizes)] = chunk_log
        assert sum(sizes[:-1]) <= h < sum(sizes) <= total


@pytest.mark.parametrize("kind_strict", [True, False])
def test_an_impostor_bounds_every_chunk_in_both_directions(monkeypatch, chunk_log,
                                                           kind_strict):
    monkeypatch.setattr(matching, "_CHUNK_ELEMENTS", 2 ** 9)
    params = MatchParams(kind_strict=kind_strict)
    record = generate_synthetic(7, 2, 30, probes_per_template=1, impostors_per_template=1)[0]
    result = match_templates(record.template, record.impostor_probes[0], params)
    assert result.matched_pairs < 30
    assert len(chunk_log) == 2
    for total, sizes in chunk_log:
        assert len(sizes) > 1
        assert sum(sizes) == total


# -- the cell lookup: a table over the blocks' box, or binary search when it is sparse --

@pytest.fixture
def lookups(monkeypatch):
    """The cell lookup of each chunk the bound pass bounded: table or keys."""
    log = []
    for name, tag in (("_find_in_table", "table"), ("_find_in_keys", "keys")):
        def spy(*args, real=getattr(matching, name), tag=tag, **kwargs):
            log.append(tag)
            return real(*args, **kwargs)
        monkeypatch.setattr(matching, name, spy)
    return log


SIDE = matching._CELL_SCALE * 10.0  # the cell width at the default tolerance


def in_cells(points, theta=0.5, kind=TERMINATION):
    """Minutiae at the given points, in cells of the default tolerance's grid."""
    return template_of((x * SIDE, y * SIDE, theta, kind) for x, y in points)


EDGE_CELLS = [(2, 3), (6, 5), (4, 4), (2, 5), (6, 3)]


def edge_case():
    """Minutiae of a in cell columns 2..6 and rows 3..5, so its blocks span
    columns 1..7 and rows 2..6, and the table with its border columns 0..8
    and rows 1..7. b holds a, so the identity is a hypothesis, and minutiae
    that pair with one of a from the blocks' first and last rows and columns,
    minutiae on the border, and minutiae one cell off the table."""
    a = in_cells([(x + 0.5, y + 0.5) for x, y in EDGE_CELLS])
    edges = in_cells([(1.9, 3.5), (7.1, 5.5), (2.5, 2.9), (6.5, 6.1)])
    border = in_cells([(0.5, 4.5), (8.5, 4.5), (4.5, 1.5), (4.5, 7.5)])
    off = in_cells([(-0.5, 4.5), (9.5, 4.5), (4.5, 0.5), (4.5, 8.5)])
    return a, Template(a.minutiae + edges.minutiae + border.minutiae + off.minutiae)


def clamp_case():
    """Every minutia past the +-_CELL_LIMIT clamp, some just inside it: a's
    blocks sit on the clamped edge cells, and pairs straddle the clamp."""
    edge = matching._CELL_LIMIT * SIDE
    rows = [(edge - 3.0, -edge + 2.0), (edge + 4.0, -edge - 3.0), (edge * 4, -edge * 4),
            (edge * 4 + 6.0, -edge * 4 - 1.0), (1e300, -1e300), (edge - 2.5 * SIDE, -edge)]
    a = template_of((x, y, 0.3, TERMINATION) for x, y in rows)
    b = template_of((x + 1.5, y - 2.0, 0.35, TERMINATION) for x, y in rows[::-1])
    return a, b


def infinite_case():
    """An infinite tolerance, where every cell is 0 and a coordinate that
    overflows to inf pairs with every minutia."""
    rng = np.random.default_rng(16)
    base = random_template(rng, n=10)
    return (with_far_outlier(base, 1.7e308, -1.7e308),
            with_far_outlier(moved(base, 0.8, 20.0, 0.0), -1.7e308, 1.7e308))


def synthetic_case():
    record = generate_synthetic(seed=7, n_templates=2, minutiae_per_template=20,
                                impostors_per_template=1)[0]
    return record.template, record.genuine_probes[0]


def random_case():
    return (random_template(np.random.default_rng(17), n=30),) * 2


def spread_case():
    return (spread_over_1e300(np.random.default_rng(18), 20),) * 2


@pytest.mark.parametrize("case,params,lookup", [
    (synthetic_case, matching.DEFAULT_PARAMS, "table"),
    (edge_case, matching.DEFAULT_PARAMS, "table"),
    (clamp_case, matching.DEFAULT_PARAMS, "table"),
    (infinite_case, MatchParams(distance_tolerance=math.inf, angle_tolerance=math.pi), "table"),
    # a cell of a tolerance of 1 is too small for the table over a 400-wide field
    (random_case, MatchParams(distance_tolerance=1.0), "keys"),
    (spread_case, matching.DEFAULT_PARAMS, "keys"),
])
def test_each_cell_lookup_matches_the_reference(lookups, case, params, lookup):
    a, b = case()
    assert_same(a, b, params)
    assert set(lookups) == {lookup}


@pytest.mark.parametrize("case,tol", [(edge_case, 10.0), (clamp_case, 10.0),
                                      (infinite_case, math.inf)])
def test_table_and_keys_find_the_same_block_for_every_cell(monkeypatch, case, tol):
    fa = matching._as_arrays(case()[0])
    side = matching._CELL_SCALE * tol
    table, starts, counts, members = matching._cell_blocks(fa, side)
    assert table.func is matching._find_in_table
    monkeypatch.setattr(matching, "_SLOTS_PER_BLOCK", 0)
    keys, *rest = matching._cell_blocks(fa, side)
    assert keys.func is matching._find_in_keys
    for want, got in zip((starts, counts, members), rest):
        np.testing.assert_array_equal(want, got)
    # cell edges and centres over the table and three cells around it, and
    # coordinates that overflowed
    x0, x1, y0, y1 = table.keywords["box"]
    scale = side if math.isfinite(side) else 1.0
    x, y = ((np.arange(lo - 3, hi + 4)[:, None] + np.array([0.0, 0.5, 1.0 - 1e-9])).ravel()
            for lo, hi in ((x0, x1), (y0, y1)))
    x, y = (np.append(v * scale, [np.inf, -np.inf, np.nan]) for v in (x, y))
    gx, gy = (g.ravel() for g in np.meshgrid(x, y))
    with np.errstate(over="ignore", invalid="ignore"):
        found = table(gx, gy)
        np.testing.assert_array_equal(found, keys(gx, gy))
    assert counts[found].sum() > 0
    if case is edge_case:
        # a cell holds a minutia exactly when it is within one cell of one of
        # a; the border and the cells off the table hold none
        assert (x0, x1, y0, y1) == (0, 8, 1, 7)
        near = {(x + dx, y + dy) for x, y in EDGE_CELLS for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
        for cx, cy, f in zip(np.floor(gx / side), np.floor(gy / side), found):
            if math.isfinite(cx) and math.isfinite(cy):
                assert bool(counts[f]) == ((cx, cy) in near)


# -- the chunk schedule --------------------------------------------------------------

def block_count(fa, params):
    side = matching._CELL_SCALE * params.distance_tolerance
    return int(matching._cell_blocks(fa, side)[2].max())


@pytest.mark.parametrize("chunk_elements", [1, 2 ** 8, 2 ** 11, matching._CHUNK_ELEMENTS])
@pytest.mark.parametrize("n1,n2", [(30, 30), (12, 40), (40, 12)])
def test_chunks_double_up_to_the_fixed_step(monkeypatch, chunk_log, chunk_elements, n1, n2):
    monkeypatch.setattr(matching, "_CHUNK_ELEMENTS", chunk_elements)
    rng = np.random.default_rng(19)
    params = MatchParams(distance_tolerance=25.0)  # several minutiae per block
    a, b = random_template(rng, n=n1), random_template(rng, n=n2)
    assert match_templates(a, b, params).matched_pairs < min(n1, n2)
    assert len(chunk_log) == 2
    for (total, sizes), (x, y) in zip(chunk_log, ((a, b), (b, a))):
        k, ny = block_count(matching._as_arrays(x), params), len(y)
        assert k > 1
        # at most _CHUNK_ELEMENTS (a, moved b) pairs, unless one hypothesis has more
        assert all(size * ny * k <= chunk_elements or size == 1 for size in sizes)
        ends = np.cumsum(sizes).tolist()
        assert ends[-1] == total
        step = max(1, chunk_elements // (ny * k))
        # every end of the fixed schedule, and below its first g, 2*g, 4*g, ...
        # from g = n2 hypotheses, or more if those have room for fewer than
        # _MIN_CHUNK_ELEMENTS pairs
        assert set(range(step, total, step)) <= set(ends)
        grow = max(ny, matching._MIN_CHUNK_ELEMENTS // (ny * k))
        doubling = [grow * 2 ** i for i in range(total.bit_length())]
        first = min(step, total)
        assert [e for e in ends if e < first] == [e for e in doubling if e < first]


@pytest.mark.parametrize("kind_strict", [True, False])
def test_a_perfect_match_below_n2_consumes_one_chunk(chunk_log, kind_strict):
    rng = np.random.default_rng(20)
    params = MatchParams(kind_strict=kind_strict)
    for n1, keep in ((40, range(0, 40, 3)), (30, range(20)), (80, range(0, 80, 2))):
        a = random_template(rng, n=n1)
        b = subset_probe(rng, a, list(keep))
        assert first_perfect(a, b, params) < len(b)
        chunk_log.clear()
        assert match_templates(a, b, params).matched_pairs == len(b)
        [(total, [size])] = chunk_log
        assert len(b) <= size < total
