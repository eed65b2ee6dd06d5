"""The bounded-memory matcher against the frozen dense one, bit for bit.

Every case compares the whole ``MatchResult`` (score, pair count and
transform, with ``==``) and the per-hypothesis bound vector of both
directions, which fixes the order the greedy pass visits hypotheses in.
"""

import math
import tracemalloc

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
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference.match(a, b, params)
        assert match_templates(a, b, params) == expected
        for fa, fb in ((a, b), (b, a)):
            fa, fb = matching._as_arrays(fa), matching._as_arrays(fb)
            want = reference.bounds(fa, fb, params)
            hyp = matching._hypotheses(fa, fb, params.kind_strict)
            if want.size == 0:
                assert hyp[0].size == 0
                continue
            got = matching._bounds(fa, fb, hyp, params)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    return expected


def peak_mib(a, b, params=matching.DEFAULT_PARAMS):
    tracemalloc.start()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
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
