import math

import numpy as np
import pytest

from credmask.matching import match_templates
from credmask.minutiae import BIFURCATION, TERMINATION, Minutia, Template


def random_template(rng, n=20, field=400.0):
    return Template(tuple(
        Minutia(float(rng.uniform(0, field)), float(rng.uniform(0, field)),
                float(rng.uniform(0, 2 * math.pi)),
                TERMINATION if rng.integers(0, 2) == 0 else BIFURCATION)
        for _ in range(n)
    ))


def moved(template, rot, dx, dy):
    c, s = math.cos(rot), math.sin(rot)
    return Template(tuple(
        Minutia(c * m.x - s * m.y + dx, s * m.x + c * m.y + dy,
                m.theta + rot, m.kind)
        for m in template.minutiae
    ))


def test_self_match_is_exactly_one():
    rng = np.random.default_rng(0)
    for _ in range(5):
        t = random_template(rng)
        result = match_templates(t, t)
        assert result.score == 1.0
        assert result.matched_pairs == 20


def test_rigid_motion_scores_one():
    rng = np.random.default_rng(1)
    t = random_template(rng)
    assert match_templates(t, moved(t, math.radians(30), 50.0, -20.0)).score == 1.0


def test_many_random_rigid_motions_score_one():
    rng = np.random.default_rng(2)
    t = random_template(rng)
    for _ in range(10):
        rot = float(rng.uniform(0, 2 * math.pi))
        dx, dy = (float(v) for v in rng.uniform(-200, 200, size=2))
        assert match_templates(t, moved(t, rot, dx, dy)).score == 1.0


def test_score_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_template(rng, n=int(rng.integers(5, 25)))
        b = random_template(rng, n=int(rng.integers(5, 25)))
        assert match_templates(a, b).score == match_templates(b, a).score


def test_incompatible_constellations_match_only_the_reference_pair():
    # collinear points with incommensurate spacings: no alignment can pair
    # more than the two reference minutiae themselves
    a = Template(tuple(
        Minutia(100.0 * i, 0.0, 0.0, TERMINATION) for i in range(1, 11)))
    b = Template(tuple(
        Minutia(157.0 * i, 0.0, 0.0, TERMINATION) for i in range(1, 11)))
    result = match_templates(a, b)
    assert result.matched_pairs == 1
    assert result.score == pytest.approx(0.1)
    assert result.score <= 0.1


def test_disjoint_kinds_score_zero_when_strict():
    a = Template(tuple(Minutia(10.0 * i, 0.0, 0.0, TERMINATION) for i in range(5)))
    b = Template(tuple(Minutia(10.0 * i, 0.0, 0.0, BIFURCATION) for i in range(5)))
    assert match_templates(a, b).score == 0.0


def test_empty_templates():
    empty = Template()
    full = Template((Minutia(0, 0, 0, TERMINATION),))
    assert match_templates(empty, empty).score == 0.0
    assert match_templates(empty, full).score == 0.0
    assert match_templates(full, empty).score == 0.0


def test_score_bounds_and_pair_cap_on_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = random_template(rng, n=int(rng.integers(1, 15)), field=100)
        b = random_template(rng, n=int(rng.integers(1, 15)), field=100)
        r = match_templates(a, b)
        assert 0.0 <= r.score <= 1.0
        assert r.matched_pairs <= min(r.n1, r.n2)
        assert r.score == pytest.approx(2 * r.matched_pairs / (r.n1 + r.n2))


def test_matching_is_deterministic():
    rng = np.random.default_rng(5)
    a = random_template(rng, field=60)
    b = random_template(rng, field=60)
    first = match_templates(a, b)
    again = match_templates(a, b)
    assert first == again


def test_distance_tolerance_is_ten_pixels():
    a = Template((Minutia(0, 0, 0.0, TERMINATION), Minutia(30, 0, 0.0, TERMINATION)))
    for gap, pairs in ((10.0, 2), (10.01, 1)):
        b = Template((Minutia(0, 0, 0.0, TERMINATION), Minutia(30 + gap, 0, 0.0, TERMINATION)))
        assert match_templates(a, b).matched_pairs == pairs


def test_angle_tolerance_gates_pairs():
    a = Template((Minutia(0, 0, 0.0, TERMINATION), Minutia(30, 0, 0.0, TERMINATION)))
    # same positions; second minutia's angle is off by more than the tolerance
    b = Template((Minutia(0, 0, 0.0, TERMINATION), Minutia(30, 0, 1.2, TERMINATION)))
    result = match_templates(a, b)
    assert result.matched_pairs == 1
