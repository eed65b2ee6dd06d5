"""Frozen dense matcher: the reference for the differential matcher tests.

``best_alignment`` is a verbatim copy of the exhaustive search that built
every ``(H, n1, n2)`` tensor at once, kept so the bounded-memory matcher in
``credmask.matching`` can be checked against it bit for bit. Its cost is
O(n1^2 n2^2) time and memory: n=80 needs about 660 MiB, so use it only on
the small inputs of the tests. ``bounds`` is the same code stopped at the
per-hypothesis upper bound, in hypothesis order. Both pair minutiae of the
same kind within the tolerances below, their own copy of the matcher's.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from credmask import matching
from credmask.matching import _greedy_pairs
from credmask.minutiae import TWO_PI

DISTANCE_TOLERANCE = 10.0
ANGLE_TOLERANCE = math.pi / 6


def match(a, b) -> matching.MatchResult:
    """``match_templates`` with the frozen dense search in place of the new one."""
    with mock.patch.object(matching, "_best_alignment", best_alignment):
        return matching.match_templates(a, b)


def best_alignment(a, b) -> int:
    ax, ay, atheta, akind = a
    bx, by, btheta, bkind = b
    n1, n2 = ax.size, bx.size

    kind_ok = akind[:, None] == bkind[None, :]  # (n1, n2)
    ref_a, ref_b = np.nonzero(kind_ok)
    if ref_a.size == 0:
        return 0

    phi = atheta[ref_a] - btheta[ref_b]
    cos, sin = np.cos(phi), np.sin(phi)
    tx = ax[ref_a] - (cos * bx[ref_b] - sin * by[ref_b])
    ty = ay[ref_a] - (sin * bx[ref_b] + cos * by[ref_b])

    # Transformed b under every hypothesis: (H, n2)
    tbx = cos[:, None] * bx[None, :] - sin[:, None] * by[None, :] + tx[:, None]
    tby = sin[:, None] * bx[None, :] + cos[:, None] * by[None, :] + ty[:, None]
    tbtheta = np.mod(btheta[None, :] + phi[:, None], TWO_PI)

    dist2 = ((ax[None, :, None] - tbx[:, None, :]) ** 2
             + (ay[None, :, None] - tby[:, None, :]) ** 2)  # (H, n1, n2)
    dtheta = np.abs(atheta[None, :, None] - tbtheta[:, None, :])
    dtheta = np.minimum(dtheta, TWO_PI - dtheta)

    candidates = (dist2 <= DISTANCE_TOLERANCE ** 2) & (dtheta <= ANGLE_TOLERANCE)
    candidates &= kind_ok[None, :, :]

    # Cheap upper bound per hypothesis prunes the greedy pass to the few
    # alignments that could still beat the current best.
    bound = np.minimum(candidates.any(axis=2).sum(axis=1),
                       candidates.any(axis=1).sum(axis=1))
    order = np.argsort(-bound, kind="stable")

    best_m = 0
    cap = min(n1, n2)
    for h in order:
        if bound[h] <= best_m:
            break
        m = _greedy_pairs(candidates[h], dist2[h])
        if m > best_m:
            best_m = m
            if best_m == cap:
                break
    return best_m


def bounds(a, b) -> np.ndarray:
    """The per-hypothesis bound of ``best_alignment``; empty without hypotheses."""
    ax, ay, atheta, akind = a
    bx, by, btheta, bkind = b

    kind_ok = akind[:, None] == bkind[None, :]  # (n1, n2)
    ref_a, ref_b = np.nonzero(kind_ok)
    if ref_a.size == 0:
        return np.zeros(0, dtype=np.int64)

    phi = atheta[ref_a] - btheta[ref_b]
    cos, sin = np.cos(phi), np.sin(phi)
    tx = ax[ref_a] - (cos * bx[ref_b] - sin * by[ref_b])
    ty = ay[ref_a] - (sin * bx[ref_b] + cos * by[ref_b])

    tbx = cos[:, None] * bx[None, :] - sin[:, None] * by[None, :] + tx[:, None]
    tby = sin[:, None] * bx[None, :] + cos[:, None] * by[None, :] + ty[:, None]
    tbtheta = np.mod(btheta[None, :] + phi[:, None], TWO_PI)

    dist2 = ((ax[None, :, None] - tbx[:, None, :]) ** 2
             + (ay[None, :, None] - tby[:, None, :]) ** 2)  # (H, n1, n2)
    dtheta = np.abs(atheta[None, :, None] - tbtheta[:, None, :])
    dtheta = np.minimum(dtheta, TWO_PI - dtheta)

    candidates = (dist2 <= DISTANCE_TOLERANCE ** 2) & (dtheta <= ANGLE_TOLERANCE)
    candidates &= kind_ok[None, :, :]

    return np.minimum(candidates.any(axis=2).sum(axis=1),
                      candidates.any(axis=1).sum(axis=1))
