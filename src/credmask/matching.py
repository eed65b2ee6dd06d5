"""Template matching by exhaustive rigid-alignment search.

Two minutiae can pair when they are at most DISTANCE_TOLERANCE (10 px)
apart, their directions differ by at most ANGLE_TOLERANCE (pi/6), and they
are of the same kind. Every ordered reference pair of the same kind (one
minutia from each template) hypothesizes the rotation+translation that maps
the second template's reference onto the first, aligning both position and
direction. The motion is applied to the whole second template and moved
minutiae are greedily paired to the nearest unpaired counterparts that they
can pair with (nearest first, ties broken by lower index). The final pair
count is the maximum over all hypotheses, evaluated with the templates in
both roles, so the score is symmetric by construction. Score = 2*m / (n1 + n2),
which is 1.0 exactly for a self match and 0 for fully disjoint templates.

Cost. There are H = O(n1*n2) hypotheses. The greedy pass needs the pairs of
only the few hypotheses whose upper bound, min(#a with a candidate, #b with a
candidate), can still beat the best count so far. The bound is computed
exactly, but each moved minutia of b is tested only against the minutiae of a
in the 3x3 block of grid cells around it (a cell is about one distance
tolerance wide), and only the pairs within the distance tolerance get a moved
direction and the angle and kind tests. A moved minutia finds its block in
O(1), in a table over the bounding box of a's blocks. When that box would
hold more than _SLOTS_PER_BLOCK slots per block, as far-flung coordinates
make it, a binary search over the blocks' sorted keys takes its place, so
memory stays O(n1). That costs O(H*n2*(1 + k)) time, where k is the number
of minutiae of a in a block, plus O(H*n2*log n1) in the sparse case.
Hypotheses are bounded in index order, in chunks of at most _CHUNK_ELEMENTS
pairs, so memory stays bounded whatever the template size or coordinates.
The first chunks grow by doubling from n2 hypotheses (or from
_MIN_CHUNK_ELEMENTS pairs, if more), so a search that stops early bounds at
most about twice the hypotheses before its stop. Each visited hypothesis
costs one (n1, n2) pass. The search stops at a perfect alignment: the first
hypothesis that pairs min(n1, n2) minutiae ends it, with no further chunk
bounded and no reverse pass. A probe whose every minutia has a
counterpart stops early; an impostor, or a probe with spurious minutiae,
bounds every hypothesis in both directions. Scores and pair counts are
those of testing every pair of every hypothesis.

numpy is imported inside the functions that compute with it, so commands
that never match a fingerprint start without loading it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .minutiae import TERMINATION, TWO_PI, Template


# The pairing tolerances: pixels and radians.
DISTANCE_TOLERANCE = 10.0
ANGLE_TOLERANCE = math.pi / 6


class MatchResult(NamedTuple):
    """matched_pairs is the most minutiae one rigid alignment pairs at the
    fixed tolerances; score is 2 * matched_pairs / (n1 + n2)."""

    score: float
    matched_pairs: int
    n1: int
    n2: int


# The bound pass puts template a in square grid cells. A pair passes the
# distance test only if both its coordinate gaps are at most
# DISTANCE_TOLERANCE * (1 + 2**-50). Cells are 17/16 of the tolerance wide,
# so such a pair is under 0.95 cells apart; x / _CELL_SIDE is rounded by under
# 2**-22 cells within 2**31 cells of the origin, so its ends fall in the same
# or adjacent cells. Past that, indices clamp to +-_CELL_LIMIT, where both
# ends of such a pair clamp to the same edge cell.
_CELL_SIDE = 1.0625 * DISTANCE_TOLERANCE
_CELL_LIMIT = 2 ** 30
# More than the spread of row indices, neighbours of clamped cells included,
# so column * _KEY_WIDTH + row is one-to-one.
_KEY_WIDTH = 2 * _CELL_LIMIT + 3
# Most (a, moved b) pairs one chunk of the bound pass may hold, unless a
# single hypothesis has more.
_CHUNK_ELEMENTS = 2 ** 16
# Fewest pairs the first chunk has room for, unless a fixed chunk holds fewer.
# Each chunk costs some 80 numpy calls whatever its size, so a smaller one
# costs more than an early stop saves.
_MIN_CHUNK_ELEMENTS = 2 ** 12
# The bound pass finds cells in a table over template a's blocks when the
# table has at most this many slots per block that holds a minutia, and else
# by binary search, so memory stays O(n1) for far-flung coordinates.
_SLOTS_PER_BLOCK = 16


def match_templates(a: Template, b: Template) -> MatchResult:
    """Score in [0, 1] of the best rigid alignment of b onto a, pairing
    minutiae of the same kind within DISTANCE_TOLERANCE (10 px) and
    ANGLE_TOLERANCE (pi/6); symmetric in its arguments."""
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        return MatchResult(0.0, 0, n1, n2)
    import numpy as np
    fa = _as_arrays(a)
    fb = _as_arrays(b)
    # Coordinates that Minutia accepts can overflow to inf or NaN when moved
    # or squared. The distance test and _cells handle those values, so numpy
    # need not warn of them.
    with np.errstate(over="ignore", invalid="ignore"):
        m = _best_alignment(fa, fb)
        # no reverse pairing can beat one that pairs every minutia of a template
        if m < min(n1, n2):
            m = max(m, _best_alignment(fb, fa))
    return MatchResult(score=2.0 * m / (n1 + n2), matched_pairs=m, n1=n1, n2=n2)


# -- internals ------------------------------------------------------------------

def _as_arrays(t: Template):
    import numpy as np
    x = np.array([m.x for m in t.minutiae], dtype=np.float64)
    y = np.array([m.y for m in t.minutiae], dtype=np.float64)
    theta = np.array([m.theta for m in t.minutiae], dtype=np.float64)
    kind = np.array([0 if m.kind == TERMINATION else 1 for m in t.minutiae],
                    dtype=np.int8)
    return x, y, theta, kind


def _best_alignment(a, b) -> int:
    import numpy as np
    hyp = _hypotheses(a, b)
    if hyp[0].size == 0:
        return 0
    cap = min(a[0].size, b[0].size)
    bound = np.empty(hyp[0].size, dtype=np.int64)
    best = 0
    # The greedy pass visits hypotheses by falling upper bound, ties in index
    # order, and stops at one that pairs cap minutiae. Those bounded at cap
    # come first, so they are paired as soon as their chunk is bounded, and
    # the first that pairs cap ends the search before the rest are bounded.
    h0 = 0
    for chunk in _bound_chunks(a, b, hyp):
        bound[h0:h0 + chunk.size] = chunk
        for h in h0 + np.flatnonzero(chunk == cap):
            best = max(best, _pairs_under(a, b, hyp, h))
            if best == cap:
                return best
        h0 += chunk.size
    # The rest, skipping those bounded at cap, which were paired above.
    order = np.argsort(-bound, kind="stable")
    for h in order[np.count_nonzero(bound == cap):]:
        if bound[h] <= best:
            break
        best = max(best, _pairs_under(a, b, hyp, h))
    return best


def _pairs_under(a, b, hyp, h) -> int:
    """Greedy pair count of a and b moved by hypothesis h."""
    import numpy as np
    tbx, tby = _moved(b, *(v[h:h + 1] for v in hyp))
    ia = np.arange(a[0].size)[:, None]
    dist2 = (a[0][ia] - tbx[0]) ** 2 + (a[1][ia] - tby[0]) ** 2
    candidates = dist2 <= DISTANCE_TOLERANCE ** 2
    candidates &= _aligned(a, ia, np.mod(b[2] + hyp[0][h], TWO_PI), b[3])
    return _greedy_pairs(candidates, dist2)


def _hypotheses(a, b):
    """(phi, cos, sin, tx, ty) of the rigid motion each reference pair implies."""
    import numpy as np
    ax, ay, atheta, akind = a
    bx, by, btheta, bkind = b
    ref_a, ref_b = np.nonzero(akind[:, None] == bkind[None, :])
    phi = atheta[ref_a] - btheta[ref_b]
    cos, sin = np.cos(phi), np.sin(phi)
    tx = ax[ref_a] - (cos * bx[ref_b] - sin * by[ref_b])
    ty = ay[ref_a] - (sin * bx[ref_b] + cos * by[ref_b])
    return phi, cos, sin, tx, ty


def _moved(b, phi, cos, sin, tx, ty):
    """The positions of b under each given hypothesis: two (H, n2) arrays."""
    bx, by = b[0], b[1]
    tbx = cos[:, None] * bx[None, :] - sin[:, None] * by[None, :] + tx[:, None]
    tby = sin[:, None] * bx[None, :] + cos[:, None] * by[None, :] + ty[:, None]
    return tbx, tby


def _aligned(a, ia, theta, kind):
    """Whether the minutiae a[ia] and moved minutiae of directions theta and
    kinds kind pass the angle test and the kind test."""
    import numpy as np
    dtheta = np.abs(a[2][ia] - theta)
    return (np.minimum(dtheta, TWO_PI - dtheta) <= ANGLE_TOLERANCE) & (a[3][ia] == kind)


def _bound_chunks(a, b, hyp):
    """Per hypothesis, min(#a with a candidate, #b with a candidate), one
    chunk of hypotheses at a time, in order.

    Only the pairs whose ends lie in neighbouring grid cells are tested, so
    memory stays within _CHUNK_ELEMENTS. Chunks end at every multiple of the
    step that fills _CHUNK_ELEMENTS and, below the first, at g, 2*g, 4*g, ...
    hypotheses, where g is n2 or, if more, the hypotheses that fill
    _MIN_CHUNK_ELEMENTS.
    """
    import numpy as np
    ax, ay = a[0], a[1]
    n1, n2 = ax.size, b[0].size
    phi = hyp[0]
    find, starts, counts, members = _cell_blocks(a)
    pairs_per_hypothesis = n2 * int(counts.max())
    step = max(1, _CHUNK_ELEMENTS // pairs_per_hypothesis)
    grow = max(n2, _MIN_CHUNK_ELEMENTS // pairs_per_hypothesis)

    h0 = 0
    while h0 < phi.size:
        h1 = min(h0 + max(h0, grow), (h0 // step + 1) * step, phi.size)
        tbx, tby = (t.ravel() for t in _moved(b, *(v[h0:h1] for v in hyp)))
        at = find(tbx, tby)
        # one (a index, moved b index) pair per member of each non-empty block
        jb = np.flatnonzero(counts[at])
        at = at[jb]
        found = counts[at]
        jb = np.repeat(jb, found)
        first = np.cumsum(found) - found
        ia = members[np.arange(jb.size) + np.repeat(starts[at] - first, found)]
        near = (ax[ia] - tbx[jb]) ** 2 + (ay[ia] - tby[jb]) ** 2 <= DISTANCE_TOLERANCE ** 2
        ia, jb = ia[near], jb[near]
        # the directions, as _pairs_under computes them, of only the near pairs
        h, j = np.divmod(jb, n2)
        ok = _aligned(a, ia, np.mod(b[2][j] + phi[h0 + h], TWO_PI), b[3][j])
        hc = h1 - h0
        has_a = np.zeros(hc * n1, dtype=bool)
        has_a[h[ok] * n1 + ia[ok]] = True
        has_b = np.zeros(hc * n2, dtype=bool)
        has_b[jb[ok]] = True
        yield np.minimum(has_a.reshape(hc, n1).sum(axis=1),
                         has_b.reshape(hc, n2).sum(axis=1))
        h0 = h1


def _cell_blocks(a):
    """Index template a by 3x3 block of grid cells.

    Returns find, which maps coordinates to the number of the block around
    their cell; each block's start and length in the member list, where the
    last block is the empty one of the cells with no minutia of a nearby; and
    the member list (indices into a).
    """
    import numpy as np
    dx, dy = np.divmod(np.arange(9), 3)
    cx = (_cells(a[0])[:, None] + dx - 1).ravel()
    cy = (_cells(a[1])[:, None] + dy - 1).ravel()
    key = _cell_key(cx, cy)
    order = np.argsort(key, kind="stable")
    cells, starts, block = np.unique(key[order], return_index=True, return_inverse=True)
    counts = np.diff(np.append(starts, key.size))
    # the blocks' bounding box and an empty border, where cells off the box clamp
    x0, x1 = int(cx.min()) - 1, int(cx.max()) + 1
    y0, y1 = int(cy.min()) - 1, int(cy.max()) + 1
    height = y1 - y0 + 1
    if (x1 - x0 + 1) * height <= _SLOTS_PER_BLOCK * cells.size:
        table = np.full((x1 - x0 + 1) * height, cells.size)
        table[(cx[order] - x0) * height + cy[order] - y0] = block
        find = functools.partial(_find_in_table, table=table, box=(x0, x1, y0, y1))
    else:
        find = functools.partial(_find_in_keys, cells=cells)
    return find, np.append(starts, 0), np.append(counts, 0), order // 9


def _find_in_table(x, y, table, box):
    """Block numbers of the cells of (x, y): one table slot each."""
    x0, x1, y0, y1 = box
    return table[(_cells(x, x0, x1) - x0) * (y1 - y0 + 1) + _cells(y, y0, y1) - y0]


def _find_in_keys(x, y, cells):
    """Block numbers of the cells of (x, y): one binary search each."""
    import numpy as np
    key = _cell_key(_cells(x), _cells(y))
    at = np.minimum(np.searchsorted(cells, key), cells.size - 1)
    return np.where(cells[at] == key, at, cells.size)


def _cells(x: np.ndarray, lo: int = -_CELL_LIMIT, hi: int = _CELL_LIMIT) -> np.ndarray:
    """Grid cell index of each coordinate, clamped to +-_CELL_LIMIT and then
    to [lo, hi], which must overlap it.

    A moved coordinate that overflowed to NaN (inf - inf) fails every
    distance test, so any cell will do; it goes to cell 0, which keeps the
    cast to integers defined.
    """
    import numpy as np
    k = np.floor(x / _CELL_SIDE)
    k[np.isnan(k)] = 0.0
    np.maximum(k, max(lo, -_CELL_LIMIT), out=k)
    np.minimum(k, min(hi, _CELL_LIMIT), out=k)
    return k.astype(np.int64)


def _cell_key(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    return cx * _KEY_WIDTH + cy


def _greedy_pairs(mask: np.ndarray, dist2: np.ndarray) -> int:
    import numpy as np
    pairs = np.argwhere(mask)
    if pairs.size == 0:
        return 0
    ia, ib = pairs[:, 0], pairs[:, 1]
    # nearest first; ties go to the lower a index, then the lower b index
    order = np.lexsort((ib, ia, dist2[ia, ib]))
    used_a = np.zeros(mask.shape[0], dtype=bool)
    used_b = np.zeros(mask.shape[1], dtype=bool)
    m = 0
    for k in order:
        i, j = ia[k], ib[k]
        if not used_a[i] and not used_b[j]:
            used_a[i] = used_b[j] = True
            m += 1
    return m

