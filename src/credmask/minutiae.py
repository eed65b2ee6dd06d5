"""Fingerprint minutiae: feature points, extraction, and file formats.

A minutia is either a termination (a ridge ends) or a bifurcation (a ridge
splits in two). Extraction runs over pre-skeletonized binary images: every
ridge pixel whose crossing number is 1 becomes a termination and every pixel
with crossing number 3 a bifurcation; thinning and enhancement are out of
scope and inputs are expected already one pixel wide.

Coordinate conventions, stated once because a mismatch silently breaks angle
tests: x grows rightward (image column), y grows upward (so y = height-1-row),
and theta is measured counterclockwise from +x in radians, normalized to
[0, 2pi). A minutia's direction points from the feature into the ridge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BadMarginError, NotBinaryError, TraceTooShortError

TERMINATION = "termination"
BIFURCATION = "bifurcation"

TWO_PI = 2.0 * math.pi
# Most minutiae a .min file may hold: the one-byte count of an ISO/IEC
# 19794-2 finger minutiae record.
MAX_TEMPLATE_MINUTIAE = 255
# Largest .min file save_template writes: the header, then that many lines of
# three floats, a kind letter, three spaces and LF. The longest float repr is
# 24 characters, e.g. -2.2250738585072014e-308.
MAX_TEMPLATE_BYTES = (len(f"MIN1 {MAX_TEMPLATE_MINUTIAE}\n")
                      + MAX_TEMPLATE_MINUTIAE * (3 * 24 + 1 + 3 + 1))

# 8-neighborhood ring, clockwise from the top-left pixel (image row/col offsets).
_RING = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))

_KIND_LETTER = {TERMINATION: "T", BIFURCATION: "B"}
_LETTER_KIND = {v: k for k, v in _KIND_LETTER.items()}


@dataclass(frozen=True)
class Minutia:
    x: float
    y: float
    theta: float
    kind: str

    def __post_init__(self):
        if self.kind not in (TERMINATION, BIFURCATION):
            raise ValueError(f"kind must be {TERMINATION!r} or {BIFURCATION!r}")
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError("minutia coordinates must be finite")
        object.__setattr__(self, "theta", self.theta % TWO_PI)


@dataclass(frozen=True)
class Template:
    """The set of minutiae extracted from one fingerprint sample."""

    minutiae: tuple[Minutia, ...] = ()
    source_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "minutiae", tuple(self.minutiae))

    def __len__(self) -> int:
        return len(self.minutiae)


def crossing_number(neighborhood: Sequence[int]) -> int:
    """Half the number of 0/1 transitions around an 8-pixel ring.

    The ring is given in clockwise order; the center pixel is assumed set.
    0 marks an isolated point, 1 a termination, 2 a ridge continuation,
    3 a bifurcation, 4 a crossing.
    """
    ring = list(neighborhood)
    if len(ring) != 8 or any(v not in (0, 1) for v in ring):
        raise ValueError("neighborhood must be eight 0/1 values")
    return sum(abs(ring[i] - ring[(i + 1) % 8]) for i in range(8)) // 2


def extract_minutiae(skeleton, border_margin: int = 0,
                     trace_length: int = 5, source_id: str = "") -> Template:
    """Extract terminations and bifurcations from a skeleton image.

    Pixels closer than ``border_margin`` to any edge are suppressed (ridge
    ends at the image border are artifacts of cropping, not features).
    Output order is deterministic: image row-major scan.
    """
    img = _as_binary(skeleton)
    if int(border_margin) != border_margin or border_margin < 0:
        raise BadMarginError(f"border_margin must be a non-negative integer: {border_margin}")
    margin = int(border_margin)
    h, w = img.shape
    found: list[Minutia] = []
    for r, c in np.argwhere(img == 1):
        r, c = int(r), int(c)
        if min(r, h - 1 - r, c, w - 1 - c) < margin:
            continue
        cn = crossing_number(_ring_values(img, r, c))
        if cn == 1:
            kind = TERMINATION
        elif cn == 3:
            kind = BIFURCATION
        else:
            continue
        theta = _direction_at(img, r, c, trace_length)
        found.append(Minutia(x=float(c), y=float(h - 1 - r), theta=theta, kind=kind))
    return Template(minutiae=tuple(found), source_id=source_id)


def estimate_direction(skeleton, point: tuple[int, int], trace_length: int = 5) -> float:
    """Ridge direction at a minutia pixel, in radians.

    The direction is the angle of the vector from the minutia to the pixel
    reached by walking ``trace_length`` steps along the ridge. A termination
    has a single branch; for a bifurcation the reported direction is that of
    the branch most opposite the mean of the other two.
    """
    if trace_length < 2:
        raise ValueError("trace_length must be >= 2")
    img = _as_binary(skeleton)
    r, c = int(point[0]), int(point[1])
    if img[r, c] != 1:
        raise ValueError(f"({r}, {c}) is not a ridge pixel")
    return _direction_at(img, r, c, trace_length)


def _direction_at(img: np.ndarray, r: int, c: int, trace_length: int) -> float:
    groups = _branch_groups(img, r, c)
    if not groups:
        raise TraceTooShortError(f"no ridge to trace at ({r}, {c})")
    if len(groups) == 1:
        return _branch_direction(img, r, c, groups, 0, trace_length)
    directions = [
        _branch_direction(img, r, c, groups, i, trace_length)
        for i in range(len(groups))
    ]
    return _most_opposite(directions)


# -- .min text format ---------------------------------------------------------

def save_template(template: Template, path: str | Path) -> None:
    """Write a template in the ``.min`` text format.

    Header line ``MIN1 <count>``, then one ``x y theta kind`` line per
    minutia with kind T (termination) or B (bifurcation), LF endings.
    """
    lines = [f"MIN1 {len(template)}"]
    for m in template.minutiae:
        lines.append(f"{m.x!r} {m.y!r} {m.theta!r} {_KIND_LETTER[m.kind]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def load_template(path: str | Path) -> Template:
    """Parse a ``.min`` file written by :func:`save_template`.

    A file over MAX_TEMPLATE_BYTES is refused after reading one byte more, and
    a header count above MAX_TEMPLATE_MINUTIAE before any minutia is parsed.
    """
    p = Path(path)
    with p.open(encoding="ascii") as fh:
        text = fh.read(MAX_TEMPLATE_BYTES + 1)
    if len(text) > MAX_TEMPLATE_BYTES:
        raise ValueError(f"{p}: larger than the {MAX_TEMPLATE_BYTES}-byte limit "
                         f"of a {MAX_TEMPLATE_MINUTIAE}-minutia file")
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise ValueError(f"{p}: empty minutiae file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "MIN1":
        raise ValueError(f"{p}: bad header {lines[0]!r}")
    count = int(header[1])
    if count > MAX_TEMPLATE_MINUTIAE:
        raise ValueError(f"{p}: header claims {count} minutiae, "
                         f"more than the limit of {MAX_TEMPLATE_MINUTIAE}")
    body = lines[1:]
    if len(body) != count:
        raise ValueError(f"{p}: header claims {count} minutiae, found {len(body)}")
    minutiae = []
    for lineno, ln in enumerate(body, start=2):
        parts = ln.split()
        # report the position only; minutia coordinates stay out of error text
        if len(parts) != 4 or parts[3] not in _LETTER_KIND:
            raise ValueError(f"{p}: malformed minutia on line {lineno}")
        try:
            minutiae.append(
                Minutia(float(parts[0]), float(parts[1]), float(parts[2]),
                        _LETTER_KIND[parts[3]])
            )
        except ValueError:
            raise ValueError(f"{p}: malformed minutia on line {lineno}") from None
    return Template(minutiae=tuple(minutiae), source_id=p.stem)


# -- PGM/PBM skeleton images ----------------------------------------------------

def load_skeleton_image(path: str | Path) -> np.ndarray:
    """Read a binary skeleton from a P1/P4 bitmap or P5 graymap.

    Graymap pixels above 127 are ridge; bitmap 1-bits (black) are ridge.
    """
    data = Path(path).read_bytes()
    magic, fields, offset = _parse_pnm_header(data)
    if magic == b"P1":
        tokens = data[offset:].split()
        w, h = fields
        bits = np.array([int(t) for t in tokens[: w * h]], dtype=np.uint8)
        if bits.size != w * h:
            raise ValueError("truncated P1 bitmap")
        return bits.reshape(h, w)
    if magic == b"P4":
        w, h = fields
        row_bytes = (w + 7) // 8
        raw = np.frombuffer(data, dtype=np.uint8, count=row_bytes * h, offset=offset)
        bits = np.unpackbits(raw.reshape(h, row_bytes), axis=1)[:, :w]
        return bits.astype(np.uint8)
    if magic == b"P5":
        w, h, maxval = fields
        if maxval > 255:
            raise ValueError("16-bit graymaps are not supported")
        raw = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=offset)
        return (raw.reshape(h, w) > 127).astype(np.uint8)
    raise ValueError(f"unsupported image magic {magic!r}")


# -- internals ------------------------------------------------------------------

def _parse_pnm_header(data: bytes) -> tuple[bytes, tuple[int, ...], int]:
    magic = data[:2]
    if magic not in (b"P1", b"P4", b"P5"):
        raise ValueError(f"unsupported image magic {magic!r}")
    need = 3 if magic == b"P5" else 2
    fields: list[int] = []
    pos = 2
    while len(fields) < need:
        while pos < len(data):
            ch = data[pos:pos + 1]
            if ch in b" \t\r\n":
                pos += 1
            elif ch == b"#":
                nl = data.find(b"\n", pos)
                pos = len(data) if nl == -1 else nl + 1
            else:
                break
        start = pos
        while pos < len(data) and data[pos:pos + 1] not in b" \t\r\n#":
            pos += 1
        if start == pos:
            raise ValueError("truncated image header")
        fields.append(int(data[start:pos]))
    pos += 1  # binary payloads start right after a single whitespace byte
    return magic, tuple(fields), pos


def _as_binary(skeleton) -> np.ndarray:
    img = np.asarray(skeleton)
    if img.ndim != 2:
        raise NotBinaryError("skeleton must be a 2-D image")
    if img.dtype == bool:
        return img.astype(np.uint8)
    if not np.isin(img, (0, 1)).all():
        raise NotBinaryError("skeleton pixels must all be 0 or 1")
    return img.astype(np.uint8)


def _ring_values(img: np.ndarray, r: int, c: int) -> list[int]:
    h, w = img.shape
    vals = []
    for dr, dc in _RING:
        rr, cc = r + dr, c + dc
        vals.append(int(img[rr, cc]) if 0 <= rr < h and 0 <= cc < w else 0)
    return vals


def _branch_groups(img: np.ndarray, r: int, c: int) -> list[list[tuple[int, int]]]:
    """Set neighbors grouped into circular runs; one run per departing branch."""
    ring = _ring_values(img, r, c)
    if not any(ring):
        return []
    if all(ring):
        return [[(r + dr, c + dc) for dr, dc in _RING]]
    # rotate so the ring starts on an unset pixel, making runs contiguous
    start = ring.index(0)
    groups: list[list[tuple[int, int]]] = []
    current: list[tuple[int, int]] = []
    for k in range(8):
        i = (start + k) % 8
        if ring[i]:
            dr, dc = _RING[i]
            current.append((r + dr, c + dc))
        elif current:
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    return groups


def _branch_direction(img: np.ndarray, r: int, c: int,
                      groups: list[list[tuple[int, int]]],
                      index: int, trace_length: int) -> float:
    banned = {(r, c)}
    for i, g in enumerate(groups):
        if i != index:
            banned.update(g)
    group = groups[index]
    cur = group[len(group) // 2]
    visited = banned | set(group)
    for _ in range(trace_length - 1):
        nxt = _next_ridge_pixel(img, cur, visited)
        if nxt is None:
            break
        visited.add(nxt)
        cur = nxt
    # y-up convention: image rows grow downward, so dy = r - row(cur)
    return math.atan2(r - cur[0], cur[1] - c) % TWO_PI


def _next_ridge_pixel(img: np.ndarray, pos: tuple[int, int],
                      visited: set[tuple[int, int]]) -> tuple[int, int] | None:
    h, w = img.shape
    r, c = pos
    for dr, dc in _RING:
        rr, cc = r + dr, c + dc
        if 0 <= rr < h and 0 <= cc < w and img[rr, cc] and (rr, cc) not in visited:
            return (rr, cc)
    return None


def _most_opposite(directions: list[float]) -> float:
    """The direction farthest from the circular mean of the remaining ones."""
    vecs = [(math.cos(t), math.sin(t)) for t in directions]
    best_i, best_score = 0, -1.0
    for i, theta in enumerate(directions):
        sx = sum(v[0] for j, v in enumerate(vecs) if j != i)
        sy = sum(v[1] for j, v in enumerate(vecs) if j != i)
        if math.hypot(sx, sy) < 1e-9:
            continue  # the others cancel out; no preference from this branch
        mean = math.atan2(sy, sx)
        d = abs((theta - mean + math.pi) % TWO_PI - math.pi)
        if d > best_score:
            best_i, best_score = i, d
    return directions[best_i]
