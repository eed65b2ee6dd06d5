"""Fingerprint minutiae: feature points and the ``.min`` file format.

A minutia is either a termination (a ridge ends) or a bifurcation (a ridge
splits in two). Templates arrive as ``.min`` files written by an external
extractor; turning a fingerprint image into minutiae is out of scope.

Coordinate conventions, stated once because a mismatch silently breaks angle
tests: x grows rightward, y grows upward, and theta is measured
counterclockwise from +x in radians, normalized to [0, 2pi). A minutia's
direction points from the feature into the ridge.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, NamedTuple

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

_KIND_LETTER = {TERMINATION: "T", BIFURCATION: "B"}
_LETTER_KIND = {v: k for k, v in _KIND_LETTER.items()}


class _MinutiaFields(NamedTuple):
    x: float
    y: float
    theta: float
    kind: str


class Minutia(_MinutiaFields):
    """One ridge ending or bifurcation; ``theta`` is kept in [0, 2*pi)."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, theta: float, kind: str):
        if kind not in (TERMINATION, BIFURCATION):
            raise ValueError(f"kind must be {TERMINATION!r} or {BIFURCATION!r}")
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)):
            raise ValueError("minutia coordinates must be finite")
        return tuple.__new__(cls, (x, y, theta % TWO_PI, kind))


class Template:
    """The minutiae of one fingerprint sample; immutable."""

    __slots__ = ("minutiae", "source_id")

    def __init__(self, minutiae: Iterable[Minutia] = (), source_id: str = ""):
        object.__setattr__(self, "minutiae", tuple(minutiae))
        object.__setattr__(self, "source_id", source_id)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.minutiae, self.source_id) == (other.minutiae, other.source_id)

    def __hash__(self) -> int:
        return hash((self.minutiae, self.source_id))

    def __repr__(self) -> str:
        return f"Template(minutiae={self.minutiae!r}, source_id={self.source_id!r})"

    def __len__(self) -> int:
        return len(self.minutiae)


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
