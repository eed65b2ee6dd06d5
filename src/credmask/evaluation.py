"""Error-rate evaluation for the matcher: FAR/FRR curves and the EER.

FAR (alias FMR) at threshold t is the fraction of impostor comparisons
scoring at or above t; FRR (alias FNMR) is the fraction of genuine
comparisons scoring below t. The equal error rate is read off where the two
curves cross, linearly interpolated between adjacent thresholds.

numpy is imported inside the functions that compute with it, so importing
this module (the CLI does, for every command) does not load numpy.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import BadParamsError, EmptyScoresError
from .matching import DEFAULT_PARAMS, MatchParams, match_templates
from .minutiae import BIFURCATION, TERMINATION, TWO_PI, Minutia, Template, load_template


class EvalReport(NamedTuple):
    thresholds: tuple[float, ...]
    far: tuple[float, ...]
    frr: tuple[float, ...]
    eer: float


def evaluate(genuine_scores: Sequence[float], impostor_scores: Sequence[float]) -> EvalReport:
    """FAR/FRR over all observed thresholds plus the interpolated EER."""
    import numpy as np
    genuine = np.asarray(list(genuine_scores), dtype=np.float64)
    impostor = np.asarray(list(impostor_scores), dtype=np.float64)
    if genuine.size == 0 or impostor.size == 0:
        raise EmptyScoresError("need at least one genuine and one impostor score")
    for name, arr in (("genuine", genuine), ("impostor", impostor)):
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise BadParamsError(f"{name} scores must lie in [0, 1]")

    thresholds = np.unique(np.concatenate([genuine, impostor, [0.0, 1.0]]))
    g_sorted = np.sort(genuine)
    i_sorted = np.sort(impostor)
    # FAR(t) = #(impostor >= t) / N_i ; FRR(t) = #(genuine < t) / N_g
    far = (i_sorted.size - np.searchsorted(i_sorted, thresholds, side="left")) / i_sorted.size
    frr = np.searchsorted(g_sorted, thresholds, side="left") / g_sorted.size

    eer = _crossing(thresholds, far, frr)
    return EvalReport(
        thresholds=tuple(float(t) for t in thresholds),
        far=tuple(float(v) for v in far),
        frr=tuple(float(v) for v in frr),
        eer=eer,
    )


def _crossing(thresholds: np.ndarray, far: np.ndarray, frr: np.ndarray) -> float:
    """Where the linearly interpolated FAR and FRR curves meet."""
    import numpy as np
    diff = far - frr  # non-increasing in t
    above = np.nonzero(diff >= 0.0)[0]
    if above.size == 0:
        # FAR already below FRR at t=0; cannot happen for scores in [0, 1]
        return float((far[0] + frr[0]) / 2.0)
    k = int(above[-1])
    if diff[k] == 0.0:
        return float(far[k])
    if k + 1 == thresholds.size:
        # curves never meet inside [0, 1] (all scores tie at the top end)
        return float((far[k] + frr[k]) / 2.0)
    u = diff[k] / (diff[k] - diff[k + 1])
    return float(frr[k] + u * (frr[k + 1] - frr[k]))


# -- synthetic datasets -----------------------------------------------------------

class SyntheticRecord(NamedTuple):
    template: Template
    genuine_probes: tuple[Template, ...]
    impostor_probes: tuple[Template, ...]


def generate_synthetic(seed: int,
                       n_templates: int,
                       minutiae_per_template: int,
                       field: tuple[int, int] = (400, 400),
                       position_jitter: float = 2.0,
                       angle_jitter: float = 0.1,
                       deletion_rate: float = 0.1,
                       probes_per_template: int = 3,
                       impostors_per_template: int = 5) -> tuple[SyntheticRecord, ...]:
    """Deterministic synthetic verification dataset.

    Each record holds a template of uniformly random minutiae, genuine probes
    made by deleting a fraction of the minutiae, jittering the survivors, and
    applying a random rigid motion, and impostor probes drawn from the other
    templates.
    """
    import numpy as np
    width, height = field
    if n_templates < 2:
        raise BadParamsError("need at least 2 templates to form impostor pairs")
    if minutiae_per_template < 1:
        raise BadParamsError("minutiae_per_template must be >= 1")
    if width <= 0 or height <= 0:
        raise BadParamsError("field dimensions must be positive")
    if not 0.0 <= deletion_rate < 1.0:
        raise BadParamsError("deletion_rate must be in [0, 1); empty probes are forbidden")
    if position_jitter < 0 or angle_jitter < 0:
        raise BadParamsError("jitter sigmas must be non-negative")
    if probes_per_template < 1:
        raise BadParamsError("probes_per_template must be >= 1")
    if not 1 <= impostors_per_template <= n_templates - 1:
        raise BadParamsError("impostors_per_template must be in 1..n_templates-1")

    rng = np.random.default_rng(seed)
    templates = [
        _random_template(rng, minutiae_per_template, width, height, f"synth-{k:03d}")
        for k in range(n_templates)
    ]
    records = []
    for k, template in enumerate(templates):
        probes = tuple(
            _genuine_probe(rng, template, position_jitter, angle_jitter,
                           deletion_rate, width, f"{template.source_id}-g{p}")
            for p in range(probes_per_template)
        )
        impostors = tuple(
            templates[(k + 1 + j) % n_templates] for j in range(impostors_per_template)
        )
        records.append(SyntheticRecord(template, probes, impostors))
    return tuple(records)


def score_dataset(records: Sequence[SyntheticRecord],
                  params: MatchParams = DEFAULT_PARAMS) -> tuple[list[float], list[float]]:
    """Match every probe against its record's template, split by ground truth."""
    genuine = [
        match_templates(rec.template, probe, params).score
        for rec in records for probe in rec.genuine_probes
    ]
    impostor = [
        match_templates(rec.template, probe, params).score
        for rec in records for probe in rec.impostor_probes
    ]
    return genuine, impostor


# -- on-disk datasets --------------------------------------------------------------

def load_eval_dataset(root: str | Path) -> tuple[Template, list[Template], list[Template]]:
    """Load ``enrolled.min`` plus the genuine/ and impostor/ probe directories."""
    base = Path(root)
    enrolled_path = base / "enrolled.min"
    if not enrolled_path.is_file():
        raise EmptyScoresError(f"missing {enrolled_path}")
    enrolled = load_template(enrolled_path)
    genuine = [load_template(p) for p in sorted((base / "genuine").glob("*.min"))]
    impostor = [load_template(p) for p in sorted((base / "impostor").glob("*.min"))]
    if not genuine:
        raise EmptyScoresError(f"no genuine probes under {base / 'genuine'}")
    if not impostor:
        raise EmptyScoresError(f"no impostor probes under {base / 'impostor'}")
    return enrolled, genuine, impostor


def score_probes(enrolled: Template, probes: Sequence[Template],
                 params: MatchParams = DEFAULT_PARAMS) -> list[float]:
    return [match_templates(enrolled, probe, params).score for probe in probes]


# -- internals ----------------------------------------------------------------------

def _random_template(rng, count: int, width: int, height: int, source_id: str) -> Template:
    xs = rng.uniform(0, width, size=count)
    ys = rng.uniform(0, height, size=count)
    thetas = rng.uniform(0, TWO_PI, size=count)
    kinds = rng.integers(0, 2, size=count)
    minutiae = tuple(
        Minutia(float(x), float(y), float(t), TERMINATION if k == 0 else BIFURCATION)
        for x, y, t, k in zip(xs, ys, thetas, kinds)
    )
    return Template(minutiae=minutiae, source_id=source_id)


def _genuine_probe(rng, template: Template, pos_sigma: float, angle_sigma: float,
                   deletion_rate: float, width: int, source_id: str) -> Template:
    kept = [m for m in template.minutiae if rng.random() >= deletion_rate]
    if not kept:
        kept = [template.minutiae[int(rng.integers(0, len(template)))]]
    rot = float(rng.uniform(0, TWO_PI))
    tx = float(rng.uniform(-width / 8, width / 8))
    ty = float(rng.uniform(-width / 8, width / 8))
    cos, sin = math.cos(rot), math.sin(rot)
    moved = []
    for m in kept:
        x = m.x + float(rng.normal(0, pos_sigma)) if pos_sigma else m.x
        y = m.y + float(rng.normal(0, pos_sigma)) if pos_sigma else m.y
        theta = m.theta + float(rng.normal(0, angle_sigma)) if angle_sigma else m.theta
        moved.append(
            Minutia(cos * x - sin * y + tx, sin * x + cos * y + ty, theta + rot, m.kind)
        )
    return Template(minutiae=tuple(moved), source_id=source_id)
