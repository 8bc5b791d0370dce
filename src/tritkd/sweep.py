"""Parameter sweeps over the attack plane and the security crossover search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import (
    AttackParams,
    ab_error,
    eve_error,
    mutual_info_ab,
    mutual_info_ae,
    srm_success,  # noqa: F401 -- perfbench/spans.py wraps it on this module
    subspace_analysis,
)
from .correlations import CRITICAL_VISIBILITY

CSV_COLUMNS = (
    "f",
    "lam",
    "v",
    "p0",
    "p1",
    "e_ab",
    "e_eve",
    "i_ab",
    "i_ae",
    "bell_violated",
    "secure",
)


# Contour maximisation: grid points per zoom, zooms after the first scan
# (each narrows the f bracket by (_GRID - 1)/2), and the bisection budget.
_GRID = 201
_ZOOMS = 6
_BISECTIONS = 200


@dataclass(frozen=True)
class CrossoverResult:
    """Largest visibility at which the eavesdropper matches the parties' information."""

    v_max: float
    argmax_f: float
    argmax_lam: float
    tolerance: float


def sweep_rows(f_values, lam_values, log_base: float = 3.0) -> np.recarray:
    """Evaluate every (f, lam) pair, f outermost, both axes in given order.

    One record per grid point, with the fields named by CSV_COLUMNS;
    bell_violated and secure are booleans, the rest floats.
    """
    f, lam = np.meshgrid(np.asarray(f_values, float), np.asarray(lam_values, float), indexing="ij")
    params = AttackParams(f=f.ravel(), lam=lam.ravel())
    v = params.visibility
    p0, p1, _ = subspace_analysis(params).p
    i_ab = mutual_info_ab(params, log_base)
    i_ae = mutual_info_ae(params, log_base)
    columns = (
        params.f, params.lam, v, p0, p1, ab_error(params), eve_error(params), i_ab, i_ae,
        v >= CRITICAL_VISIBILITY - 1e-12,
        i_ab > i_ae,
    )
    return np.rec.fromarrays(columns, names=CSV_COLUMNS)


def format_csv(rows, comments=()) -> str:
    """Render sweep_rows records as CSV with '#' comment lines, 9 significant
    digits; the boolean flags print as 1 and 0."""
    template = ",".join(["%.9g"] * len(CSV_COLUMNS))
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(template % row for row in rows.tolist())
    return "\n".join(lines) + "\n"


def _best_gap(v) -> tuple[np.ndarray, np.ndarray]:
    """(max, argmax f) of I_AE - I_AB in nats over the contour f*lam = v, vectorised over v.

    A grid in f is zoomed onto the neighbours of its best point; each zoom
    narrows the bracket by a factor (_GRID - 1)/2.
    """
    v = np.asarray(v, dtype=float)
    lo = np.maximum(v, 1e-9)  # lam = v/f must stay <= 1
    hi = np.ones_like(lo)
    for _ in range(_ZOOMS + 1):
        f = np.linspace(lo, hi, _GRID, axis=-1)
        params = AttackParams(f=f, lam=v[..., None] / f)
        gap = mutual_info_ae(params, np.e) - mutual_info_ab(params, np.e)
        i = np.argmax(gap, axis=-1)[..., None]
        lo = np.take_along_axis(f, np.maximum(i - 1, 0), axis=-1)[..., 0]
        hi = np.take_along_axis(f, np.minimum(i + 1, _GRID - 1), axis=-1)[..., 0]
    return np.take_along_axis(gap, i, axis=-1)[..., 0], np.take_along_axis(f, i, axis=-1)[..., 0]


def find_crossover(tolerance: float = 1e-6, log_base: float = 3.0) -> CrossoverResult:
    """Largest visibility v = f*lam at which I_AE can still reach I_AB.

    Coarse scan over v locates the last sign change of the contour-maximized
    information gap; bisection refines it until the bracket is narrower than
    tolerance and the gap at the result is within tolerance (measured in the
    given log base; the location itself is base-independent).  Raises
    ValueError for a tolerance that is not finite and positive or that the
    bisection cannot reach.
    """
    if not (np.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    scale = 1.0 / np.log(log_base)

    vs = np.linspace(0.01, 0.999, 199)
    gaps = _best_gap(vs)[0]
    crossings = np.nonzero((gaps[:-1] >= 0.0) & (gaps[1:] < 0.0))[0]
    if crossings.size == 0:
        raise RuntimeError("no sign change of the information gap found")
    lo, hi = float(vs[crossings[-1]]), float(vs[crossings[-1] + 1])

    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        gap, f_star = (float(x) for x in _best_gap(mid))
        if hi - lo < tolerance and abs(gap) * scale <= tolerance:
            break
        if gap >= 0.0:
            lo = mid
        else:
            hi = mid
    else:
        raise ValueError(f"tolerance {tolerance!r} not reached in {_BISECTIONS} bisection steps")

    return CrossoverResult(
        v_max=mid,
        argmax_f=f_star,
        argmax_lam=mid / f_star,
        tolerance=tolerance,
    )
