"""Parameter sweeps over the attack plane and the security crossover search."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .attack import (
    AttackParams,
    _check_log_base,
    ab_error,
    eve_error,
    mutual_info_ab,
    mutual_info_ae,
    srm_success,  # noqa: F401 -- perfbench/spans.py wraps it on this module
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

# Rows rendered per block, so format_csv's temporaries do not grow with the grid.
_CSV_BLOCK = 1024

# Powers of ten, exact as doubles up to 10**22; the larger ones only scale values left to '%'.
_POW10 = np.array([float(10**k) for k in range(25)])

# Contour maximisation: a first scan of _GRID points in f guards against a second maximum; each
# zoom rescans the best point's two cells at _GRID points, dividing the spacing by 100, until it
# is below _F_SPACING: from at most 0.99/200, three zooms, four passes.  The best point then
# misses the peak by at most 1/2 |g''| (spacing/2)^2: with |d2 gap/df2| ~ 21 on the crossover
# contour, ~7e-17 nats at the final spacing of 5e-9, below the rounding of the gap.
_GRID = 201
_F_SPACING = 1e-8
_ZOOMS = math.ceil(math.log(1.0 / (_GRID - 1) / _F_SPACING, (_GRID - 1) / 2))
# find_crossover's bracket: points 130 and 131 of np.linspace(0.01, 0.999, 199), no input moves
# them; test_bracket_equals_full_scan certifies them as _best_gap's last sign change on that grid.
_BRACKET = (0.6593434343434343, 0.6643383838383838)


@dataclass(frozen=True)
class CrossoverResult:
    """Largest visibility at which the eavesdropper matches the parties' information, and how
    the search ended: steps from the fixed bracket, final bracket width, gap at v_max."""

    v_max: float
    argmax_f: float
    argmax_lam: float
    tolerance: float
    iterations: int
    bracket: float
    gap_residual: float


def sweep_rows(f_values, lam_values, log_base: float = 3.0) -> np.recarray:
    """Evaluate every (f, lam) pair, f outermost, both axes in given order.

    One record per grid point, with the fields named by CSV_COLUMNS; bell_violated and secure
    are booleans, the rest floats.  A log_base that is not finite and > 1 raises ValueError.
    secure compares informations only: it holds at some v < 0 (f = 0.95, lam < -0.31), where
    the Bell estimate is negative and every simulated run aborts.
    """
    _check_log_base(log_base)  # before the grid is built, not after its closed forms
    f, lam = np.meshgrid(np.asarray(f_values, float), np.asarray(lam_values, float), indexing="ij")
    params = AttackParams(f=f.ravel(), lam=lam.ravel())
    v = params.visibility
    p0, p1 = params._groups[:2]  # subspace_analysis(params).p, from what e_eve and i_ae share
    i_ab = mutual_info_ab(params, log_base)
    i_ae = mutual_info_ae(params, log_base)
    columns = (
        params.f, params.lam, v, p0, p1, ab_error(params), eve_error(params), i_ab, i_ae,
        v >= CRITICAL_VISIBILITY - 1e-12,
        i_ab > i_ae,
    )
    return np.rec.fromarrays(columns, names=CSV_COLUMNS)


@functools.cache
def _csv_tables() -> tuple[np.ndarray, np.ndarray]:
    """(40,) "<u4" words of sign, integer digit and '.' by 20 * negative + 10 * has fraction +
    digit, and (2 * 10**4 + 15,) "<u4" words of 0000 to 9999, trailing zeros as NUL in the first
    10**4, all four digits in the next, then e-00 to e-14; built on first use, not on import."""
    digits = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T) + ord("0")
    # a digit is trailing where it and every later digit of the chunk is a zero
    trailing = np.cumprod((digits == ord("0"))[:, ::-1], axis=1)[:, ::-1].astype(bool)
    chunks = np.concatenate([np.where(trailing, np.uint8(0), digits), digits]).view("<u4")[:, 0]
    suffixes = np.array([f"e-{k:02d}" for k in range(15)], dtype="S4").view("<u4")
    heads = [f"{sign}{digit}{dot}" for sign in ("", "-") for dot in ("", ".") for digit in range(10)]
    return np.array(heads, dtype="S4").view("<u4"), np.concatenate([chunks, suffixes])


def _fixed_point(x, a, q, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fast, expo, n): where '%.9g' prints x as 0, as |x| in [1e-4, 10) without exponent or
    in [1e-14, 1e-4) with one (expo, minus the exponent in n), and the mantissa below is
    certain.  Writes into q |x| rounded to 9 significant digits in units of 1e-12 (the
    mantissa's, with an exponent), an integer below 1e13, 0 elsewhere; a and k are scratch."""
    finite = np.isfinite(x)
    np.abs(x, out=a)
    a[~finite] = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # log10(0), huge a, inf - inf
        np.clip(np.floor(np.log10(a, out=q), out=q), -15, 1, out=q)
        np.subtract(8, q, out=k, casting="unsafe")
        s = np.multiply(a, np.take(_POW10, k, out=q), out=q)
        k -= s >= 1e9
        k += s < 1e8
        s = np.multiply(a, np.take(_POW10, k, out=q), out=q)  # in [1e8, 1e9] if 8 - k is the exponent
        m = np.rint(s)
        # |s - exact| < 1.2e-7, so away from a tie rint(s) is the correctly rounded mantissa
        untied = np.abs(np.subtract(s, m, out=s), out=s) < 0.5 - 1e-6
    fast = finite & ((a == 0) | (m >= 1e8) & (k <= 22) & untied)  # 10**k is exact
    carry = m == 1e9
    m[carry] = 1e8
    k -= carry
    fast &= k >= 8
    m[~fast] = 0.0
    expo = fast & (k > 12) & (a > 0)
    n = k[expo] - 8
    np.subtract(12, k, out=k)
    k[expo] = 4  # the mantissa is scaled as if in [1, 10)
    np.multiply(m, np.take(_POW10, k, mode="clip", out=a), out=q)
    return fast, expo, n


def _render_block(x, words, a, q, c, k) -> bytes:
    """'%.9g' of every value of the (rows, columns) float array x, comma separated, a row a line.

    Each value is a record of five "<u4" words, NUL padded: sign, integer digit and '.', three
    chunks of four decimals (or two and an exponent), separator; values off the fast path fill
    the first four from '%', space padded.  NULs and spaces are dropped once.  words holds a
    row's records, x's first; the caller sets the separators and any records after x's.
    """
    heads, chunks = _csv_tables()
    records = words[:, : x.shape[1]]
    fast, expo, n = _fixed_point(x, a, q, k)
    q[np.signbit(x)] += 2e13  # a minus sign as 20 more integer digits, as heads has it
    # q, its chunks and their quotients are integers below 2**53, exact in float64,
    # which divides faster than int64; each pass takes the leading digit or chunk off q
    for word, (scale, table, more) in enumerate([(1e12, heads, 10), (1e8, chunks, 1e4), (1e4, chunks, 1e4)]):
        np.floor(np.divide(q, scale, out=c), out=c)
        q -= np.multiply(c, scale, out=a)
        # '.' after the digit, and a chunk's trailing zeros, where a nonzero decimal follows
        np.add(c, more, out=c, where=q > 0)
        k[...] = c
        records[..., word] = table[k]
    k[...] = q
    records[..., 3] = chunks[k]
    records[..., 3][expo] = chunks[2 * 10**4 + n]
    row, column = np.nonzero(~fast)
    if row.size:
        # '%.9g' of a double has at most 16 characters, so '%-16.9g' pads each to 16
        values = x[row, column].tolist()
        text = ("%-16.9g" * len(values)) % tuple(values)
        records[row, column, :4] = np.frombuffer(text.encode("ascii"), "<u4").reshape(-1, 4)
    return words.tobytes().translate(None, b"\0 ")


def format_csv(rows, comments=(), header: bool = True, scratch: dict | None = None) -> str:
    """Render sweep_rows records as CSV with '#' comment lines: each value as '%.9g' would,
    the boolean flags as 1 and 0, byte for byte.  A comment with a line break raises ValueError.
    header=False leaves out the line of column names.  A dict the caller passes as scratch
    keeps one block's arrays for its next call, so that a grid formatted a slice per call does
    not allocate them, and fault their pages in, again for each slice.

    Exact because s = |x| * 10**(8 - e) is one correctly rounded product (10**k is exact for
    k <= 22), so rint(s) is the 9-digit mantissa unless frac(s) is within 1e-6 of 1/2; those
    values, and exponents below -14, 10 or more, nan and inf, are rendered with '%'.
    """
    for comment in comments:
        if "\n" in comment or "\r" in comment:
            raise ValueError(f"a comment cannot contain a line break, got {comment!r}")
    parts = [f"# {c}\n" for c in comments]
    if header:
        parts.append(",".join(CSV_COLUMNS) + "\n")
    fields = np.asarray(rows)  # a plain array's fields, which a recarray's are slower to take
    columns = [fields[name] for name in CSV_COLUMNS]
    # boolean columns after the last float one skip the digit passes: a digit word each
    n_x = 1 + max((i for i, column in enumerate(columns) if column.dtype != bool), default=0)
    # one block's arrays, made once per call, or once per scratch dict and column layout, so
    # that later blocks and calls do not fault their pages in again; words keeps each record's
    # separator, and zeros wherever _render_block writes nothing
    scratch = {} if scratch is None else scratch
    if (len(columns), n_x) not in scratch:
        shape = (_CSV_BLOCK, len(columns))
        words = np.zeros(shape + (5,), "<u4")
        words[..., 4], words[:, -1, 4] = ord(","), ord("\n")
        work = [*np.empty((3, _CSV_BLOCK, n_x)), np.empty((_CSV_BLOCK, n_x), np.intp)]
        scratch[len(columns), n_x] = [np.empty(shape), words, *work]
    buffers = scratch[len(columns), n_x]
    for start in range(0, len(rows), _CSV_BLOCK):
        x, words, *work = (b[: len(rows) - start] for b in buffers)
        np.stack([column[start : start + _CSV_BLOCK] for column in columns], axis=1, out=x)
        words[:, n_x:, 0] = x[:, n_x:] + ord("0")
        parts.append(_render_block(x[:, :n_x], words, *work).decode("ascii"))
    return "".join(parts)


def _best_gap(v) -> tuple[np.ndarray, np.ndarray]:
    """(max, argmax f) of I_AE - I_AB in nats over the contour f*lam = v, for each v of a 1-D array.

    A grid of _GRID points in f is zoomed _ZOOMS times onto its best point's neighbours; I_AB,
    a function of v alone, is evaluated once, outside.
    """
    v = np.asarray(v, dtype=float)
    rows = np.arange(len(v))
    lo, hi = np.maximum(v, 1e-9), np.ones_like(v)  # lam = v/f must stay <= 1
    for _ in range(_ZOOMS + 1):
        f = np.linspace(lo, hi, _GRID, axis=-1)
        i_ae = mutual_info_ae(AttackParams(f=f, lam=v[:, None] / f), np.e)
        i = np.argmax(i_ae, axis=-1)
        lo, hi = f[rows, np.maximum(i - 1, 0)], f[rows, np.minimum(i + 1, _GRID - 1)]
    return i_ae[rows, i] - mutual_info_ab(AttackParams(f=1.0, lam=v), np.e), f[rows, i]


def find_crossover(tolerance: float = 1e-6, log_base: float = 3.0) -> CrossoverResult:
    """Largest visibility v = f*lam at which I_AE can still reach I_AB.

    The fixed _BRACKET holds the last sign change of the contour-maximized information gap; each
    step evaluates two points that straddle the predicted root and keeps gap(lo) >= 0 > gap(hi),
    until the bracket is narrower than tolerance and the gap at the result is within tolerance
    (in the given log base; the location is base-independent).  Raises ValueError for a tolerance
    that is not finite and positive or that the search cannot reach, or a log_base not finite
    and > 1, and RuntimeError where the gap does not change sign across _BRACKET.
    The search covers v > 0.01 and compares informations only, as sweep_rows' secure does.
    """
    if not (np.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    _check_log_base(log_base)
    return _false_position(*_bracket(), tolerance, log_base)


def _bracket() -> tuple[float, float, float, float]:
    """(lo, hi, gap(lo), gap(hi)) of _best_gap at _BRACKET's ends, about +0.0089 and -0.0036 nats."""
    lo, hi = _BRACKET
    g_lo, g_hi = (float(g) for g in _best_gap(np.array(_BRACKET))[0])
    if not g_lo >= 0.0 > g_hi:
        raise RuntimeError(f"the information gap does not change sign between v = {lo!r} and {hi!r}")
    return lo, hi, g_lo, g_hi


def _false_position(lo, hi, g_lo, g_hi, tolerance, log_base) -> CrossoverResult:
    """find_crossover's search from a bracket with gap(lo) = g_lo >= 0 > g_hi = gap(hi)."""
    scale = 1.0 / math.log(log_base)
    ends = [(lo, g_lo, None), (hi, g_hi, None)]  # (v, gap, argmax f), f known once a step sets the end
    third, width = None, math.inf  # the end last replaced; the bracket's width a step ago
    for step in itertools.count(1):
        (lo, g_lo, _), (hi, g_hi, _) = ends
        slope = (g_hi - g_lo) / (hi - lo)
        centre, half = hi - g_hi / slope, (hi - lo) / 64  # a first step has no curvature to go by
        if third is not None:  # the secant point's error, from the curvature through the third point
            curvature = ((third[1] - g_lo) / (third[0] - lo) - slope) / (third[0] - hi)
            error = curvature * (centre - lo) * (centre - hi) / slope
            centre, half = centre - error, abs(error)
        if hi - lo > 0.5 * width:  # the last step did not halve the bracket
            centre = 0.5 * (lo + hi)
        half, width = max(half, 4.0 * math.ulp(centre)), hi - lo  # beyond the rounding of the root
        # both sides of the predicted root in one call; a point outside the bracket is its midpoint
        points = sorted(x if lo < x < hi else 0.5 * (lo + hi) for x in (centre - half, centre + half))
        for v, gap, f_star in zip(points, *(x.tolist() for x in _best_gap(np.array(points)))):
            if ends[0][0] < v < ends[1][0]:
                third, ends[gap < 0.0] = ends[gap < 0.0], (v, gap, f_star)
        v, gap, f_star = min((e for e in ends if e[2] is not None), key=lambda e: abs(e[1]))
        if ends[1][0] - ends[0][0] < tolerance and abs(gap) * scale <= tolerance:
            break
        if ends[1][0] - ends[0][0] == width:  # no double lies between the ends: the rounding floor
            raise ValueError(f"tolerance {tolerance!r} not reached: the bracket [{lo!r}, {hi!r}] cannot shrink")

    return CrossoverResult(v_max=v, argmax_f=f_star, argmax_lam=v / f_star, tolerance=tolerance,
                           iterations=step, bracket=ends[1][0] - ends[0][0], gap_residual=gap * scale)
