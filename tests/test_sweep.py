"""Tests for the sweep grid values and the crossover search."""

import decimal
import math
import re
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    DECIMAL_CONTEXT,
    decimal_max_gap,
    reference_best_gap,
    reference_find_crossover,
    reference_format_csv,
)

import tritkd.sweep

from tritkd.attack import (
    AttackParams,
    ab_error,
    eve_error,
    mutual_info_ab,
    mutual_info_ae,
    subspace_analysis,
)
from tritkd.correlations import CRITICAL_VISIBILITY
from tritkd.simulate import SimConfig, run
from tritkd.sweep import CSV_COLUMNS, _best_gap, _bracket, find_crossover, format_csv, sweep_rows

BAD_LOG_BASES = [0.5, 1.0, -2.0, float("inf"), float("nan")]

# (f range, lam range, steps, log base) of the CLI's golden sweeps, after clipping
GOLDEN_GRIDS = [
    ((0.0, 1.0), (-0.5, 1.0), 50, 3.0),
    ((0.004, 1.0), (-0.5, 0.995), 100, 2.0),
    ((0.0, 1.0), (-0.5, 1.0), 37, 2.718281828459045),
]

# where the 9-digit rounding changes notation, carries into a new decade or ties
CSV_EDGE_VALUES = [
    0.0, -0.0, 1e-4, math.nextafter(1e-4, 0.0), 9.9999999995e-5, 9.9999999949, 9.999999995,
    2.0**-13, 0.5, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, True, False,
    math.nextafter(10.0, 0.0), 10.0, -9.99999999999, 0.99999999999, 1.0, 0.1, 1e-5,
    float("nan"), float("inf"), float("-inf"),
    9.99999999949e-05, 9.9999999995e-06, 1e-14, 9.99999999e-15, -1e-5, -9.99999999949e-05,
]

# find_crossover's bracket grid in v; no input changes it
BRACKET_GRID = np.linspace(0.01, 0.999, 199)


def _assert_same_text(text, expected):
    # compared as lines: pytest's diff of two long strings is far slower than the test
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)


def _one_value_rows(values):
    """Records whose every field, flags included, holds the given value."""
    column = np.asarray(values, dtype=float)
    return np.rec.fromarrays([column] * len(CSV_COLUMNS), names=CSV_COLUMNS)


def _fast_path(x):
    """Where format_csv renders the float array x without '%'."""
    a, q = np.empty((2,) + x.shape)
    return tritkd.sweep._fixed_point(x, a, q, np.empty(x.shape, np.intp))[0]


def _near_ties(seed, exponents):
    """Rows of values within a few ulps, and within the tie guard, of a 9-digit rounding
    boundary, in the decades 10**e for e in the given range, of either sign."""
    rng = np.random.default_rng(seed)
    n = 11 * 2000
    mantissa = rng.integers(10**8, 10**9, n) + 0.5
    exponent = rng.integers(*exponents, n)
    tie = mantissa * 10.0 ** (exponent - 8)
    step = 10.0 ** (exponent - 8) * rng.uniform(-3e-6, 3e-6, n)
    values = np.concatenate([tie, np.nextafter(tie, 0.0), np.nextafter(tie, np.inf), tie + step])
    values *= rng.choice([-1.0, 1.0], values.size)
    return np.rec.fromarrays(values.reshape(len(CSV_COLUMNS), -1), names=CSV_COLUMNS)


def test_sweep_row_invariants():
    rows = sweep_rows(np.linspace(0.0, 1.0, 9), np.linspace(-0.5, 1.0, 9))
    assert len(rows) == 81
    for row in rows:
        assert abs(row.v - row.f * row.lam) < 1e-15
        assert abs(row.p0 + 2 * row.p1 - 1.0) < 1e-12
        for value in (row.p0, row.p1, row.e_ab, row.e_eve, row.i_ab, row.i_ae):
            assert -1e-12 <= value <= 1.0 + 1e-12
        assert row.bell_violated == (row.v >= CRITICAL_VISIBILITY - 1e-12)
        assert row.secure == (row.i_ab > row.i_ae)
        if row.bell_violated:
            assert row.e_eve >= row.e_ab


def test_secure_without_bell_violation_at_negative_visibility():
    # secure compares informations only: at f = 0.95, lam < -0.31 I_AB > I_AE, yet S = 2.488 v < 0
    rows = sweep_rows([0.95], [-0.45, -0.4, -0.35, -0.31])
    assert rows.secure.tolist() == [True, True, True, False]
    assert not rows.bell_violated.any()
    assert np.allclose(rows.i_ab - rows.i_ae, [0.130, 0.072, 0.027, -0.002], rtol=0.0, atol=5e-4)
    assert run(SimConfig(trials=1000, seed=1, attack=AttackParams(f=0.95, lam=-0.4))).aborted


def test_sweep_row_order_is_f_outer():
    rows = sweep_rows([0.1, 0.2], [0.3, 0.4])
    assert [(r.f, r.lam) for r in rows] == [(0.1, 0.3), (0.1, 0.4), (0.2, 0.3), (0.2, 0.4)]


def test_sweep_rows_match_scalar_closed_forms():
    # (1, -1/2) empties group 0 and (1, 1) empties groups 1 and 2; at
    # (0.8875, 0.2375) a squared scalar rounded apart from the array route
    f_values, lam_values = [0.0, 0.3, 0.8875, 1.0], [-0.5, -0.1, 0.2375, 0.4, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = sweep_rows(f_values, lam_values, log_base=2.0)
    points = [(f, lam) for f in f_values for lam in lam_values]
    assert [(r.f, r.lam) for r in rows] == points
    for row, (f, lam) in zip(rows, points):
        params = AttackParams(f=f, lam=lam)
        sub = subspace_analysis(params)
        scalars = (
            params.visibility, float(sub.p[0]), float(sub.p[1]), ab_error(params), eve_error(params),
            mutual_info_ab(params, 2.0), mutual_info_ae(params, 2.0),
        )
        assert all(type(x) is float for x in scalars)
        assert (row.v, row.p0, row.p1, row.e_ab, row.e_eve, row.i_ab, row.i_ae) == scalars


def test_format_csv_structure():
    rows = sweep_rows([0.5], [0.5])
    text = format_csv(rows, comments=("note",))
    lines = text.splitlines()
    assert lines[0] == "# note"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert text.endswith("\n")
    fields = lines[2].split(",")
    assert len(fields) == len(CSV_COLUMNS)
    assert fields[0] == "0.5"
    assert fields[9] in ("0", "1") and fields[10] in ("0", "1")
    # nine significant digits on the real-valued columns
    assert fields[7] == f"{rows[0].i_ab:.9g}"


@settings(max_examples=500, deadline=None)
@given(st.floats())
def test_format_csv_field_matches_percent_g(x):
    line = format_csv(_one_value_rows([x])).splitlines()[1]
    assert line == ",".join(["%.9g" % x] * len(CSV_COLUMNS))


@pytest.mark.parametrize("x", CSV_EDGE_VALUES)
def test_format_csv_edge_values(x):
    line = format_csv(_one_value_rows([x])).splitlines()[1]
    assert line.split(",") == ["%.9g" % x] * len(CSV_COLUMNS)


def test_format_csv_near_rounding_ties():
    # every decade of the fixed-point fast path and one on either side of it
    rows = _near_ties(2024, (-6, 3))
    _assert_same_text(format_csv(rows), reference_format_csv(rows))


def test_format_csv_near_rounding_ties_in_exponent_notation():
    # every decade of the exponent fast path and one on either side of it
    rows = _near_ties(2025, (-15, -3))
    _assert_same_text(format_csv(rows), reference_format_csv(rows))


@settings(max_examples=500, deadline=None)
@given(st.floats(1e-14, 1e-4, exclude_max=True), st.booleans())
def test_format_csv_exponent_notation_matches_percent_g(x, negative):
    rows = _one_value_rows([-x if negative else x])
    text = format_csv(rows)
    assert text.splitlines()[1] == ",".join(["%.9g" % rows[0].f] * len(CSV_COLUMNS))
    assert text == reference_format_csv(rows)


@pytest.mark.parametrize(
    "x, text, fast",
    [
        (9.99999999949e-05, "0.0001", True),  # the carry leaves exponent notation
        (9.9999999995e-06, "1e-05", True),  # the carry enters the next decade
        (-9.87654321e-05, "-9.87654321e-05", True),
        (-1.5e-07, "-1.5e-07", True),
        (1e-14, "1e-14", True),
        (9.99999999e-15, "9.99999999e-15", False),  # 10**23 is not a double
        (5e-324, "4.94065646e-324", False),
    ],
)
def test_format_csv_exponent_notation_edges(x, text, fast):
    line = format_csv(_one_value_rows([x])).splitlines()[1]
    assert line.split(",") == [text] * len(CSV_COLUMNS) == ["%.9g" % x] * len(CSV_COLUMNS)
    assert _fast_path(np.array([x]))[0] == fast


def test_format_csv_fast_path_covers_benchmark_grid():
    # the attack-analysis benchmark's grid; 0.68 % of its values took '%' before exponent
    # notation joined the fast path, 17 of 110 000 after
    rows = sweep_rows(np.linspace(0.004, 1.0, 100), np.linspace(-0.5, 0.995, 100), 3.0)
    x = np.stack([rows[name] for name in CSV_COLUMNS], axis=1, dtype=float)
    assert np.count_nonzero(~_fast_path(x)) < 0.005 * x.size


@pytest.mark.parametrize("f_range, lam_range, steps, log_base", GOLDEN_GRIDS)
def test_format_csv_matches_reference_on_golden_grids(f_range, lam_range, steps, log_base):
    rows = sweep_rows(np.linspace(*f_range, steps), np.linspace(*lam_range, steps), log_base)
    comments = ("attack sweep", "clipped")
    _assert_same_text(format_csv(rows, comments), reference_format_csv(rows, comments))


@pytest.mark.parametrize("log_base", [1.0000000001, 1e308])
def test_format_csv_matches_reference_in_exponent_notation(log_base):
    # informations up to 1e10 in base 1 + 1e-10, below 1e-4 in many cells in base 1e308
    rows = sweep_rows(np.linspace(0.0, 1.0, 30), np.linspace(-0.5, 1.0, 30), log_base)
    text = format_csv(rows)
    assert re.search(r"\de[+-]\d", text)
    _assert_same_text(text, reference_format_csv(rows))


@pytest.mark.parametrize("n_rows", [0, 1, 2 * tritkd.sweep._CSV_BLOCK + 3])
def test_format_csv_matches_reference_at_any_length(n_rows):
    rows = sweep_rows(np.linspace(0.0, 1.0, n_rows), [0.25])
    assert len(rows) == n_rows
    _assert_same_text(format_csv(rows, ("note",)), reference_format_csv(rows, ("note",)))


def test_format_csv_memory_is_bounded_by_blocks():
    # the text itself, a copy of it in per-block pieces, and one block's temporaries
    rows = sweep_rows(np.linspace(0.0, 1.0, 300), np.linspace(-0.5, 1.0, 300))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = format_csv(rows)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * len(text)


def _rows_with_flags(flags, seed=19):
    """Records of random floats, with the given two arrays as the flag columns."""
    rng = np.random.default_rng(seed)
    values = [rng.uniform(-2.0, 2.0, len(flags[0])) for _ in CSV_COLUMNS[:-2]]
    return np.rec.fromarrays([*values, *flags], names=CSV_COLUMNS)


@pytest.mark.parametrize("dtypes", [(bool, bool), (float, float), (bool, float), (float, bool)])
def test_format_csv_bool_flags_match_float_flags(dtypes):
    # boolean flags skip the digit passes; as floats 0.0 and 1.0 they take them; either way,
    # and mixed, the text is the same, also where the flags flip across both block boundaries
    block = tritkd.sweep._CSV_BLOCK
    i = np.arange(2 * block + 3)
    flags = [i % 2 == 0, i % 3 != 1]
    for edge in (block, 2 * block):
        assert all(flag[edge - 1] != flag[edge] for flag in flags)
    text = format_csv(_rows_with_flags([flag.astype(dtype) for flag, dtype in zip(flags, dtypes)]))
    assert text == format_csv(_rows_with_flags(flags))
    _assert_same_text(text, reference_format_csv(_rows_with_flags(flags)))


def test_format_csv_float_valued_flags_render_as_percent_g():
    bell = np.array([0.5, np.nan, np.inf, -0.0, 2.0, 1e-20])
    rows = _rows_with_flags([bell, np.array([1.0, 0.0, -1.0, 0.25, np.nan, 3.0])])
    text = format_csv(rows)
    assert text.splitlines()[1].endswith(",0.5,1")
    _assert_same_text(text, reference_format_csv(rows))


@pytest.mark.parametrize("comment", ["a\nb", "a\rb", "\r\n"])
def test_format_csv_rejects_line_breaks_in_comments(comment):
    # "a\nb" used to put a data line "b" above the header
    with pytest.raises(ValueError, match="line break"):
        format_csv(sweep_rows([0.5], [0.5]), comments=(comment,))


def test_crossover_reproduces_reference_value():
    result = find_crossover()
    assert abs(result.v_max - 0.6629) <= 5e-4
    assert result.v_max < CRITICAL_VISIBILITY


def test_crossover_argmax_sits_on_boundary():
    result = find_crossover(tolerance=1e-8)
    params = AttackParams(f=result.argmax_f, lam=result.argmax_lam)
    assert abs(params.visibility - result.v_max) < 1e-12
    gap = mutual_info_ae(params, 3.0) - mutual_info_ab(params, 3.0)
    assert abs(gap) <= 1e-8


def test_crossover_tolerance_convergence():
    coarse = find_crossover(tolerance=1e-3)
    fine = find_crossover(tolerance=5e-4)
    assert abs(fine.v_max - coarse.v_max) < 1e-3
    assert coarse.tolerance == 1e-3


def test_crossover_log_base_invariant():
    base3 = find_crossover(tolerance=1e-7, log_base=3.0)
    base_e = find_crossover(tolerance=1e-7, log_base=np.e)
    assert abs(base3.v_max - base_e.v_max) < 2e-7


def test_crossover_rejects_bad_tolerance():
    for tolerance in (0.0, -1e-6, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            find_crossover(tolerance=tolerance)
    # finite but below what the search in double precision can reach
    with pytest.raises(ValueError, match="not reached"):
        find_crossover(tolerance=1e-300)


@pytest.mark.parametrize("log_base", [2.0, np.e, 3.0])
def test_crossover_stops_at_the_rounding_floor(log_base, monkeypatch):
    # 1e-16 is below one ulp of v* (1.1e-16): once no double lies inside the bracket the search
    # gives up, after a few steps rather than a fixed cap of them
    calls = []
    best_gap = tritkd.sweep._best_gap

    def counting_best_gap(*args):
        calls.append(args)
        return best_gap(*args)

    monkeypatch.setattr(tritkd.sweep, "_best_gap", counting_best_gap)
    with pytest.raises(ValueError, match="not reached"):
        find_crossover(tolerance=1e-16, log_base=log_base)
    assert len(calls) <= 12


@pytest.mark.parametrize("log_base", [2.0, np.e, 3.0])
def test_crossover_fine_tolerance_hits_reference(log_base):
    result = find_crossover(tolerance=1e-10, log_base=log_base)
    assert abs(result.v_max - 0.6629132985) <= 1e-8
    assert result.tolerance == 1e-10


@pytest.mark.parametrize("log_base", [2.0, np.e, 3.0])
def test_crossover_certified_in_decimal(log_base):
    # the contour maximum of the gap, from the closed forms in 40-digit
    # decimal arithmetic, changes sign within the reported tolerance of v_max
    tol = 1e-10
    result = find_crossover(tolerance=tol, log_base=log_base)
    with decimal.localcontext(DECIMAL_CONTEXT):
        v, t = Decimal(result.v_max), Decimal(tol)
        below, at, above = (decimal_max_gap(x, result.argmax_f, log_base) for x in (v - t, v, v + t))
    assert below >= 0
    assert above < 0
    assert abs(at) <= t


def test_crossover_reports_how_the_search_ended():
    result = find_crossover(tolerance=1e-10)
    assert type(result.iterations) is int
    assert type(result.bracket) is float and type(result.gap_residual) is float
    assert 0.0 < result.bracket < 1e-10
    assert abs(result.gap_residual) <= 1e-10
    params = AttackParams(f=result.argmax_f, lam=result.argmax_lam)
    gap = mutual_info_ae(params, 3.0) - mutual_info_ab(params, 3.0)
    assert abs(gap - result.gap_residual) <= 1e-15
    # a regression guard for the search's speed that timing noise cannot touch
    assert result.iterations <= 10


def test_bracket_equals_full_scan():
    full = _best_gap(BRACKET_GRID)[0]
    k = np.nonzero((full[:-1] >= 0.0) & (full[1:] < 0.0))[0][-1]
    lo, hi, g_lo, g_hi = _bracket()
    assert (lo, hi) == (BRACKET_GRID[k], BRACKET_GRID[k + 1])
    assert np.array_equal([g_lo, g_hi], full[k : k + 2])


@pytest.mark.parametrize("tolerance", [1e-3, 1e-6, 1e-10])
@pytest.mark.parametrize("log_base", [2.0, np.e, 3.0])
def test_crossover_matches_full_scan_reference(tolerance, log_base):
    assert find_crossover(tolerance, log_base) == reference_find_crossover(tolerance, log_base)


def test_crossover_evaluation_budget(monkeypatch):
    # a guard on the search's work that timing noise cannot touch: the fixed bracket's ends and
    # the steps from it evaluate I_AE at 6 432 points; a rescan of the 199-point grid would not fit
    points = []

    def counted(params, log_base=3.0):
        points.append(np.broadcast(params.f, params.lam).size)
        return mutual_info_ae(params, log_base)

    monkeypatch.setattr(tritkd.sweep, "mutual_info_ae", counted)
    find_crossover(1e-10)
    assert 0 < sum(points) <= 10_000


def test_best_gap_matches_deep_zoom():
    vs = np.linspace(0.01, 0.999, 199)
    gap, _ = _best_gap(vs)
    deep, _ = reference_best_gap(vs)
    assert np.array_equal(np.sign(gap), np.sign(deep))
    assert np.max(np.abs(gap - deep)) <= 1e-14


def test_crossover_closed_form_call_budget(monkeypatch):
    # a guard on the search's numpy-call overhead that timing noise cannot touch: each call of
    # I_AE is one pass over a grid; the search made 43 with seven passes a contour, one v a step
    calls = []

    def counted(params, log_base=3.0):
        calls.append(params)
        return mutual_info_ae(params, log_base)

    monkeypatch.setattr(tritkd.sweep, "mutual_info_ae", counted)
    find_crossover(1e-10)
    assert 0 < len(calls) <= 25


def test_best_gap_matches_deep_zoom_at_random_visibilities():
    vs = np.random.default_rng(2024).uniform(0.01, 0.999, 200)
    gap, _ = _best_gap(vs)
    deep, _ = reference_best_gap(vs)
    assert np.array_equal(np.sign(gap), np.sign(deep))
    assert np.max(np.abs(gap - deep)) <= 1e-14


@pytest.mark.parametrize("log_base", BAD_LOG_BASES)
def test_crossover_rejects_bad_log_base(log_base):
    # 0.5 and inf gave a result whose gap was never checked (scale <= 0), and
    # 1, nan and -2 used up the step budget and then blamed the tolerance
    with pytest.raises(ValueError, match="log_base must be finite and greater than 1"):
        find_crossover(1e-6, log_base)


@pytest.mark.parametrize("info", [mutual_info_ab, mutual_info_ae])
@pytest.mark.parametrize("log_base", BAD_LOG_BASES)
def test_mutual_info_rejects_bad_log_base(info, log_base):
    # base 1 gave inf, 0.5 negative information, inf 0, and nan and -2 gave nan
    with pytest.raises(ValueError, match="log_base must be finite and greater than 1"):
        info(AttackParams(f=0.9, lam=0.8), log_base)


@pytest.mark.parametrize("log_base", BAD_LOG_BASES)
def test_sweep_rows_rejects_bad_log_base(log_base):
    # base 0.5 flips the sign of both informations, so v = 0.25 read as secure
    with pytest.raises(ValueError, match="log_base must be finite and greater than 1"):
        sweep_rows([0.5], [0.5], log_base=log_base)
