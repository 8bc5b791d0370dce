"""Tests for the sweep grid values and the crossover search."""

import warnings

import numpy as np
import pytest

from tritkd.attack import (
    AttackParams,
    ab_error,
    eve_error,
    mutual_info_ab,
    mutual_info_ae,
    subspace_analysis,
)
from tritkd.correlations import CRITICAL_VISIBILITY
from tritkd.sweep import CSV_COLUMNS, find_crossover, format_csv, sweep_rows


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


def test_sweep_row_order_is_f_outer():
    rows = sweep_rows([0.1, 0.2], [0.3, 0.4])
    assert [(r.f, r.lam) for r in rows] == [(0.1, 0.3), (0.1, 0.4), (0.2, 0.3), (0.2, 0.4)]


def test_sweep_rows_match_scalar_closed_forms():
    # (1, -1/2) empties group 0 and (1, 1) empties groups 1 and 2
    f_values, lam_values = [0.0, 0.3, 1.0], [-0.5, -0.1, 0.4, 1.0]
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
    # finite but below what bisection in double precision can reach
    with pytest.raises(ValueError, match="not reached"):
        find_crossover(tolerance=1e-300)


@pytest.mark.parametrize("log_base", [2.0, np.e, 3.0])
def test_crossover_fine_tolerance_hits_reference(log_base):
    result = find_crossover(tolerance=1e-10, log_base=log_base)
    assert abs(result.v_max - 0.6629132985) <= 1e-8
    assert result.tolerance == 1e-10
