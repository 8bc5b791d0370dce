"""Tests for the eavesdropping analysis: closed forms against explicit states."""

import numpy as np
import pytest

from explicit import (
    _SLOT_OF_FLAT,
    DegenerateDiscriminationError,
    coefficients,
    correlation_q,
    density_from_coefficients,
    reduced_density,
    srm_directions,
    trace_out_ancilla,
    vectors_from_gram,
)
from oracles import (
    ab_joint_table_explicit,
    conditional_ancillas,
    eve_joint_table_explicit,
    explicit_subspace_quantities,
    feasible_grid,
    joint_probs_rho,
    mutual_info_from_table,
    transformed_ancillas,
)
from tritkd.attack import (
    SUBSPACE_PAIRS,
    AttackParams,
    ab_error,
    build_ancilla_states,
    build_tripartite,
    eve_error,
    mutual_info_ab,
    mutual_info_ae,
    srm_success,
    subspace_analysis,
    transformed_tripartite,
)
from tritkd.correlations import CRITICAL_VISIBILITY, correlation_q_closed
from tritkd.quantum import max_entangled_state, standard_settings
from tritkd.simulate import _GROUP_OF_FLAT


def test_params_validation():
    AttackParams(f=0.0, lam=-0.5)
    AttackParams(f=1.0, lam=1.0)
    with pytest.raises(ValueError):
        AttackParams(f=1.1, lam=0.5)
    with pytest.raises(ValueError):
        AttackParams(f=-0.1, lam=0.5)
    with pytest.raises(ValueError):
        AttackParams(f=0.5, lam=-0.6)
    with pytest.raises(ValueError):
        AttackParams(f=0.5, lam=1.2)
    with pytest.raises(ValueError):
        AttackParams(f=float("nan"), lam=0.5)
    # arrays are checked elementwise; one NaN or out-of-range entry rejects all
    AttackParams(f=np.array([0.0, 1.0]), lam=np.array([-0.5, 1.0]))
    with pytest.raises(ValueError):
        AttackParams(f=np.array([0.5, np.nan]), lam=0.5)
    with pytest.raises(ValueError):
        AttackParams(f=0.5, lam=np.array([0.0, -0.6]))


def test_subspace_grouping():
    assert SUBSPACE_PAIRS[0] == ((0, 0), (1, 2), (2, 1))
    # the (group, slot) tables the simulation samples from, indexed by 3a + b
    for (a, b), position in (((0, 0), (0, 0)), ((2, 0), (1, 1)), ((0, 1), (2, 2))):
        assert (_GROUP_OF_FLAT[3 * a + b], _SLOT_OF_FLAT[3 * a + b]) == position


def test_coefficients_undisturbed():
    co = coefficients(AttackParams(f=1.0, lam=1.0))
    assert (co.a, co.b, co.c, co.d) == (1.0, 0.0, 0.0, 0.0)


def test_coefficients_full_matched_block():
    for lam in (-0.5, 0.0, 0.3, 1.0):
        co = coefficients(AttackParams(f=1.0, lam=lam))
        assert abs(co.a - (1 + 2 * lam) / 3) < 1e-15
        assert abs(co.b - (1 - lam) / 3) < 1e-15
        assert co.d == 0.0


def test_coefficients_example_point():
    co = coefficients(AttackParams(f=0.9, lam=0.8))
    assert abs(co.d - 0.15) < 1e-15
    assert abs((co.a - co.b) - 0.72) < 1e-15


def test_coefficients_constraints_on_grid():
    f_vals, lam_vals = feasible_grid(10, 10)
    for f in f_vals:
        for lam in lam_vals:
            params = AttackParams(f=float(f), lam=float(lam))
            co = coefficients(params)
            assert abs(co.a + 2 * co.b + co.d - 1.0) < 1e-12
            assert co.b == co.c
            assert abs((co.a - co.b) - params.visibility) < 1e-12


def test_ancilla_states_orthogonal_structure():
    states = build_ancilla_states(AttackParams(f=0.5, lam=0.0))
    keys = list(states)
    gram = np.array([[np.vdot(states[i], states[j]) for j in keys] for i in keys])
    assert np.abs(gram - np.eye(9)).max() < 1e-12


def test_ancilla_states_identical_at_full_overlap():
    states = build_ancilla_states(AttackParams(f=0.5, lam=1.0))
    assert np.abs(states[(0, 0)] - states[(1, 1)]).max() < 1e-10
    assert np.abs(states[(0, 0)] - states[(2, 2)]).max() < 1e-10


@pytest.mark.parametrize("lam", [-0.5, -0.2, 0.0, 0.3, 0.5, 0.9, 1.0])
def test_ancilla_closed_form_matches_general_gram_root(lam):
    # at the endpoints the general routine zeroes a rank-cutoff eigenvalue; the closed form has a or b = 0
    gram = np.full((3, 3), complex(lam))
    np.fill_diagonal(gram, 1.0)
    states = build_ancilla_states(AttackParams(f=0.5, lam=lam))
    matched = np.array([states[(k, k)][:3] for k in range(3)])
    assert np.abs(matched - np.array(vectors_from_gram(gram))).max() < 1e-14


def test_ancilla_matched_block_overlap():
    # The matched-block Gram at lam=0.5 has eigenvalues (2, 0.5, 0.5).
    gram = np.full((3, 3), 0.5)
    np.fill_diagonal(gram, 1.0)
    assert np.abs(np.sort(np.linalg.eigvalsh(gram)) - [0.5, 0.5, 2.0]).max() < 1e-12

    states = build_ancilla_states(AttackParams(f=0.5, lam=0.5))
    for k in range(3):
        for l in range(3):
            expected = 1.0 if k == l else 0.5
            assert abs(np.vdot(states[(k, k)], states[(l, l)]) - expected) < 1e-10
    # unmatched ancillas stay orthonormal and orthogonal to the matched block
    unmatched = [states[p] for p in states if p[0] != p[1]]
    for i, u in enumerate(unmatched):
        for j, v in enumerate(unmatched):
            assert abs(np.vdot(u, v) - (1.0 if i == j else 0.0)) < 1e-12
        for k in range(3):
            assert abs(np.vdot(u, states[(k, k)])) < 1e-12


def test_tripartite_normalized_and_pure_at_endpoint():
    psi = build_tripartite(AttackParams(f=1.0, lam=1.0))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    rho = trace_out_ancilla(psi, 9, 9)
    source = max_entangled_state()
    assert np.abs(rho - np.outer(source, source.conj())).max() < 1e-12


def test_tripartite_dephased_at_orthogonal_ancillas():
    rho = reduced_density(AttackParams(f=1.0, lam=0.0))
    expected = np.zeros((9, 9))
    for k in (0, 4, 8):
        expected[k, k] = 1 / 3
    assert np.abs(rho - expected).max() < 1e-12


def test_partial_trace_matches_mixture_on_grid():
    f_vals, lam_vals = feasible_grid(20, 20)
    for f in f_vals:
        for lam in lam_vals:
            params = AttackParams(f=float(f), lam=float(lam))
            rho = reduced_density(params)
            expected = density_from_coefficients(coefficients(params))
            assert np.abs(rho - expected).max() < 1e-9


def test_transformed_ancillas_match_transformed_state():
    alice, bob = standard_settings()
    for f, lam in ((0.9, 0.8), (0.4, -0.3), (0.7, 1.0)):
        params = AttackParams(f=f, lam=lam)
        tilde = transformed_ancillas(params)
        stacked = np.concatenate([tilde[(a, b)] for a in range(3) for b in range(3)])
        direct = transformed_tripartite(params, alice[2], bob[2])
        assert np.abs(stacked - direct).max() < 1e-10


def test_transformed_ancilla_norms():
    params = AttackParams(f=0.9, lam=0.8)
    tilde = transformed_ancillas(params)
    v = params.visibility
    assert abs(3 * np.vdot(tilde[(0, 0)], tilde[(0, 0)]).real - (1 + 2 * v) / 3) < 1e-12
    assert abs(3 * np.vdot(tilde[(1, 1)], tilde[(1, 1)]).real - (1 - v) / 3) < 1e-12

    undisturbed = transformed_ancillas(AttackParams(f=1.0, lam=1.0))
    assert np.vdot(undisturbed[(1, 1)], undisturbed[(1, 1)]).real < 1e-15


def test_transformed_ancillas_subspace_orthogonality():
    params = AttackParams(f=0.85, lam=0.6)
    tilde = transformed_ancillas(params)
    for grp_i, pairs_i in enumerate(SUBSPACE_PAIRS):
        for grp_j, pairs_j in enumerate(SUBSPACE_PAIRS):
            if grp_i == grp_j:
                continue
            for pi in pairs_i:
                for pj in pairs_j:
                    assert abs(np.vdot(tilde[pi], tilde[pj])) < 1e-12


def test_transformed_ancillas_symmetric_within_subspace():
    params = AttackParams(f=0.85, lam=0.6)
    tilde = transformed_ancillas(params)
    for pairs in SUBSPACE_PAIRS:
        states = [tilde[p] for p in pairs]
        norms = [np.linalg.norm(s) for s in states]
        assert max(norms) - min(norms) < 1e-12
        overlaps = [
            np.vdot(states[i], states[j]) for i in range(3) for j in range(3) if i != j
        ]
        for ov in overlaps:
            assert abs(ov.imag) < 1e-12
            assert abs(ov - overlaps[0]) < 1e-12


def test_subspace_analysis_endpoint():
    sub = subspace_analysis(AttackParams(f=1.0, lam=1.0))
    assert tuple(sub.p) == (1.0, 0.0, 0.0)
    assert abs(sub.lam_tilde[0] - 1.0) < 1e-15
    assert abs(sub.w[0] - 1 / 3) < 1e-15
    assert np.isnan(sub.lam_tilde[1]) and np.isnan(sub.w[2])


def test_subspace_analysis_is_array_first():
    # (1, -1/2) empties group 0 and (1, 1) empties groups 1 and 2
    f, lam = np.meshgrid([0.0, 0.3, 1.0], [-0.5, -0.1, 0.4, 1.0], indexing="ij")
    sub = subspace_analysis(AttackParams(f=f, lam=lam))
    for field in ("p", "lam_tilde", "w"):
        grid = getattr(sub, field)
        assert grid.shape == (3, 3, 4)
        for idx in np.ndindex(f.shape):
            point = getattr(subspace_analysis(AttackParams(f=float(f[idx]), lam=float(lam[idx]))), field)
            np.testing.assert_allclose(grid[(slice(None), *idx)], point, rtol=1e-15, atol=0.0)
    assert np.array_equal(np.isnan(sub.lam_tilde), sub.p == 0.0)
    assert np.array_equal(np.isnan(sub.w), sub.p == 0.0)
    assert np.isnan(sub.w).sum() == 3


def test_subspace_analysis_example_point():
    sub = subspace_analysis(AttackParams(f=0.9, lam=0.8))
    assert abs(sub.p[0] - 2.44 / 3) < 1e-12
    assert abs(sub.p[1] - 0.28 / 3) < 1e-12
    assert sub.p[1] == sub.p[2]
    assert abs(sum(sub.p) - 1.0) < 1e-12


def test_subspace_analysis_matches_explicit_states():
    f_vals, lam_vals = feasible_grid(12, 12)
    for f in f_vals:
        for lam in lam_vals:
            params = AttackParams(f=float(f), lam=float(lam))
            sub = subspace_analysis(params)
            p_ex, lt_ex, w_ex = explicit_subspace_quantities(params)
            for i in range(3):
                assert abs(sub.p[i] - p_ex[i]) < 1e-10
                assert abs(sub.lam_tilde[i] - lt_ex[i]) < 1e-10
                assert abs(sub.w[i] - w_ex[i]) < 1e-9
                assert 1 / 3 - 1e-12 <= sub.w[i] <= 1.0 + 1e-12
            assert abs(sum(sub.p) - 1.0) < 1e-12
            assert sub.p[1] == sub.p[2]
            assert sub.lam_tilde[1] == sub.lam_tilde[2]


def test_srm_success_reference_values():
    assert abs(srm_success(0.0) - 1.0) < 1e-15
    assert abs(srm_success(1.0) - 1 / 3) < 1e-15
    assert abs(srm_success(-0.5) - 2 / 3) < 1e-15
    assert abs(srm_success(0.5) - 8 / 9) < 1e-12


def test_srm_directions_orthonormal_inputs_fixed():
    basis = [np.eye(4, dtype=complex)[i] for i in range(3)]
    directions = srm_directions(basis)
    for want, got in zip(basis, directions):
        assert np.abs(want - got).max() < 1e-12


def test_srm_directions_symmetric_states():
    gram = np.full((3, 3), 0.5)
    np.fill_diagonal(gram, 1.0)
    states = vectors_from_gram(gram)
    directions = srm_directions(states)
    gram_out = np.array([[np.vdot(a, b) for b in directions] for a in directions])
    assert np.abs(gram_out - np.eye(3)).max() < 1e-10
    success = abs(np.vdot(directions[0], states[0])) ** 2
    assert abs(success - 8 / 9) < 1e-9
    for wrong in (1, 2):
        cross = abs(np.vdot(directions[wrong], states[0])) ** 2
        assert abs(cross - (1 - 8 / 9) / 2) < 1e-9


def test_srm_directions_degenerate_ranks():
    identical = vectors_from_gram(np.ones((3, 3)))
    with pytest.raises(DegenerateDiscriminationError) as err:
        srm_directions(identical)
    assert err.value.rank == 1

    trine_gram = np.full((3, 3), -0.5)
    np.fill_diagonal(trine_gram, 1.0)
    with pytest.raises(DegenerateDiscriminationError) as err:
        srm_directions(vectors_from_gram(trine_gram))
    assert err.value.rank == 2


def test_srm_probability_calibration():
    # Formula side: w + 2*(1-w)/2 = 1.  Explicit side: the projection
    # probabilities onto the three directions are (w, (1-w)/2, (1-w)/2).
    for f, lam in ((0.9, 0.8), (0.6, 0.4), (0.75, -0.2)):
        params = AttackParams(f=f, lam=lam)
        sub = subspace_analysis(params)
        cond = conditional_ancillas(params)
        for grp, pairs in enumerate(SUBSPACE_PAIRS):
            states = [cond[p] for p in pairs]
            directions = srm_directions(states)
            w = sub.w[grp]
            assert w + 2 * (1 - w) / 2 == 1.0
            norm0 = np.linalg.norm(states[0]) ** 2
            probs = [abs(np.vdot(d, states[0])) ** 2 / norm0 for d in directions]
            assert abs(probs[0] - w) < 1e-9
            assert abs(probs[1] - (1 - w) / 2) < 1e-9
            assert abs(probs[2] - (1 - w) / 2) < 1e-9
            assert abs(sum(probs) - 1.0) < 1e-10


def test_eve_error_values():
    assert abs(eve_error(AttackParams(f=1.0, lam=1.0)) - 2 / 3) < 1e-12
    # Both subspace overlaps vanish at f=1/3, lam=0: perfect discrimination.
    sub = subspace_analysis(AttackParams(f=1 / 3, lam=0.0))
    assert abs(sub.lam_tilde[0]) < 1e-15
    assert abs(sub.lam_tilde[1]) < 1e-15
    assert eve_error(AttackParams(f=1 / 3, lam=0.0)) < 1e-12


def test_ab_error_values():
    assert ab_error(AttackParams(f=1.0, lam=1.0)) == 0.0
    v0_params = AttackParams(f=1.0, lam=CRITICAL_VISIBILITY)
    assert abs(ab_error(v0_params) - 0.2025650) < 1e-7
    params = AttackParams(f=0.9, lam=0.8)
    sub = subspace_analysis(params)
    assert abs(ab_error(params) - (sub.p[1] + sub.p[2])) < 1e-12


def test_eve_error_dominates_in_secure_region():
    f_vals, lam_vals = feasible_grid(20, 20)
    checked = 0
    for f in f_vals:
        for lam in lam_vals:
            params = AttackParams(f=float(f), lam=float(lam))
            if params.visibility >= CRITICAL_VISIBILITY:
                assert eve_error(params) >= ab_error(params)
                checked += 1
    assert checked > 0


def test_mutual_info_ab_endpoints():
    assert abs(mutual_info_ab(AttackParams(f=1.0, lam=1.0), 3.0) - 1.0) < 1e-12
    assert abs(mutual_info_ab(AttackParams(f=0.5, lam=0.0), 3.0)) < 1e-12


@pytest.mark.parametrize("v", [1e-6, -1e-6, 1e-4, -1e-4])
def test_mutual_info_ab_small_visibility(v):
    # Taylor series of ((1+2v) ln(1+2v) + 2(1-v) ln(1-v))/3; the next term is O(v^5)
    series = (v**2 - v**3 / 3 + v**4 / 2) / np.log(3.0)
    assert abs(mutual_info_ab(AttackParams(f=1.0, lam=v)) / series - 1.0) < 1e-9


def test_mutual_info_ab_against_entropy_oracle():
    params = AttackParams(f=0.9, lam=0.8)
    explicit = ab_joint_table_explicit(params)
    assert abs(mutual_info_ab(params, 3.0) - mutual_info_from_table(explicit, 3.0)) < 1e-12


def test_mutual_info_ae_endpoints():
    assert abs(mutual_info_ae(AttackParams(f=1.0, lam=1.0), 3.0)) < 1e-12
    # perfect discrimination in every occupied subspace leaks the full symbol
    assert abs(mutual_info_ae(AttackParams(f=1 / 3, lam=0.0), 3.0) - 1.0) < 1e-12
    assert abs(mutual_info_ae(AttackParams(f=1 / 3, lam=0.0), np.e) - np.log(3)) < 1e-12


def test_mutual_informations_match_explicit_tables_on_grid():
    f_vals, lam_vals = feasible_grid(50, 50)
    worst_ab = worst_ae = 0.0
    for f in f_vals:
        for lam in lam_vals:
            params = AttackParams(f=float(f), lam=float(lam))
            ab_gap = abs(
                mutual_info_ab(params, 3.0)
                - mutual_info_from_table(ab_joint_table_explicit(params), 3.0)
            )
            ae_gap = abs(
                mutual_info_ae(params, 3.0)
                - mutual_info_from_table(eve_joint_table_explicit(params), 3.0)
            )
            worst_ab = max(worst_ab, ab_gap)
            worst_ae = max(worst_ae, ae_gap)
    assert worst_ab < 1e-12
    assert worst_ae < 1e-12


def test_visibility_law_on_reduced_state():
    alice, bob = standard_settings()
    for f, lam in ((0.9, 0.8), (0.6, -0.4), (0.75, 1.0)):
        params = AttackParams(f=f, lam=lam)
        rho = reduced_density(params)
        for pa in alice:
            for pb in bob:
                measured = correlation_q(joint_probs_rho(rho, pa, pb))
                pure = correlation_q_closed(pa, pb)
                assert abs(measured - params.visibility * pure) < 1e-10


def test_monotonicity_at_fixed_f():
    # The error rate falls over the whole overlap range; the shared
    # information rises only for nonnegative overlaps (anticorrelation at
    # negative visibility carries information of its own).
    lams = np.linspace(-0.4, 1.0, 15)
    errors = [ab_error(AttackParams(f=0.8, lam=float(l))) for l in lams]
    assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))

    lams = np.linspace(0.0, 1.0, 15)
    infos = [mutual_info_ab(AttackParams(f=0.8, lam=float(l)), 3.0) for l in lams]
    assert all(i1 < i2 for i1, i2 in zip(infos, infos[1:]))
