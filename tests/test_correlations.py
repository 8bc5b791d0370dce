"""Tests for the correlation function, Bell quantity, and thresholds."""

import numpy as np
import pytest

from oracles import joint_probs_rho
from tritkd.correlations import (
    CRITICAL_VISIBILITY,
    LOCAL_REALISM_BOUND,
    QUANTUM_BELL_VALUE,
    bell_s,
    correlation_q,
    correlation_q_closed,
    joint_probs,
)
from tritkd.quantum import ALPHA, chi_state, max_entangled_state, standard_settings

ALICE, BOB = standard_settings()

# Evaluating the closed form at the second Alice / first Bob settings gives
# exactly (e^{-i pi/2} + e^{i pi} + e^{-i pi/2}) / 3.
Q21_EXPECTED = (-1 - 2j) / 3


def _random_state(rng):
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    return v / np.linalg.norm(v)


def test_key_settings_concentrate_on_correlated_pairs():
    table = joint_probs(max_entangled_state(), ALICE[2], BOB[2])
    expected = np.zeros((3, 3))
    for a, b in ((0, 0), (1, 2), (2, 1)):
        expected[a, b] = 1 / 3
    assert np.abs(table - expected).max() < 1e-12


def test_joint_probs_normalized_for_random_inputs():
    rng = np.random.default_rng(23)
    for _ in range(50):
        table = joint_probs(_random_state(rng), rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3))
        assert abs(table.sum() - 1.0) < 1e-10
        assert table.min() >= 0.0


def test_joint_probs_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        joint_probs(np.ones(9, dtype=complex), ALICE[0], BOB[0])


def test_correlation_table_path_matches_closed_form():
    psi = max_entangled_state()
    for pa in ALICE:
        for pb in BOB:
            q_table = correlation_q(joint_probs(psi, pa, pb))
            q_closed = correlation_q_closed(pa, pb)
            assert abs(q_table - q_closed) < 1e-12


def test_correlation_values():
    table = np.zeros((3, 3))
    for a, b in ((0, 0), (1, 2), (2, 1)):
        table[a, b] = 1 / 3
    assert abs(correlation_q(table) - 1.0) < 1e-15

    assert abs(correlation_q(np.full((3, 3), 1 / 9))) < 1e-15

    assert abs(correlation_q_closed(ALICE[1], BOB[0]) - Q21_EXPECTED) < 1e-15
    assert abs(correlation_q(joint_probs(max_entangled_state(), ALICE[1], BOB[0])) - Q21_EXPECTED) < 1e-12


def test_correlation_closed_special_settings():
    assert abs(correlation_q_closed(ALICE[2], BOB[2]) - 1.0) < 1e-15
    assert abs(correlation_q_closed(np.zeros(3), np.zeros(3)) - 1.0) < 1e-15


def test_correlation_magnitude_bounded():
    rng = np.random.default_rng(29)
    for _ in range(100):
        q = correlation_q(joint_probs(_random_state(rng), rng.uniform(-7, 7, 3), rng.uniform(-7, 7, 3)))
        assert abs(q) <= 1.0 + 1e-10


def test_chi_states_rotate_the_correlation():
    # Each chi state multiplies the correlation by a cube root of unity, one
    # state per nontrivial root; with equal weights on the two, a mixture
    # scales correlations by a real factor.
    rng = np.random.default_rng(31)
    for _ in range(10):
        pa = rng.uniform(-5, 5, 3)
        pb = rng.uniform(-5, 5, 3)
        q = correlation_q_closed(pa, pb)
        q1 = correlation_q(joint_probs(chi_state(1), pa, pb))
        q2 = correlation_q(joint_probs(chi_state(2), pa, pb))
        assert abs(q1 - ALPHA**2 * q) < 1e-12
        assert abs(q2 - ALPHA * q) < 1e-12


def test_bell_value_standard_settings():
    q = {
        (k, l): correlation_q_closed(ALICE[k - 1], BOB[l - 1])
        for k in (1, 2)
        for l in (1, 2)
    }
    s = bell_s(q[(1, 1)], q[(1, 2)], q[(2, 1)], q[(2, 2)])
    assert abs(s - QUANTUM_BELL_VALUE) < 1e-9
    assert abs(s - 2.488034) < 1e-6


def test_bell_s_zero_and_scaling():
    assert bell_s(0, 0, 0, 0) == 0.0
    q = {
        (k, l): correlation_q_closed(ALICE[k - 1], BOB[l - 1])
        for k in (1, 2)
        for l in (1, 2)
    }
    full = bell_s(q[(1, 1)], q[(1, 2)], q[(2, 1)], q[(2, 2)])
    half = bell_s(*(0.5 * q[idx] for idx in ((1, 1), (1, 2), (2, 1), (2, 2))))
    assert abs(half - 0.5 * full) < 1e-13


def test_bell_s_real_linear():
    rng = np.random.default_rng(37)
    qs = rng.normal(size=4) + 1j * rng.normal(size=4)
    for scale in (0.25, 0.5, 0.9):
        assert abs(bell_s(*(scale * qs)) - scale * bell_s(*qs)) < 1e-13


def test_thresholds():
    bound, value, v0 = LOCAL_REALISM_BOUND, QUANTUM_BELL_VALUE, CRITICAL_VISIBILITY
    assert abs(bound - np.sqrt(3)) < 1e-15
    assert abs(bound - 1.7320508) < 1e-7
    assert abs(value - 2 * (2 + np.sqrt(3)) / 3) < 1e-15
    assert abs(v0 - 0.6961524) < 1e-7
    assert abs(v0 * value - bound) < 1e-12
    assert abs(bound / value - v0) < 1e-12


def test_joint_probs_rho_matches_pure_state_path():
    psi = max_entangled_state()
    rho = np.outer(psi, psi.conj())
    for pa, pb in ((ALICE[0], BOB[0]), (ALICE[2], BOB[2])):
        assert np.abs(joint_probs_rho(rho, pa, pb) - joint_probs(psi, pa, pb)).max() < 1e-12
