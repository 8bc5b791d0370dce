"""Tests for the linear-algebra and state-construction layer."""

import numpy as np
import pytest

from explicit import InfeasibleGramError, chi_state, inv_sqrt, trace_out_ancilla, vectors_from_gram
from tritkd.quantum import ALPHA, max_entangled_state, standard_settings, tensor, tritter_unitary


def test_tritter_zero_phases_entries():
    u = tritter_unitary((0.0, 0.0, 0.0))
    k = np.arange(3).reshape(3, 1)
    l = np.arange(3).reshape(1, 3)
    assert np.abs(u - ALPHA ** (k * l) / np.sqrt(3)).max() < 1e-15
    assert np.abs(np.abs(u) - 1 / np.sqrt(3)).max() < 1e-15


def test_tritter_unitary_on_random_phases():
    rng = np.random.default_rng(7)
    for phases in rng.uniform(-10.0, 10.0, size=(2000, 3)):
        u = tritter_unitary(phases)
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-12


def test_tritter_phases_scale_exit_columns():
    base = tritter_unitary((0.0, 0.0, 0.0))
    u = tritter_unitary((np.pi, 0.0, -np.pi))
    assert np.abs(u - base * np.array([-1.0, 1.0, -1.0])).max() < 1e-12


def test_tritter_rejects_nonfinite_phases():
    for bad in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0)):
        with pytest.raises(ValueError):
            tritter_unitary(bad)
    with pytest.raises(ValueError):
        tritter_unitary((0.0, 0.0))


def test_standard_settings_values():
    alice, bob = standard_settings()
    assert np.array_equal(alice[0], [0.0, 0.0, 0.0])
    assert np.array_equal(alice[1], [0.0, np.pi / 3, -np.pi / 3])
    assert np.array_equal(alice[2], [np.pi, 0.0, -np.pi])
    assert np.array_equal(bob[0], [0.0, np.pi / 6, -np.pi / 6])
    assert np.array_equal(bob[1], [0.0, -np.pi / 6, np.pi / 6])
    assert np.array_equal(bob[2], [-np.pi, 0.0, np.pi])


def test_standard_settings_matrices_are_unbiased():
    alice, bob = standard_settings()
    for phases in alice + bob:
        u = tritter_unitary(phases)
        assert np.abs(np.abs(u) - 1 / np.sqrt(3)).max() < 1e-12


def test_max_entangled_state():
    psi = max_entangled_state()
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1 / np.sqrt(3)
    assert np.abs(psi - expected).max() < 1e-15
    assert abs(np.linalg.norm(psi) ** 2 - 1.0) < 1e-15
    marginal = trace_out_ancilla(psi, 3, 3)
    assert np.abs(marginal - np.eye(3) / 3).max() < 1e-15


def test_chi_states():
    chi1 = chi_state(1)
    chi2 = chi_state(2)
    assert np.abs(chi1[[0, 4, 8]] - np.array([1, ALPHA, ALPHA**2]) / np.sqrt(3)).max() < 1e-15
    assert np.abs(chi2[[0, 4, 8]] - np.array([1, ALPHA**2, ALPHA]) / np.sqrt(3)).max() < 1e-15
    psi = max_entangled_state()
    assert abs(np.vdot(chi1, chi2)) < 1e-15
    assert abs(np.vdot(psi, chi1)) < 1e-15
    assert abs(np.vdot(psi, chi2)) < 1e-15
    with pytest.raises(ValueError):
        chi_state(0)


def test_tensor_basis_and_identity():
    e0 = np.eye(3)[0]
    e1 = np.eye(3)[1]
    out = tensor(e0, e1)
    assert out.shape == (9,)
    assert out[1] == 1.0 and np.count_nonzero(out) == 1
    assert np.array_equal(tensor(np.eye(3), np.eye(3)), np.eye(9))


def test_tensor_bilinearity_and_norm():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        y = rng.normal(size=3) + 1j * rng.normal(size=3)
        lhs = tensor(u, v) @ tensor(x, y)
        rhs = tensor(u @ x, v @ y)
        assert np.abs(lhs - rhs).max() < 1e-12
        assert abs(
            np.linalg.norm(tensor(x, y)) - np.linalg.norm(x) * np.linalg.norm(y)
        ) < 1e-12


def test_tensor_associative():
    rng = np.random.default_rng(12)
    a, b, c = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3))
    assert np.abs(tensor(tensor(a, b), c) - tensor(a, tensor(b, c))).max() < 1e-15


def test_inv_sqrt_identity_and_diagonal():
    assert np.abs(inv_sqrt(np.eye(4)) - np.eye(4)).max() < 1e-14
    out = inv_sqrt(np.diag([4.0, 1.0, 0.0]))
    assert np.abs(out - np.diag([0.5, 1.0, 0.0])).max() < 1e-14


def test_inv_sqrt_defining_property():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        psd = m @ m.conj().T + 0.1 * np.eye(5)
        root = inv_sqrt(psd)
        assert np.abs(root @ psd @ root - np.eye(5)).max() < 1e-9


def test_inv_sqrt_rejects_non_hermitian():
    with pytest.raises(ValueError):
        inv_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_vectors_from_gram_identity():
    vecs = vectors_from_gram(np.eye(3))
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    assert np.abs(gram - np.eye(3)).max() < 1e-12


def test_vectors_from_gram_trine():
    gram = np.full((3, 3), -0.5)
    np.fill_diagonal(gram, 1.0)
    vecs = vectors_from_gram(gram)
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(np.vdot(vecs[i], vecs[j]) + 0.5) < 1e-12
    # coplanar: the stack has rank 2
    assert np.linalg.matrix_rank(np.array(vecs), tol=1e-8) == 2


def test_vectors_from_gram_recovers_overlap():
    gram = np.full((3, 3), 0.7)
    np.fill_diagonal(gram, 1.0)
    vecs = vectors_from_gram(gram)
    for i in range(3):
        for j in range(3):
            expected = 1.0 if i == j else 0.7
            assert abs(np.vdot(vecs[i], vecs[j]) - expected) < 1e-10


def test_vectors_from_gram_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gram = m @ m.conj().T
        vecs = vectors_from_gram(gram)
        rebuilt = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        assert np.abs(rebuilt - gram).max() < 1e-9


def test_vectors_from_gram_rejects_infeasible():
    gram = np.full((3, 3), -0.6)
    np.fill_diagonal(gram, 1.0)
    with pytest.raises(InfeasibleGramError):
        vectors_from_gram(gram)
