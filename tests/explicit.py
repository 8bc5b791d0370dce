"""Explicit-state references the closed forms and the simulation are tested against.

No command runs these: the library computes every result from closed forms
in (f, lam) and from the white-noise outcome tables.  Here the same
quantities are built the long way, for the tests to hold the library to:
the Hermitian eigendecomposition and the general Gram realisation built on
it (the library roots its one ancilla Gram in closed form),
the noise-mixture decomposition of the reduced Alice-Bob state and its
assembly as a 9x9 density matrix, the reduced state traced out of Eve's
81-dimensional tripartite state, the square-root-measurement directions,
the complex correlation of an outcome table, and the slot of each outcome
within its SUBSPACE_PAIRS group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tritkd.attack import SUBSPACE_PAIRS, AttackParams, build_tripartite
from tritkd.correlations import _OUTCOME_PHASE
from tritkd.quantum import ALPHA, max_entangled_state

_HERMITIAN_ATOL = 1e-10

# Slot of each outcome 3a + b within its SUBSPACE_PAIRS group.
_SLOT_OF_FLAT = np.zeros(9, dtype=np.int8)
for _pairs in SUBSPACE_PAIRS:
    for _slot, (_a, _b) in enumerate(_pairs):
        _SLOT_OF_FLAT[3 * _a + _b] = _slot


class InfeasibleGramError(ValueError):
    """Requested Gram matrix is not positive semidefinite."""


def _hermitian_eigh(m, noun: str) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a square Hermitian matrix; noun names it in the error messages."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square {noun}, got shape {m.shape}")
    if not np.allclose(m, m.conj().T, atol=_HERMITIAN_ATOL, rtol=0.0):
        raise ValueError(f"{noun} is not Hermitian")
    return np.linalg.eigh(m)


def vectors_from_gram(gram) -> list[np.ndarray]:
    """Realize unit-or-not vectors with a prescribed Hermitian PSD Gram matrix.

    Uses the PSD square root, so vector i is column i of gram**(1/2) and every
    pairwise inner product <v_i|v_j> reproduces gram[i, j].  Any realization
    with the same Gram is equivalent for observable quantities; this one
    treats the vectors symmetrically.
    """
    vals, vecs = _hermitian_eigh(gram, "Gram matrix")
    if vals.min() < -1e-10:
        raise InfeasibleGramError(
            f"Gram matrix has negative eigenvalue {vals.min():.3e}"
        )
    # Zero out rank-cutoff eigenvalues so degenerate Grams (e.g. all-ones)
    # don't leak sqrt(eps)-size noise into the realized vectors.
    cutoff = 1e-12 * max(float(vals.max()), np.finfo(float).tiny)
    vals = np.where(vals > cutoff, vals, 0.0)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return [root[:, i].copy() for i in range(len(vals))]


def chi_state(k: int) -> np.ndarray:
    """Maximally entangled two-qutrit states orthogonal to the source state.

    k=1 carries diagonal phases (1, ALPHA, ALPHA**2); k=2 the conjugate
    pattern (1, ALPHA**2, ALPHA).  Both are orthogonal to max_entangled_state
    and to each other because 1 + ALPHA + ALPHA**2 = 0.
    """
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k!r}")
    vec = np.zeros(9, dtype=complex)
    vec[[0, 4, 8]] = ALPHA ** (k * np.arange(3)) / np.sqrt(3)
    return vec


def inv_sqrt(m, tol: float = 1e-12) -> np.ndarray:
    """Inverse square root of a Hermitian PSD matrix, restricted to its support.

    Eigenvalues above tol map to 1/sqrt(value); the rest map to 0, so for
    singular input this is the pseudo-inverse square root.
    """
    vals, vecs = _hermitian_eigh(m, "matrix")
    keep = vals > tol
    inv = np.where(keep, 1.0 / np.sqrt(np.where(keep, vals, 1.0)), 0.0)
    return (vecs * inv) @ vecs.conj().T


def trace_out_ancilla(vec, sys_dim: int, anc_dim: int) -> np.ndarray:
    """Reduced density matrix of a pure state after tracing out the trailing factor."""
    m = np.asarray(vec, dtype=complex).reshape(sys_dim, anc_dim)
    return m @ m.conj().T


def correlation_q(table) -> complex:
    """Complex correlation: sum of ALPHA**(a+b) * p[a, b] over the table."""
    p = np.asarray(table, dtype=float)
    return complex(np.sum(_OUTCOME_PHASE * p))


class DegenerateDiscriminationError(ValueError):
    """States to be discriminated do not span a full-dimensional subspace."""

    def __init__(self, rank: int):
        super().__init__(f"states span only a rank-{rank} subspace")
        self.rank = rank


@dataclass(frozen=True)
class NoiseCoefficients:
    """Mixture weights of the reduced Alice-Bob state (not necessarily positive)."""

    a: float
    b: float
    c: float
    d: float


def coefficients(params: AttackParams) -> NoiseCoefficients:
    """Mixture weights of the reduced two-qutrit state for given attack knobs.

    Unique solution of a + 2b + d = 1, a - b = f*lam, d = 3(1 - f)/2 with
    c = b (symmetric noise forces the two wrong-key weights equal).
    """
    f, lam = params.f, params.lam
    d = 1.5 * (1.0 - f)
    a = (3.0 * f - 1.0 + 4.0 * f * lam) / 6.0
    b = (3.0 * f - 1.0 - 2.0 * f * lam) / 6.0
    return NoiseCoefficients(a=a, b=b, c=b, d=d)


def density_from_coefficients(co: NoiseCoefficients) -> np.ndarray:
    """Assemble the 9x9 reduced state from its mixture weights."""
    psi = max_entangled_state()
    chi1 = chi_state(1)
    chi2 = chi_state(2)
    return (
        co.a * np.outer(psi, psi.conj())
        + co.b * np.outer(chi1, chi1.conj())
        + co.c * np.outer(chi2, chi2.conj())
        + co.d / 9.0 * np.eye(9)
    )


def reduced_density(params: AttackParams) -> np.ndarray:
    """Alice-Bob state after tracing Eve's ancilla out of the tripartite state."""
    return trace_out_ancilla(build_tripartite(params), 9, 9)


def srm_directions(states) -> list[np.ndarray]:
    """Orthonormal square-root-measurement directions for the given states.

    Direction i is Phi**(-1/2) applied to state i, with Phi the sum of the
    states' outer products.  The inputs may be unnormalized but must be
    linearly independent; discriminating n states spanning an n-dimensional
    space makes the directions exactly orthonormal, so the measurement is
    projective.
    """
    vecs = [np.asarray(s, dtype=complex) for s in states]
    phi = sum(np.outer(v, v.conj()) for v in vecs)
    scale = max(float(np.linalg.norm(phi)), np.finfo(float).tiny)
    vals = np.linalg.eigvalsh(phi)
    rank = int(np.sum(vals > 1e-10 * scale))
    if rank < len(vecs):
        raise DegenerateDiscriminationError(rank)
    root = inv_sqrt(phi, tol=1e-10 * scale)
    return [root @ v for v in vecs]
