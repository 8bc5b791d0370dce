"""The optics of the qutrit protocol: tritters, settings and the source state.

State vectors are flat complex numpy vectors (a two-qutrit ket |ab> sits at
index 3a+b), and tensor builds two-qutrit products.  All functions are pure
and inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

# Primitive cube root of unity; the outcome value attached to detector k is ALPHA**k.
ALPHA = np.exp(2j * np.pi / 3)


def _check_phases(phases) -> np.ndarray:
    p = np.asarray(phases, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"expected three phases, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"phases must be finite, got {p}")
    return p


def tritter_unitary(phases) -> np.ndarray:
    """3x3 unitary of an unbiased six-port beamsplitter with tunable phases.

    Entry (k, l) is ALPHA**(k*l) * exp(i*phases[l]) / sqrt(3): input port k,
    exit port l, with the l-th phase shift attached to the exit index.  Every
    entry has magnitude 1/sqrt(3), so a particle entering any port leaves
    through each exit port with equal probability.
    """
    p = _check_phases(phases)
    k = np.arange(3).reshape(3, 1)
    l = np.arange(3).reshape(1, 3)
    return np.exp(2j * np.pi / 3 * (k * l)) * np.exp(1j * p[None, :]) / np.sqrt(3)


def standard_settings() -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The three phase-shift settings per observer used by the protocol.

    Returns (alice, bob), each a tuple of three phase triples.  The third
    setting pair produces strictly correlated outcomes and generates the key;
    the first two pairs feed the Bell test.
    """
    alice = (
        np.array([0.0, 0.0, 0.0]),
        np.array([0.0, np.pi / 3, -np.pi / 3]),
        np.array([np.pi, 0.0, -np.pi]),
    )
    bob = (
        np.array([0.0, np.pi / 6, -np.pi / 6]),
        np.array([0.0, -np.pi / 6, np.pi / 6]),
        np.array([-np.pi, 0.0, np.pi]),
    )
    return alice, bob


def max_entangled_state() -> np.ndarray:
    """(|00> + |11> + |22>) / sqrt(3) as a flat 9-vector."""
    psi = np.zeros(9, dtype=complex)
    psi[[0, 4, 8]] = 1.0 / np.sqrt(3)
    return psi


def tensor(a, b) -> np.ndarray:
    """Tensor (Kronecker) product; composite index = index(a)*dim(b) + index(b)."""
    return np.kron(np.asarray(a), np.asarray(b))
