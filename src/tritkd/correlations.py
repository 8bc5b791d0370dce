"""Joint outcome statistics, the complex correlation function, and the Bell quantity."""

from __future__ import annotations

import numpy as np

from .quantum import ALPHA, tensor, tritter_unitary

# Largest value the Bell quantity can take under local realism.
LOCAL_REALISM_BOUND = np.sqrt(3.0)
# Value reached by the source state with the standard settings.
QUANTUM_BELL_VALUE = 2.0 * (2.0 + np.sqrt(3.0)) / 3.0
# Visibility below which the Bell inequality is no longer violated, exactly
# LOCAL_REALISM_BOUND / QUANTUM_BELL_VALUE: attenuating every correlation by
# it lands the Bell quantity on the local-realism line.
CRITICAL_VISIBILITY = (6.0 * np.sqrt(3.0) - 9.0) / 2.0

_OUTCOME_PHASE = ALPHA ** np.add.outer(np.arange(3), np.arange(3))

# The Bell functional S = Im(sum of weight * Q_kl), added in this order.
BELL_WEIGHTS = {(1, 1): -ALPHA**2, (1, 2): ALPHA, (2, 1): ALPHA**2, (2, 2): -ALPHA**2}


def _checked_table(p: np.ndarray) -> np.ndarray:
    # Clamp floating-point dust; anything more negative is a construction bug.
    if p.min() < -1e-12:
        raise ValueError(f"negative probability {p.min():.3e}")
    total = p.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return np.clip(p, 0.0, None)


def joint_probs(state, phases_a, phases_b) -> np.ndarray:
    """Outcome probabilities p[a, b] after both tritters act on a pure state."""
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (9,):
        raise ValueError(f"state must be a 9-vector, got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state is not normalized (norm {norm})")
    amp = tensor(tritter_unitary(phases_a), tritter_unitary(phases_b)) @ psi
    return _checked_table(np.abs(amp.reshape(3, 3)) ** 2)


def correlation_q(table) -> complex:
    """Complex correlation: sum of ALPHA**(a+b) * p[a, b] over the table."""
    p = np.asarray(table, dtype=float)
    return complex(np.sum(_OUTCOME_PHASE * p))


def correlation_q_closed(phases_a, phases_b) -> complex:
    """Correlation of the source state, straight from the phase settings.

    Equals the mean of exp(i * (da + db)) over the three cyclic phase
    differences d = (phi_0 - phi_1, phi_1 - phi_2, phi_2 - phi_0) of each
    observer, which is what the probability-table path yields on the
    maximally entangled state.
    """
    pa = np.asarray(phases_a, dtype=float)
    pb = np.asarray(phases_b, dtype=float)
    d = (pa - np.roll(pa, -1)) + (pb - np.roll(pb, -1))
    return complex(np.mean(np.exp(1j * d)))


def bell_s(q11: complex, q12: complex, q21: complex, q22: complex) -> float:
    """Bell quantity Im(-ALPHA**2*q11 + ALPHA*q12 + ALPHA**2*q21 - ALPHA**2*q22) of BELL_WEIGHTS."""
    w11, w12, w21, w22 = BELL_WEIGHTS.values()
    return float((w11 * q11 + w12 * q12 + w21 * q21 + w22 * q22).imag)


def bell_from_counts(counts: np.ndarray) -> tuple[float | None, float | None]:
    """Plug-in Bell estimate from counts[3(k-1) + (l-1), a, b], with delta-method error.

    Each test pair (k, l) of BELL_WEIGHTS contributes the empirical mean of
    Im(weight * ALPHA**(a+b)); the variance of each mean is estimated from
    the same sample and the four contributions are independent.  Every sum
    runs over the nine outcomes in a fixed order, so the result is a function
    of the integer counts alone.  (None, None) when a test pair has no counts.
    """
    s = 0.0
    var = 0.0
    for (k, l), weight in BELL_WEIGHTS.items():
        c = counts[3 * (k - 1) + (l - 1)]
        n = int(c.sum())
        if n == 0:
            return None, None
        g = (weight * _OUTCOME_PHASE).imag
        mean = (c * g).sum() / n
        s += mean
        var += ((c * (g * g)).sum() / n - mean * mean) / n
    return float(s), float(np.sqrt(max(var, 0.0)))
