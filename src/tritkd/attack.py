"""Symmetric incoherent eavesdropping on the qutrit key.

Eve replaces the source with a tripartite state: with weight f the qutrit
pair stays matched (|kk>) and her ancilla keeps only partial which-k
information (pairwise overlap lam), with weight 1-f the pair is scrambled
into the six unmatched kets tagged by orthonormal ancillas.  Alice and Bob
see the pair source's statistics at visibility f*lam, plus white noise.

Two computation routes exist throughout: closed forms in (f, lam), and the
explicit 81-dimensional state with square-root-measurement projections.  The
test suite holds them against each other; neither is derived from the other.
The simulation samples the white-noise tables, tested against the explicit route.
This module builds the explicit state; its reductions, the noise-mixture
decomposition, the stacked subspace analysis and the square-root-measurement
directions are test references and live in tests/explicit.py.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .quantum import tritter_unitary

# Outcome pairs under the key settings, grouped by the ancilla subspace they
# select.  Group 0 is the correct-key group; 1 and 2 are the two wrong-key
# groups.  Within a group Alice's symbol identifies the pair, so a pair guess
# doubles as a key-symbol guess.
SUBSPACE_PAIRS = (
    ((0, 0), (1, 2), (2, 1)),
    ((1, 1), (2, 0), (0, 2)),
    ((2, 2), (1, 0), (0, 1)),
)

# Unmatched kets in a fixed order; each gets its own orthonormal ancilla.
_UNMATCHED = ((0, 1), (1, 0), (2, 0), (0, 2), (1, 2), (2, 1))
# Qutrit pairs in the order of Eve's nine ancilla states, matched kets first.
_PAIRS = ((0, 0), (1, 1), (2, 2)) + _UNMATCHED

# Feasible attack knobs: lam below -1/2 has no Gram-feasible realization for
# three symmetric unit vectors.
F_DOMAIN = (0.0, 1.0)
LAM_DOMAIN = (-0.5, 1.0)


@dataclass(frozen=True)
class AttackParams:
    """Eve's two attack knobs.

    f is the weight of the matched block of her source state, lam the common
    pairwise overlap of the three matched ancilla states.  Both may be floats
    or broadcastable arrays; the closed forms then evaluate pointwise.
    """

    f: float | np.ndarray
    lam: float | np.ndarray

    def __post_init__(self):
        # NaN compares False, so np.all over the comparisons rejects it
        for name, x, (lo, hi) in (("f", self.f, F_DOMAIN), ("lam", self.lam, LAM_DOMAIN)):
            if not np.all((lo <= x) & (x <= hi)):
                raise ValueError(f"{name}={x} outside [{lo:g}, {hi:g}]")

    @property
    def visibility(self) -> float | np.ndarray:
        """Attenuation factor f*lam applied to every correlation."""
        return self.f * self.lam

    @functools.cached_property
    def _groups(self) -> tuple[np.ndarray, ...]:
        """(p0, p12, w0, w12): the group probabilities of _subspace_geometry and srm_success of its two
        overlaps, computed once for the closed forms that sum over the groups and for Eve's guesses."""
        p0, p12, lt0, lt12 = _subspace_geometry(self)
        return p0, p12, srm_success(lt0), srm_success(lt12)


def build_ancilla_states(params: AttackParams) -> dict[tuple[int, int], np.ndarray]:
    """Eve's nine ancilla states in a 9-dimensional space, keyed by qutrit pair.

    The three matched states E[k,k] are unit vectors with common real overlap
    lam, realized in the first three coordinates; the six unmatched states are
    the remaining standard basis vectors, so they are orthonormal and
    orthogonal to the matched block.
    """
    lam = float(params.lam)
    a, b = np.sqrt(1.0 - lam), np.sqrt(1.0 + 2.0 * lam)
    rows = np.zeros((9, 9), dtype=complex)
    # PSD root of the Gram (1 - lam) I + lam J, since J @ J = 3 J: eigenvalues 1 - lam (twice), 1 + 2 lam on (1, 1, 1)
    rows[:3, :3] = a * np.eye(3) + (b - a) / 3.0
    rows[3:, 3:] = np.eye(6)
    return dict(zip(_PAIRS, rows))


def build_tripartite(params: AttackParams) -> np.ndarray:
    """The source state Eve distributes: Alice x Bob x ancilla, flat 81-vector.

    Matched kets |kk> carry weight sqrt(f/3), unmatched kets sqrt((1-f)/6);
    the ket |ab> with ancilla component e sits at index (3a+b)*9 + e.  Tracing
    out the ancilla reproduces the noise mixture of tests/explicit.py.
    """
    f = params.f
    weights = np.repeat([np.sqrt(f / 3.0), np.sqrt((1.0 - f) / 6.0)], [3, 6])
    rows = np.array([*build_ancilla_states(params).values()])
    vec = np.zeros((9, 9), dtype=complex)  # ket 3a+b x ancilla
    vec[[3 * m + n for m, n in _PAIRS]] = weights[:, None] * rows
    return vec.ravel()


def transformed_tripartite(params: AttackParams, phases_a, phases_b) -> np.ndarray:
    """Tripartite state after both tritters act on the qutrits (ancilla index last, untouched):
    the explicit route the tests hold the simulation's white-noise outcome tables against."""
    u = np.kron(tritter_unitary(phases_a), tritter_unitary(phases_b))
    return (u @ build_tripartite(params).reshape(9, 9)).ravel()


def srm_success(overlap: float):
    """Success probability of the square-root measurement on three symmetric states.

    The states are unit vectors with common real pairwise overlap; the
    optimal symmetric discrimination succeeds with probability
    (sqrt(1 + 2*overlap) + 2*sqrt(1 - overlap))**2 / 9.  Accepts arrays.
    """
    x = np.clip(overlap, -0.5, 1.0)  # clamp floating dust at the endpoints
    root = np.sqrt(1.0 + 2.0 * x) + 2.0 * np.sqrt(1.0 - x)
    root *= root  # not ** 2, which is C pow on a numpy scalar; in place, as ** 2 was on arrays
    root /= 9.0
    return root


def _subspace_geometry(params: AttackParams) -> tuple[np.ndarray, ...]:
    """(p0, p12, lam_tilde_0, lam_tilde_12) as arrays of the params' shape.

    p0 = (1 + 2v)/3 and p1 = p2 = p12 = (1 - v)/3 with v = f*lam; the overlaps
    are lam_tilde_0 = (3f + 4v - 1) / (2(1 + 2v)) and
    lam_tilde_12 = (3f - 2v - 1) / (2(1 - v)), NaN where p of the group is 0.
    """
    f = np.asarray(params.f, dtype=float)
    v = f * params.lam
    p0 = (1.0 + 2.0 * v) / 3.0
    p12 = (1.0 - v) / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lt0 = np.where(p0 > 0.0, 0.5 * (3.0 * f + 4.0 * v - 1.0) / (1.0 + 2.0 * v), np.nan)
        lt12 = np.where(p12 > 0.0, 0.5 * (3.0 * f - 2.0 * v - 1.0) / (1.0 - v), np.nan)
    return p0, p12, lt0, lt12


def _over_groups(params: AttackParams, per_group) -> np.ndarray:
    """sum_i p[i] * per_group(w[i]) over the three groups, skipping those with p[i] = 0."""
    p0, p12, w0, w12 = params._groups
    t0 = np.where(p0 > 0.0, p0 * per_group(w0), 0.0)
    t12 = np.where(p12 > 0.0, p12 * per_group(w12), 0.0)
    return t0 + t12 + t12


def _unwrap(x):
    """A float for scalar params, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def eve_error(params: AttackParams) -> float | np.ndarray:
    """Probability that Eve's measurement names the wrong key symbol."""
    return _unwrap(_over_groups(params, lambda w: 1.0 - w))


def ab_error(params: AttackParams) -> float | np.ndarray:
    """Trit error rate between Alice and Bob: 2(1 - f*lam)/3.

    Equals the total probability of the two wrong-key groups.
    """
    return 2.0 * (1.0 - params.visibility) / 3.0


def _check_log_base(log_base: float) -> None:
    # below 1 every information is negative and I_AB > I_AE would flip
    if not (np.isfinite(log_base) and log_base > 1.0):
        raise ValueError(f"log_base must be finite and greater than 1, got {log_base!r}")


def mutual_info_ab(params: AttackParams, log_base: float = 3.0) -> float | np.ndarray:
    """Mutual information per sifted symbol between Alice and Bob.

    Both marginals are uniform, and the three correct pairs carry (1 + 2v)/9
    each and the six error pairs (1 - v)/9 each, so

        I = ((1 + 2v) log(1 + 2v) + 2(1 - v) log(1 - v)) / 3,

    written with log1p to keep full relative precision for small |v|.
    """
    _check_log_base(log_base)
    v = np.asarray(params.visibility, dtype=float)
    # 0 log 0 = 0 at the endpoints v = -1/2 and v = 1
    matched = (1.0 + 2.0 * v) * np.log1p(np.where(v > -0.5, 2.0 * v, 0.0))
    unmatched = 2.0 * (1.0 - v) * np.log1p(np.where(v < 1.0, -v, 0.0))
    return _unwrap((matched + unmatched) / (3.0 * np.log(log_base)))


def _group_info_nats(w):
    """log 3 + w log w + (1 - w) log((1 - w)/2), with 0 log 0 = 0."""
    return (
        np.log(3.0)
        + w * np.log(np.where(w > 0.0, w, 1.0))
        + (1.0 - w) * np.log(np.where(w < 1.0, (1.0 - w) / 2.0, 1.0))
    )


def mutual_info_ae(params: AttackParams, log_base: float = 3.0) -> float | np.ndarray:
    """Mutual information between Alice's key symbol and Eve's measurement record.

    Eve's record is (group, guess).  The group is uniform over Alice's
    symbols, and within group i her guess names the right symbol with
    probability w[i] and each wrong one with (1 - w[i])/2, so

        I = sum_i p[i] * (log 3 + w log w + (1 - w) log((1 - w)/2)).

    Groups with zero probability contribute nothing.
    """
    _check_log_base(log_base)
    return _unwrap(_over_groups(params, _group_info_nats) / np.log(log_base))
