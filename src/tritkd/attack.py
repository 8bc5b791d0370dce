"""Symmetric incoherent eavesdropping on the qutrit key.

Eve replaces the source with a tripartite state: with weight f the qutrit
pair stays matched (|kk>) and her ancilla keeps only partial which-k
information (pairwise overlap lam), with weight 1-f the pair is scrambled
into the six unmatched kets tagged by orthonormal ancillas.  The product
f*lam is the visibility Alice and Bob observe.

Two computation routes exist throughout: closed forms in (f, lam), and the
explicit 81-dimensional state with square-root-measurement projections.  The
test suite holds them against each other; neither is derived from the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import (
    inv_sqrt,
    chi_state,
    max_entangled_state,
    tensor,
    trace_out_ancilla,
    tritter_unitary,
    vectors_from_gram,
)

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


class DegenerateDiscriminationError(ValueError):
    """States to be discriminated do not span a full-dimensional subspace."""

    def __init__(self, rank: int):
        super().__init__(f"states span only a rank-{rank} subspace")
        self.rank = rank


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


def build_ancilla_states(params: AttackParams) -> dict[tuple[int, int], np.ndarray]:
    """Eve's nine ancilla states in a 9-dimensional space, keyed by qutrit pair.

    The three matched states E[k,k] are unit vectors with common real overlap
    lam, realized in the first three coordinates; the six unmatched states are
    the remaining standard basis vectors, so they are orthonormal and
    orthogonal to the matched block.
    """
    gram = np.full((3, 3), complex(params.lam))
    np.fill_diagonal(gram, 1.0)
    matched = vectors_from_gram(gram)

    states: dict[tuple[int, int], np.ndarray] = {}
    for k in range(3):
        vec = np.zeros(9, dtype=complex)
        vec[:3] = matched[k]
        states[(k, k)] = vec
    for idx, pair in enumerate(_UNMATCHED):
        vec = np.zeros(9, dtype=complex)
        vec[3 + idx] = 1.0
        states[pair] = vec
    return states


def build_tripartite(params: AttackParams) -> np.ndarray:
    """The source state Eve distributes: Alice x Bob x ancilla, flat 81-vector.

    Matched kets |kk> carry weight sqrt(f/3), unmatched kets sqrt((1-f)/6);
    the ket |ab> with ancilla component e sits at index (3a+b)*9 + e.  Tracing
    out the ancilla reproduces density_from_coefficients(coefficients(params)).
    """
    f = params.f
    g = 1.0 - f
    vec = np.zeros(81, dtype=complex)
    for (m, n), anc in build_ancilla_states(params).items():
        weight = np.sqrt(f / 3.0) if m == n else np.sqrt(g / 6.0)
        idx = (3 * m + n) * 9
        vec[idx : idx + 9] = weight * anc
    return vec


def reduced_density(params: AttackParams) -> np.ndarray:
    """Alice-Bob state after tracing Eve's ancilla out of the tripartite state."""
    return trace_out_ancilla(build_tripartite(params), 9, 9)


def transformed_tripartite(params: AttackParams, phases_a, phases_b) -> np.ndarray:
    """Tripartite state after both tritters act on the qutrits (ancilla untouched)."""
    u = tensor(tritter_unitary(phases_a), tritter_unitary(phases_b))
    return tensor(u, np.eye(9)) @ build_tripartite(params)


def srm_success(overlap: float):
    """Success probability of the square-root measurement on three symmetric states.

    The states are unit vectors with common real pairwise overlap; the
    optimal symmetric discrimination succeeds with probability
    (sqrt(1 + 2*overlap) + 2*sqrt(1 - overlap))**2 / 9.  Accepts arrays.
    """
    x = np.clip(overlap, -0.5, 1.0)  # clamp floating dust at the endpoints
    return (np.sqrt(1.0 + 2.0 * x) + 2.0 * np.sqrt(1.0 - x)) ** 2 / 9.0


@dataclass(frozen=True)
class SubspaceAnalysis:
    """Per-subspace projection probabilities and discrimination geometry.

    p[i] is the probability the outcome pair lands in group i; lam_tilde[i]
    the common overlap of the three conditional ancilla states there; w[i]
    the square-root-measurement success probability.  Fields have shape (3,)
    + the params' shape; lam_tilde and w are NaN where p is 0 (unsampled).
    """

    p: np.ndarray
    lam_tilde: np.ndarray
    w: np.ndarray


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
    p0, p12, lt0, lt12 = _subspace_geometry(params)
    t0 = np.where(p0 > 0.0, p0 * per_group(srm_success(lt0)), 0.0)
    t12 = np.where(p12 > 0.0, p12 * per_group(srm_success(lt12)), 0.0)
    return t0 + t12 + t12


def _unwrap(x):
    """A float for scalar params, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def subspace_analysis(params: AttackParams) -> SubspaceAnalysis:
    """Closed-form subspace probabilities, ancilla overlaps, and success rates."""
    p0, p12, lt0, lt12 = _subspace_geometry(params)
    # w per group before stacking, as _over_groups computes it for the same params
    w0, w12 = srm_success(lt0), srm_success(lt12)
    return SubspaceAnalysis(*(np.stack([x, y, y]) for x, y in ((p0, p12), (lt0, lt12), (w0, w12))))


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


def eve_error(params: AttackParams) -> float | np.ndarray:
    """Probability that Eve's measurement names the wrong key symbol."""
    return _unwrap(_over_groups(params, lambda w: 1.0 - w))


def ab_error(params: AttackParams) -> float | np.ndarray:
    """Trit error rate between Alice and Bob: 2(1 - f*lam)/3.

    Equals the total probability of the two wrong-key groups.
    """
    return 2.0 * (1.0 - params.visibility) / 3.0


def mutual_info_ab(params: AttackParams, log_base: float = 3.0) -> float | np.ndarray:
    """Mutual information per sifted symbol between Alice and Bob.

    Both marginals are uniform, and the three correct pairs carry (1 + 2v)/9
    each and the six error pairs (1 - v)/9 each, so

        I = ((1 + 2v) log(1 + 2v) + 2(1 - v) log(1 - v)) / 3,

    written with log1p to keep full relative precision for small |v|.
    """
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
    return _unwrap(_over_groups(params, _group_info_nats) / np.log(log_base))
