"""Independent explicit-state and scalar oracles shared across the test suite.

Everything here derives its numbers from the 81-dimensional state via the
transformation-then-slice route, the transformation amplitudes term by term,
a density matrix, raw entropy sums, or one trial at a time from
SUBSPACE_PAIRS, never from the closed-form expressions or the vectorised
tables under test.  The array kernels are references the simulation is held
against: reference_shard, the plain comparison-sum sampler behind the blocked
searchsorted sampler, and reference_bell, the trial-ordered Bell estimate
behind the count-table one.  Three references hold the crossover search:
reference_best_gap, a deep zoom along each contour behind the shallow one;
decimal_max_gap, the closed forms written out again in 40-digit decimal
arithmetic and maximised by golden section; and reference_find_crossover,
bracketed by the fully zoomed scan behind the one-pass bracket scan.
reference_format_csv, one '%.9g' template per row, is the text the
table-driven CSV renderer must match.  read_transcript reads the per-trial
record back from the transcript file the CLI writes.  LOCAL_MODEL_AT_V0 is a pinned local
model of the outcome tables at the critical visibility.
"""

import decimal
from decimal import Decimal
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from explicit import _SLOT_OF_FLAT, srm_directions
from tritkd.attack import (
    _UNMATCHED,
    SUBSPACE_PAIRS,
    AttackParams,
    build_ancilla_states,
    mutual_info_ab,
    mutual_info_ae,
    transformed_tripartite,
)
from tritkd.correlations import ALPHA, _checked_table
from tritkd.quantum import standard_settings, tensor, tritter_unitary
from tritkd.simulate import _DRAWS_PER_TRIAL, _GROUP_OF_FLAT
from tritkd.sweep import CSV_COLUMNS, _best_gap, _false_position


def feasible_grid(n_f=20, n_lam=20):
    """Attack-parameter grid away from the degenerate edges f=1 and lam=±ends."""
    return np.linspace(0.05, 0.99, n_f), np.linspace(-0.45, 0.99, n_lam)


def conditional_ancillas(params):
    """Per-outcome ancilla components sliced from the transformed 81-vector."""
    alice, bob = standard_settings()
    psi = transformed_tripartite(params, alice[2], bob[2])
    m = psi.reshape(9, 9)
    return {(a, b): m[3 * a + b] for a in range(3) for b in range(3)}


def transformed_ancillas(params):
    """Unnormalized ancilla components conditioned on outcomes, key settings.

    Entry (a, b) is Eve's (unnormalized) ancilla state given that Alice got a
    and Bob got b with both observers on their third setting.  Built directly
    from the transformation amplitudes: the matched term of pair (a, b) sums
    ALPHA**((a+b)*k) over k, the unmatched term ALPHA**(a*m + b*n) over the
    six (m, n), each with the corresponding exit-phase factor.  Stacking the
    nine entries in ket order reproduces transformed_tripartite on the key
    settings.
    """
    f = params.f
    g = 1.0 - f
    alice, bob = standard_settings()
    pa, pb = alice[2], bob[2]
    states = build_ancilla_states(params)

    out: dict[tuple[int, int], np.ndarray] = {}
    for a in range(3):
        for b in range(3):
            acc = np.zeros(9, dtype=complex)
            for k in range(3):
                acc += (
                    np.sqrt(f / 3.0)
                    * ALPHA ** ((a + b) * k)
                    * np.exp(1j * (pa[k] + pb[k]))
                    * states[(k, k)]
                )
            for m, n in _UNMATCHED:
                acc += (
                    np.sqrt(g / 6.0)
                    * ALPHA ** (a * m + b * n)
                    * np.exp(1j * (pa[m] + pb[n]))
                    * states[(m, n)]
                )
            out[(a, b)] = acc / 3.0
    return out


def joint_probs_rho(rho, phases_a, phases_b):
    """Same table as joint_probs for a 9x9 two-qutrit density matrix."""
    r = np.asarray(rho, dtype=complex)
    if r.shape != (9, 9):
        raise ValueError(f"density matrix must be 9x9, got shape {r.shape}")
    u = tensor(tritter_unitary(phases_a), tritter_unitary(phases_b))
    p = np.einsum("ij,jk,ik->i", u, r, u.conj()).real
    return _checked_table(p.reshape(3, 3))


def explicit_subspace_quantities(params):
    """(p, lam_tilde, w) measured from explicit states and SRM projections."""
    cond = conditional_ancillas(params)
    p, lam_tilde, w = [], [], []
    for pairs in SUBSPACE_PAIRS:
        states = [cond[pair] for pair in pairs]
        norms = [np.linalg.norm(s) for s in states]
        p.append(float(sum(n**2 for n in norms)))
        lam_tilde.append(float(np.vdot(states[0], states[1]).real / (norms[0] * norms[1])))
        directions = srm_directions(states)
        w.append(float(abs(np.vdot(directions[0], states[0])) ** 2 / norms[0] ** 2))
    return p, lam_tilde, w


def ab_joint_table_explicit(params):
    """Outcome-pair distribution under the key settings, from state norms."""
    cond = conditional_ancillas(params)
    table = np.zeros((3, 3))
    for (a, b), state in cond.items():
        table[a, b] = np.linalg.norm(state) ** 2
    return table


def eve_joint_table_explicit(params):
    """Joint distribution of (Alice symbol, Eve record) from SRM projections.

    Eve's record index is 3*group + guess.  Requires non-degenerate subspace
    geometry, i.e. parameters off the f=1 and lam=1 edges.
    """
    cond = conditional_ancillas(params)
    table = np.zeros((3, 9))
    for grp, pairs in enumerate(SUBSPACE_PAIRS):
        states = [cond[pair] for pair in pairs]
        directions = srm_directions(states)
        for slot, (a, _b) in enumerate(pairs):
            weight = np.linalg.norm(states[slot]) ** 2
            for guess in range(3):
                q = abs(np.vdot(directions[guess], states[slot])) ** 2 / weight
                table[a, 3 * grp + guess] += weight * q
    return table


def entropy_nats(p):
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def mutual_info_from_table(table, log_base=3.0):
    t = np.asarray(table, dtype=float)
    value = entropy_nats(t.sum(axis=1)) + entropy_nats(t.sum(axis=0)) - entropy_nats(t)
    return value / np.log(log_base)


def read_transcript(path):
    """(5, trials) int8 setting pair, a, b, Eve's subspace and guess (-1 for '-') of a
    transcript.tsv: one gather of the six fields at fixed offsets before each newline."""
    data = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
    newlines = np.flatnonzero(data == ord("\n"))[1:]  # past the header's
    fields = data[newlines - np.arange(11, 0, -2)[:, None]].astype(np.int8) - ord("0")
    fields[fields == ord("-") - ord("0")] = -1
    return np.concatenate([3 * fields[:1] + fields[1:2] - 4, fields[2:]])


def sifted_keys(columns):
    """(Alice, Bob, Eve) sifted keys of (5, n) columns as read_transcript gives them,
    built one key round at a time.

    Alice's trit is her outcome; Bob's is the Alice symbol his outcome pairs
    with in the correct-key group; Eve's is Alice's member of the pair her
    (subspace, guess) names.  Eve's key is None when the run has no
    eavesdropper fields.
    """
    alice_of_bob = {b: a for a, b in SUBSPACE_PAIRS[0]}
    alice, bob, eve = [], [], []
    for pair, a, b, sub, guess in np.transpose(columns).tolist():
        # key rounds only: settings (A3, B3), pair index 3 * 2 + 2
        if pair != 8:
            continue
        alice.append(a)
        bob.append(alice_of_bob[b])
        if sub >= 0:
            eve.append(SUBSPACE_PAIRS[sub][guess][0])
    keys = ["".join(map(str, trits)) for trits in (alice, bob, eve)]
    return keys[0], keys[1], keys[2] if eve else None


def reference_shard(config, lo, hi, cum_settings, cum_tables, eve_w):
    """Trials [lo, hi) in one pass: each index counts the cumulative bins its
    float draw reaches, and Eve's guess is a nested where over every trial."""
    bit_gen = Philox(key=config.seed)
    if lo:
        bit_gen.advance(lo)
    u = Generator(bit_gen).random((hi - lo, _DRAWS_PER_TRIAL))

    setting_idx = (u[:, 0][:, None] >= cum_settings).sum(axis=1).astype(np.int8)
    outcome = (u[:, 1][:, None] >= cum_tables[setting_idx]).sum(axis=1).astype(np.int8)
    a = outcome // 3
    b = outcome % 3

    if eve_w is None:
        absent = np.full(hi - lo, -1, dtype=np.int8)
        return setting_idx, a, b, absent, absent

    key_round = setting_idx == 8
    group = _GROUP_OF_FLAT[outcome]
    slot = _SLOT_OF_FLAT[outcome]
    w = eve_w[group]
    r = u[:, 2]
    guess = np.where(
        r < w, slot, np.where(r < (1.0 + w) / 2.0, (slot + 1) % 3, (slot + 2) % 3)
    ).astype(np.int8)
    eve_sub = np.where(key_round, group, np.int8(-1)).astype(np.int8)
    eve_guess = np.where(key_round, guess, np.int8(-1)).astype(np.int8)
    return setting_idx, a, b, eve_sub, eve_guess


def reference_bell(setting_idx, a, b):
    """Plug-in Bell estimate from Bell-test rounds, with delta-method error.

    Each of the four test setting pairs contributes the empirical mean of
    Im(weight * ALPHA**(a+b)); the variance of each mean is estimated from
    the same sample and the four contributions are independent.
    """
    weights = {0: -ALPHA**2, 1: ALPHA, 3: ALPHA**2, 4: -ALPHA**2}
    phase = ALPHA ** np.add.outer(np.arange(3), np.arange(3))
    s = 0.0
    var = 0.0
    for idx, wgt in weights.items():
        mask = setting_idx == idx
        n = int(mask.sum())
        if n == 0:
            return None, None
        g = (wgt * phase).imag[a[mask], b[mask]]
        mean = g.mean()
        s += mean
        var += (np.mean(g * g) - mean * mean) / n
    return float(s), float(np.sqrt(max(var, 0.0)))


def reference_best_gap(v, grid=201, zooms=6):
    """(max, argmax f) of I_AE - I_AB in nats over the contour f*lam = v, vectorised over v.

    A grid of 201 points in f, zoomed six times onto the neighbours of its
    best point, each zoom narrowing the bracket 100-fold to a final spacing
    of at most 5e-15; both informations are evaluated at every grid point.
    """
    v = np.asarray(v, dtype=float)
    lo = np.maximum(v, 1e-9)
    hi = np.ones_like(lo)
    for _ in range(zooms + 1):
        f = np.linspace(lo, hi, grid, axis=-1)
        params = AttackParams(f=f, lam=v[..., None] / f)
        gap = mutual_info_ae(params, np.e) - mutual_info_ab(params, np.e)
        i = np.argmax(gap, axis=-1)[..., None]
        lo = np.take_along_axis(f, np.maximum(i - 1, 0), axis=-1)[..., 0]
        hi = np.take_along_axis(f, np.minimum(i + 1, grid - 1), axis=-1)[..., 0]
    return np.take_along_axis(gap, i, axis=-1)[..., 0], np.take_along_axis(f, i, axis=-1)[..., 0]


def reference_find_crossover(tolerance, log_base):
    """find_crossover, bracketed by _best_gap at every point of the 199-point v grid."""
    vs = np.linspace(0.01, 0.999, 199)
    gaps = _best_gap(vs)[0]
    k = np.nonzero((gaps[:-1] >= 0.0) & (gaps[1:] < 0.0))[0][-1]
    return _false_position(float(vs[k]), float(vs[k + 1]), float(gaps[k]), float(gaps[k + 1]), tolerance, log_base)


DECIMAL_CONTEXT = decimal.Context(prec=40)


def decimal_gap_nats(v, f):
    """I_AE - I_AB in nats at (f, lam = v/f), in 40-digit decimal arithmetic.

    I_AB = ((1 + 2v) ln(1 + 2v) + 2(1 - v) ln(1 - v))/3.  I_AE sums, over the
    correct-key group (probability (1 + 2v)/3, ancilla overlap
    (3f + 4v - 1)/(2(1 + 2v))) and the two wrong-key groups ((1 - v)/3 each,
    overlap (3f - 2v - 1)/(2(1 - v))), ln 3 + w ln w + (1 - w) ln((1 - w)/2)
    with the square-root-measurement success w = (sqrt(1 + 2x) + 2 sqrt(1 - x))^2/9
    at overlap x.  Valid where every logarithm's argument is positive.
    """
    with decimal.localcontext(DECIMAL_CONTEXT):
        v, f = Decimal(v), Decimal(f)

        def group_info(x):
            w = ((1 + 2 * x).sqrt() + 2 * (1 - x).sqrt()) ** 2 / 9
            return Decimal(3).ln() + w * w.ln() + (1 - w) * ((1 - w) / 2).ln()

        i_ab = ((1 + 2 * v) * (1 + 2 * v).ln() + 2 * (1 - v) * (1 - v).ln()) / 3
        i_ae = (1 + 2 * v) / 3 * group_info((3 * f + 4 * v - 1) / (2 * (1 + 2 * v)))
        i_ae += 2 * (1 - v) / 3 * group_info((3 * f - 2 * v - 1) / (2 * (1 - v)))
        return i_ae - i_ab


def decimal_max_gap(v, f_near, log_base, half_width=1e-3):
    """max of decimal_gap_nats(v, f) over |f - f_near| <= half_width, in the given log base.

    Golden section down to a bracket of 1e-18 in f; the value returned is the
    gap at an evaluated point, so it never exceeds the true maximum, and near a
    peak of curvature |g''| it falls short by at most |g''| * 1e-36.
    """
    with decimal.localcontext(DECIMAL_CONTEXT):
        r = (Decimal(5).sqrt() - 1) / 2
        a, b = Decimal(f_near) - Decimal(half_width), Decimal(f_near) + Decimal(half_width)
        c, d = b - r * (b - a), a + r * (b - a)
        gc, gd = decimal_gap_nats(v, c), decimal_gap_nats(v, d)
        while b - a > Decimal("1e-18"):
            if gc >= gd:
                b, d, gd = d, c, gc
                c = b - r * (b - a)
                gc = decimal_gap_nats(v, c)
            else:
                a, c, gc = c, d, gd
                d = a + r * (b - a)
                gd = decimal_gap_nats(v, d)
        return max(gc, gd) / Decimal(log_base).ln()


def reference_format_csv(rows, comments=()):
    """sweep_rows records as CSV, one '%.9g' template per row: the bytes format_csv must give."""
    template = ",".join(["%.9g"] * len(CSV_COLUMNS))
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(template % row for row in rows.tolist())
    return "\n".join(lines) + "\n"


# A local hidden-variable model of the nine white-noise outcome tables at v = V0: (index j of
# the deterministic strategy itertools.product(range(3), repeat=6)[j] = (a1, a2, a3, b1, b2, b3),
# weight) pairs, where strategy j puts setting pair (k, l) on outcome (a_k, b_l).  Found once by
# a feasibility linear program over all 729 strategies (HiGHS); at V0 + 1e-6 the same program is
# infeasible, so no Bell inequality on these settings is violated at or below V0.
LOCAL_MODEL_AT_V0 = (
    (1, 0.005990275280279946), (9, 0.0068185100807566235), (29, 0.05355398970441403),
    (38, 0.00598409484893599), (47, 0.059544264984693965), (64, 0.0242052452593214),
    (81, 0.0033283883802537753), (83, 0.007241898128011051), (152, 0.010570286508264776),
    (165, 0.04939736652368355), (190, 0.0029534168785489145), (217, 0.056590848106145064),
    (220, 0.010146898461010377), (223, 0.03700785018901404), (261, 0.059544264984693986),
    (264, 0.03313657655546226), (268, 0.02515812699195717), (321, 0.029507385649656152),
    (323, 0.004878752343080401), (330, 0.0069575792860599285), (350, 0.011702412149952789),
    (367, 0.020452438126584968), (368, 0.039091826858109004), (375, 0.007748727698447401),
    (385, 0.030050270902954042), (403, 0.040093125136293754), (455, 0.003871273633551683),
    (463, 0.010570286508264826), (484, 0.01057028650826515), (497, 0.0024043511939071845),
    (526, 0.003912479042528463), (531, 0.0036343406319214906), (536, 0.010529081099288275),
    (549, 0.004253456271829178), (559, 0.0002781384106069727), (582, 0.04150956961993283),
    (605, 0.037007850189013966), (608, 0.013245564976206818), (611, 0.01803469536476124),
    (634, 0.04629870000848716), (653, 0.012412180449614313), (660, 0.03198281750405772),
    (661, 0.0026124396492482205), (669, 0.03313657655546226), (678, 0.02237777359111644),
    (679, 0.006442507873823167), (689, 0.02494900783138799), (707, 0.01831180307014003),
)
