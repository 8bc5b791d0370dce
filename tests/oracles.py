"""Independent explicit-state and scalar oracles shared across the test suite.

Everything here derives its numbers from the 81-dimensional state via the
transformation-then-slice route, the transformation amplitudes term by term,
a density matrix, raw entropy sums, or one trial at a time from
SUBSPACE_PAIRS, never from the closed-form expressions or the vectorised
tables under test.  The array kernels are references the simulation is held
against: reference_shard, the plain comparison-sum sampler behind the blocked
searchsorted sampler, and reference_bell, the trial-ordered Bell estimate
behind the count-table one.
"""

import numpy as np
from numpy.random import Generator, Philox

from tritkd.attack import (
    _UNMATCHED,
    SUBSPACE_PAIRS,
    build_ancilla_states,
    srm_directions,
    transformed_tripartite,
)
from tritkd.correlations import ALPHA, _checked_table
from tritkd.quantum import standard_settings, tensor, tritter_unitary
from tritkd.simulate import _DRAWS_PER_TRIAL, _GROUP_OF_FLAT, _SLOT_OF_FLAT


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


def sifted_keys(transcript):
    """(Alice, Bob, Eve) sifted keys, built one key round at a time.

    Alice's trit is her outcome; Bob's is the Alice symbol his outcome pairs
    with in the correct-key group; Eve's is Alice's member of the pair her
    (subspace, guess) names.  Eve's key is None when the run has no
    eavesdropper fields.
    """
    alice_of_bob = {b: a for a, b in SUBSPACE_PAIRS[0]}
    alice, bob, eve = [], [], []
    for pair, a, b, sub, guess in transcript.columns.T.tolist():
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
