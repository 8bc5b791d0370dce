"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` (or `-rA`) to see the line per
criterion; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import json
import subprocess
import sys

import numpy as np

from oracles import (
    ab_joint_table_explicit,
    eve_joint_table_explicit,
    explicit_subspace_quantities,
    feasible_grid,
    mutual_info_from_table,
    transformed_ancillas,
)
from tritkd.attack import (
    AttackParams,
    ab_error,
    build_ancilla_states,
    eve_error,
    mutual_info_ab,
    mutual_info_ae,
    srm_directions,
    subspace_analysis,
)
from tritkd.correlations import (
    CRITICAL_VISIBILITY,
    LOCAL_REALISM_BOUND,
    QUANTUM_BELL_VALUE,
    bell_s,
    correlation_q,
    correlation_q_closed,
    joint_probs,
)
from tritkd.quantum import max_entangled_state, standard_settings, tritter_unitary, vectors_from_gram
from tritkd.simulate import SimConfig, run
from tritkd.sweep import find_crossover

ALICE, BOB = standard_settings()


def _criterion(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_criterion_1_strict_correlation():
    q_closed = correlation_q_closed(ALICE[2], BOB[2])
    q_table = correlation_q(joint_probs(max_entangled_state(), ALICE[2], BOB[2]))
    ok = abs(q_closed - 1.0) < 1e-12 and abs(q_table - 1.0) < 1e-12
    _criterion(1, "key-settings correlation equals 1 on both paths", ok,
               f"closed={q_closed:.15f}, table={q_table:.15f}")


def test_criterion_2_bell_value_analytic_and_monte_carlo():
    q = {
        (k, l): correlation_q_closed(ALICE[k - 1], BOB[l - 1])
        for k in (1, 2)
        for l in (1, 2)
    }
    s = bell_s(q[(1, 1)], q[(1, 2)], q[(2, 1)], q[(2, 2)])
    analytic_ok = abs(s - QUANTUM_BELL_VALUE) < 1e-9

    transcript = run(SimConfig(trials=1_000_000, seed=20240601))
    mc_ok = abs(transcript.s_estimate - QUANTUM_BELL_VALUE) < 0.01
    _criterion(2, "bell quantity matches analytically and by simulation",
               analytic_ok and mc_ok,
               f"analytic={s:.10f}, monte carlo={transcript.s_estimate:.4f}")


def test_criterion_3_threshold_identity():
    bound, value, v0 = LOCAL_REALISM_BOUND, QUANTUM_BELL_VALUE, CRITICAL_VISIBILITY
    ok = (
        abs(v0 * value - bound) < 1e-12
        and bound == np.sqrt(3.0)
        and abs(v0 - 0.6961524) < 1e-7
    )
    _criterion(3, "critical visibility times bell value equals the bound", ok,
               f"v0*value-bound={v0 * value - bound:.2e}")


def test_criterion_4_closed_forms_match_explicit_construction():
    f_vals, lam_vals = feasible_grid(20, 20)
    worst = 0.0
    for f in f_vals:
        for lam in lam_vals:
            params = AttackParams(f=float(f), lam=float(lam))
            sub = subspace_analysis(params)
            p_ex, lt_ex, w_ex = explicit_subspace_quantities(params)
            for i in range(3):
                worst = max(
                    worst,
                    abs(sub.p[i] - p_ex[i]),
                    abs(sub.lam_tilde[i] - lt_ex[i]),
                    abs(sub.w[i] - w_ex[i]),
                )
    _criterion(4, "subspace probabilities, overlaps, and success rates match "
                  "the explicit 81-dimensional construction", worst < 1e-9,
               f"worst deviation {worst:.2e} on a 20x20 grid")


def test_criterion_5_error_rates():
    points = ((0.9, 0.8, 101), (0.99, 0.75, 202), (0.85, 0.95, 303))
    mc_ok = True
    details = []
    for f, lam, seed in points:
        params = AttackParams(f=f, lam=lam)
        transcript = run(SimConfig(trials=100_000, seed=seed, attack=params))
        n = len(transcript.sifted_key_alice)
        expected = ab_error(params)
        sigma = np.sqrt(expected * (1.0 - expected) / n)
        dev = abs(transcript.qber - expected)
        mc_ok = mc_ok and dev < 3.0 * sigma
        details.append(f"({f},{lam}): dev={dev / sigma:.2f} sigma")

    f_vals, lam_vals = feasible_grid(20, 20)
    region_ok = True
    checked = 0
    for f in f_vals:
        for lam in lam_vals:
            params = AttackParams(f=float(f), lam=float(lam))
            if params.visibility >= CRITICAL_VISIBILITY:
                checked += 1
                region_ok = region_ok and eve_error(params) >= ab_error(params)
    _criterion(5, "AB error matches simulation and Eve's error dominates in "
                  "the violation region", mc_ok and region_ok and checked > 0,
               "; ".join(details) + f"; {checked} region points")


def test_criterion_6_mutual_information():
    undisturbed = AttackParams(f=1.0, lam=1.0)
    endpoint_ok = (
        abs(mutual_info_ab(undisturbed, 3.0) - 1.0) < 1e-12
        and abs(mutual_info_ae(undisturbed, 3.0)) < 1e-12
    )

    f_vals, lam_vals = feasible_grid(20, 20)
    worst = 0.0
    for f in f_vals:
        for lam in lam_vals:
            params = AttackParams(f=float(f), lam=float(lam))
            worst = max(
                worst,
                abs(mutual_info_ab(params, 3.0)
                    - mutual_info_from_table(ab_joint_table_explicit(params), 3.0)),
                abs(mutual_info_ae(params, 3.0)
                    - mutual_info_from_table(eve_joint_table_explicit(params), 3.0)),
            )
    _criterion(6, "mutual informations hit the endpoints and match entropy "
                  "summation over explicit tables", endpoint_ok and worst < 1e-12,
               f"worst grid deviation {worst:.2e}")


def test_criterion_7_crossover():
    result = find_crossover(tolerance=1e-6)
    ok = abs(result.v_max - 0.6629) <= 5e-4 and result.v_max < CRITICAL_VISIBILITY
    _criterion(7, "security crossover visibility reproduces 0.6629 below the "
                  "violation threshold", ok,
               f"v_max={result.v_max:.6f}, V0={CRITICAL_VISIBILITY:.6f}")


def test_criterion_8_deterministic_simulation(tmp_path):
    args = [sys.executable, "-m", "tritkd", "simulate",
            "--trials", "50000", "--seed", "99", "--f", "0.9", "--lam", "0.9"]
    outputs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 6)):
        out_dir = tmp_path / name
        proc = subprocess.run(
            [*args, "--out", str(out_dir), "--workers", str(workers)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            (out_dir / "transcript.tsv").read_bytes()
            + (out_dir / "summary.json").read_bytes()
        )
    ok = outputs[0] == outputs[1] == outputs[2]
    _criterion(8, "simulation output is byte-identical across runs and worker "
                  "counts", ok)


def test_criterion_9_property_suites():
    # tritter unitarity over a million random phase triples (vectorized
    # builder cross-checked against the library function on a subsample)
    rng = np.random.default_rng(271828)
    k = np.arange(3).reshape(3, 1)
    l = np.arange(3).reshape(1, 3)
    base = np.exp(2j * np.pi / 3 * (k * l)) / np.sqrt(3)
    eye = np.eye(3)
    worst_unitarity = 0.0
    checked = 0
    while checked < 1_000_000:
        n = min(100_000, 1_000_000 - checked)
        phases = rng.uniform(-2 * np.pi, 2 * np.pi, size=(n, 3))
        us = base[None, :, :] * np.exp(1j * phases)[:, None, :]
        prods = np.einsum("nki,nkj->nij", us.conj(), us)
        worst_unitarity = max(worst_unitarity, np.abs(prods - eye).max())
        if checked == 0:
            for row in phases[:200]:
                assert np.abs(tritter_unitary(row) - base * np.exp(1j * row)).max() < 1e-15
        checked += n
    unitarity_ok = worst_unitarity < 1e-12

    # probability normalization for random states and settings
    norm_ok = True
    for _ in range(300):
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        table = joint_probs(v / np.linalg.norm(v), rng.uniform(-7, 7, 3), rng.uniform(-7, 7, 3))
        norm_ok = norm_ok and abs(table.sum() - 1.0) < 1e-10 and table.min() >= 0.0

    # subspace orthogonality of the transformed ancilla components
    ortho_ok = True
    for f, lam in ((0.9, 0.8), (0.5, -0.4), (0.7, 0.99), (0.2, 0.6)):
        tilde = transformed_ancillas(AttackParams(f=f, lam=lam))
        groups = (
            ((0, 0), (1, 2), (2, 1)),
            ((1, 1), (2, 0), (0, 2)),
            ((2, 2), (1, 0), (0, 1)),
        )
        for gi, pairs_i in enumerate(groups):
            for gj, pairs_j in enumerate(groups):
                if gi == gj:
                    continue
                for pi in pairs_i:
                    for pj in pairs_j:
                        ortho_ok = ortho_ok and abs(np.vdot(tilde[pi], tilde[pj])) < 1e-12

    # SRM orthonormality on symmetric state families
    srm_ok = True
    for overlap in (-0.4, -0.1, 0.2, 0.5, 0.8, 0.95):
        gram = np.full((3, 3), overlap)
        np.fill_diagonal(gram, 1.0)
        directions = srm_directions(vectors_from_gram(gram))
        gram_out = np.array([[np.vdot(a, b) for b in directions] for a in directions])
        srm_ok = srm_ok and np.abs(gram_out - np.eye(3)).max() < 1e-10

    # Gram realization round-trips
    gram_ok = True
    for _ in range(50):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gram = m @ m.conj().T
        vecs = vectors_from_gram(gram)
        rebuilt = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        gram_ok = gram_ok and np.abs(rebuilt - gram).max() < 1e-9
    # and the attack ancillas realize their Gram
    for lam in (-0.5, -0.2, 0.0, 0.5, 1.0):
        states = build_ancilla_states(AttackParams(f=0.5, lam=lam))
        for i in range(3):
            for j in range(3):
                got = np.vdot(states[(i, i)], states[(j, j)])
                want = 1.0 if i == j else lam
                gram_ok = gram_ok and abs(got - want) < 1e-10

    ok = unitarity_ok and norm_ok and ortho_ok and srm_ok and gram_ok
    _criterion(9, "property suites: unitarity, normalization, subspace "
                  "orthogonality, SRM orthonormality, Gram round-trips", ok,
               f"worst unitarity deviation {worst_unitarity:.2e} over 1e6 draws")
