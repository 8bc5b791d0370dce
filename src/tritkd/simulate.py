"""Seeded Monte Carlo simulation of the full key-distribution protocol.

Each trial draws independent settings for both observers, samples outcomes
from the exact Born-rule tables of the configured source (honest pair source
or eavesdropper-controlled), and, on key-generation trials under attack, adds
the eavesdropper's measurement record.  Trials consume a fixed number of
counter-based random draws, so any sharding of the trial range reproduces the
single-threaded stream bit for bit.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .attack import SUBSPACE_PAIRS, AttackParams, subspace_analysis, transformed_tripartite
from .correlations import ALPHA, CRITICAL_VISIBILITY, QUANTUM_BELL_VALUE, joint_probs
from .quantum import max_entangled_state, standard_settings

# Bob announces nothing, but his outcome b means Alice's symbol BOB_KEY_REMAP[b]
# on a strictly correlated trial: the possible pairs are (0,0), (1,2), (2,1).
BOB_KEY_REMAP = (0, 2, 1)

# Uniforms consumed per trial (settings, outcome, eve guess, spare).  Four is
# exactly one Philox block, so trial i starts at counter offset i and shards
# concatenate to the serial stream.
_DRAWS_PER_TRIAL = 4

# Generator.random draws are integer multiples of 2**-53.
_DRAW_SCALE = float(2**53)

# Trials per block, for sampling and for the transcript writer, so the memory
# each adds beyond the int8 columns does not grow with the run.  Shard threads
# share one process, so their block temporaries add up in its peak.
_BLOCK_TRIALS = 1 << 16

_GROUP_OF_FLAT = np.zeros(9, dtype=np.int8)
_SLOT_OF_FLAT = np.zeros(9, dtype=np.int8)
for _grp, _pairs in enumerate(SUBSPACE_PAIRS):
    for _slot, (_a, _b) in enumerate(_pairs):
        _GROUP_OF_FLAT[3 * _a + _b] = _grp
        _SLOT_OF_FLAT[3 * _a + _b] = _slot

# Eve's key-symbol guess implied by (group, slot): Alice's member of the pair.
_EVE_TRIT = np.array(
    [[pair[0] for pair in pairs] for pairs in SUBSPACE_PAIRS], dtype=np.int8
)


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: trial count, seed, source, and setting distribution.

    attack=None simulates the honest source.  setting_weights, when given,
    holds nine probabilities over the (alice, bob) setting pairs in row-major
    order ((1,1), (1,2), ..., (3,3)); the default is uniform.
    """

    trials: int
    seed: int
    attack: AttackParams | None = None
    setting_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.setting_weights is not None:
            w = np.asarray(self.setting_weights, dtype=float)
            # written so that NaN fails every comparison and is rejected
            if w.shape != (9,) or not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12):
                raise ValueError(
                    "setting_weights must be 9 nonnegative values summing to 1"
                )


@dataclass
class ProtocolTranscript:
    """Everything a run produces: per-trial columns plus derived statistics.

    Settings are 1-based, outcomes 0-based; eve columns hold -1 where absent.
    s_estimate/s_std_error are None when some Bell-test setting pair never
    occurred, qber and the keys are None/empty when no key rounds occurred.
    sifted_key_eve is None for honest-source runs.
    """

    alice_settings: np.ndarray
    bob_settings: np.ndarray
    alice_outcomes: np.ndarray
    bob_outcomes: np.ndarray
    eve_subspaces: np.ndarray
    eve_guesses: np.ndarray
    s_estimate: float | None
    s_std_error: float | None
    sifted_key_alice: str
    sifted_key_bob: str
    sifted_key_eve: str | None
    qber: float | None
    aborted: bool
    abort_reason: str


def _outcome_tables(config: SimConfig) -> np.ndarray:
    """Exact p(a, b) for each of the nine setting pairs, flattened to (9, 9)."""
    alice, bob = standard_settings()
    tables = np.empty((9, 9))
    if config.attack is None:
        psi = max_entangled_state()
        for m in range(3):
            for n in range(3):
                tables[3 * m + n] = joint_probs(psi, alice[m], bob[n]).reshape(9)
    else:
        for m in range(3):
            for n in range(3):
                psi = transformed_tripartite(config.attack, alice[m], bob[n])
                tables[3 * m + n] = (np.abs(psi.reshape(9, 9)) ** 2).sum(axis=1)
    return tables


def _eve_success_probs(params: AttackParams) -> np.ndarray:
    sub = subspace_analysis(params)
    # A group with w=None has probability zero and is never sampled; the
    # placeholder keeps the array dense.
    return np.array([w if w is not None else 1.0 / 3.0 for w in sub.w])


def _thresholds(cum: np.ndarray) -> np.ndarray:
    """Integer draw thresholds: u >= c exactly when k >= ceil(c * 2**53).

    Generator.random returns u = k * 2**-53 with an integer k, and scaling by
    a power of two is exact, so the comparison is carried over without
    rounding.  Thresholds are capped at 2**53, which no k reaches, so a
    cumsum entry that rounded above the forced top value 1.0 neither counts
    nor unsorts the array.
    """
    return np.minimum(np.ceil(cum * _DRAW_SCALE), _DRAW_SCALE).astype(np.int64)


def _simulate_shard(
    config: SimConfig,
    lo: int,
    hi: int,
    cum_settings: np.ndarray,
    cum_tables: np.ndarray,
    eve_w: np.ndarray | None,
    columns: np.ndarray,
) -> None:
    """Write trials [lo, hi) into columns[:, lo:hi], bitwise equal to a full run.

    columns are the run's five int8 columns (setting pair, a, b, eve subspace,
    eve guess); every value of the slice is written, -1 where eve's are absent.
    Works in blocks of at most _BLOCK_TRIALS trials, so the memory beyond the
    columns does not grow with the shard.  A setting or outcome index is the
    number of cumulative bins its draw reaches, counted with searchsorted on
    integer thresholds; the outcome thresholds of the nine setting pairs are
    flattened into one sorted array by an integer offset of setting << 53.
    """
    set_thresh = _thresholds(cum_settings)
    out_thresh = (
        _thresholds(cum_tables) + (np.arange(9, dtype=np.int64) << 53)[:, None]
    ).ravel()

    setting_idx, a, b, eve_sub, eve_guess = columns
    eve_sub[lo:hi] = -1
    eve_guess[lo:hi] = -1

    bit_gen = Philox(key=config.seed)
    bit_gen.advance(lo)
    gen = Generator(bit_gen)
    # each trial is one whole Philox block, so consecutive calls continue the
    # serial stream
    for start in range(lo, hi, _BLOCK_TRIALS):
        stop = min(hi, start + _BLOCK_TRIALS)
        u = gen.random((stop - start, _DRAWS_PER_TRIAL))
        k = (u[:, :2] * _DRAW_SCALE).astype(np.int64)
        s = np.searchsorted(set_thresh, k[:, 0], side="right")
        outcome = np.searchsorted(out_thresh, (s << 53) + k[:, 1], side="right") - 9 * s
        setting_idx[start:stop] = s
        a[start:stop] = outcome // 3
        b[start:stop] = outcome % 3

        if eve_w is None:
            continue
        key = np.flatnonzero(s == 8)
        flat = outcome[key]
        group = _GROUP_OF_FLAT[flat]
        slot = _SLOT_OF_FLAT[flat]
        w = eve_w[group]
        r = u[key, 2]
        # r < w keeps the slot, r < (1+w)/2 moves one pair on, else two
        eve_sub[start + key] = group
        eve_guess[start + key] = (slot + (r >= w) + (r >= (1.0 + w) / 2.0)) % 3


def _estimate_bell(setting_idx, a, b) -> tuple[float | None, float | None]:
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


def _trits_to_str(trits: np.ndarray) -> str:
    return (trits.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def abort_decision(
    s_estimate: float,
    s_std_error: float,
    v_threshold: float = CRITICAL_VISIBILITY,
    n_sigma: float = 3.0,
) -> tuple[bool, str]:
    """Abort unless the Bell estimate is confidently above the visibility threshold.

    Aborts iff the lower confidence bound s_estimate - n_sigma * s_std_error
    is below v_threshold * (quantum Bell value), or is not a number; the
    default threshold is the critical visibility, i.e. the local-realism line
    itself.
    """
    if s_std_error < 0.0:
        raise ValueError("s_std_error must be nonnegative")
    bound = v_threshold * QUANTUM_BELL_VALUE
    lower = s_estimate - n_sigma * s_std_error
    if not lower >= bound:
        return True, (
            f"bell estimate {s_estimate:.6f} (-{n_sigma:g} sigma = {lower:.6f}) "
            f"below threshold {bound:.6f}"
        )
    return False, f"bell estimate {s_estimate:.6f} meets threshold {bound:.6f}"


def _sampling_tables(config: SimConfig):
    """(cumulative setting weights, cumulative outcome tables, eve success probs)."""
    weights = (
        np.full(9, 1.0 / 9.0)
        if config.setting_weights is None
        else np.asarray(config.setting_weights, dtype=float)
    )
    cum_settings = np.cumsum(weights)
    cum_settings[-1] = 1.0  # guard the top bin against cumsum rounding
    cum_tables = np.cumsum(_outcome_tables(config), axis=1)
    cum_tables[:, -1] = 1.0
    eve_w = None if config.attack is None else _eve_success_probs(config.attack)
    return cum_settings, cum_tables, eve_w


def run(config: SimConfig, workers: int = 1) -> ProtocolTranscript:
    """Simulate the protocol; output is identical for any worker count.

    Trials are split into contiguous shards, one per worker, each regenerating
    its slice of the counter-based random stream into its slice of one set of
    columns, so the transcript depends only on the config.  Shards run on
    threads, at most one per CPU.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")

    tables = _sampling_tables(config)
    bounds = np.linspace(0, config.trials, min(workers, config.trials) + 1).astype(int)
    shards = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    columns = np.empty((5, config.trials), dtype=np.int8)
    with ThreadPoolExecutor(max_workers=min(len(shards), os.cpu_count() or 1)) as pool:
        futures = [
            pool.submit(_simulate_shard, config, lo, hi, *tables, columns) for lo, hi in shards
        ]
        for future in futures:
            future.result()
    return _summarize(config, *columns)


def _summarize(config, setting_idx, a, b, eve_sub, eve_guess) -> ProtocolTranscript:
    s_estimate, s_std_error = _estimate_bell(setting_idx, a, b)

    sifted = setting_idx == 8
    alice_trits = a[sifted]
    bob_trits = np.asarray(BOB_KEY_REMAP, dtype=np.int8)[b[sifted]]
    key_alice = _trits_to_str(alice_trits)
    key_bob = _trits_to_str(bob_trits)
    qber = float(np.mean(bob_trits != alice_trits)) if alice_trits.size else None

    key_eve = None
    if config.attack is not None:
        key_eve = _trits_to_str(_EVE_TRIT[eve_sub[sifted], eve_guess[sifted]])

    if s_estimate is None:
        # no Bell evidence, no key
        aborted, reason = True, "bell estimate unavailable (no test rounds)"
    else:
        aborted, reason = abort_decision(s_estimate, s_std_error)

    return ProtocolTranscript(
        alice_settings=(setting_idx // 3 + 1).astype(np.int8),
        bob_settings=(setting_idx % 3 + 1).astype(np.int8),
        alice_outcomes=a,
        bob_outcomes=b,
        eve_subspaces=eve_sub,
        eve_guesses=eve_guess,
        s_estimate=s_estimate,
        s_std_error=s_std_error,
        sifted_key_alice=key_alice,
        sifted_key_bob=key_bob,
        sifted_key_eve=key_eve,
        qber=qber,
        aborted=aborted,
        abort_reason=reason,
    )


TRANSCRIPT_HEADER = "# trial\talice_setting\tbob_setting\talice_outcome\tbob_outcome\teve_subspace\teve_guess"


def write_transcript(transcript: ProtocolTranscript, path) -> None:
    """Write one tab-separated line per trial; eve fields are '-' where absent.

    Blocks never straddle a power of ten, so every line of a block has the same
    width and the block is one uint8 table, written in a single call.
    """
    columns = (
        transcript.alice_settings,
        transcript.bob_settings,
        transcript.alice_outcomes,
        transcript.bob_outcomes,
        transcript.eve_subspaces,
        transcript.eve_guesses,
    )
    trials = len(transcript.alice_settings)
    with open(path, "wb") as fh:
        fh.write(TRANSCRIPT_HEADER.encode("ascii") + b"\n")
        lo = 0
        while lo < trials:
            digits = len(str(lo))
            hi = min(trials, lo + _BLOCK_TRIALS, 10**digits)
            table = np.empty((hi - lo, digits + 2 * len(columns) + 1), dtype=np.uint8)
            index = np.arange(lo, hi)
            for k in range(digits):
                table[:, digits - 1 - k] = index // 10**k % 10 + ord("0")
            table[:, digits:-1:2] = ord("\t")
            for j, col in enumerate(columns):
                field = col[lo:hi]
                table[:, digits + 1 + 2 * j] = np.where(field < 0, ord("-"), field + ord("0"))
            table[:, -1] = ord("\n")
            fh.write(table.tobytes())
            lo = hi


def summary_dict(config: SimConfig, transcript: ProtocolTranscript) -> dict:
    """JSON-ready summary of a run."""
    return {
        "trials": config.trials,
        "seed": config.seed,
        "source": "honest" if config.attack is None else "attack",
        "f": None if config.attack is None else config.attack.f,
        "lam": None if config.attack is None else config.attack.lam,
        "s_estimate": transcript.s_estimate,
        "s_std_error": transcript.s_std_error,
        "qber": transcript.qber,
        "sifted_length": len(transcript.sifted_key_alice),
        "aborted": transcript.aborted,
        "abort_reason": transcript.abort_reason,
    }


def write_summary(config: SimConfig, transcript: ProtocolTranscript, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(summary_dict(config, transcript), indent=2, sort_keys=True) + "\n")
