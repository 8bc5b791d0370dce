"""Seeded Monte Carlo simulation of the full key-distribution protocol.

Each trial draws independent settings for both observers, samples outcomes
from the exact Born-rule tables of the configured source (honest pair source
or eavesdropper-controlled), and, on key-generation trials under attack, adds
the eavesdropper's measurement record.  Trials consume a fixed number of
counter-based random draws, so any sharding of the trial range reproduces the
single-threaded stream bit for bit, and any trial range can be replayed.
"""

from __future__ import annotations

import functools
import json
import operator
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .attack import SUBSPACE_PAIRS, AttackParams, subspace_analysis, transformed_tripartite
from .correlations import CRITICAL_VISIBILITY, QUANTUM_BELL_VALUE, bell_from_counts, joint_probs
from .quantum import max_entangled_state, standard_settings

# Uniforms consumed per trial (settings, outcome, eve guess, spare).  Four is
# exactly one Philox block, so trial i starts at counter offset i and shards
# concatenate to the serial stream.
_DRAWS_PER_TRIAL = 4

# A draw is the integer k = raw >> 11 of one 64-bit Philox output, the k of
# Generator.random's u = k * 2**-53.
_DRAW_SCALE = float(2**53)

# Guide-table buckets (Chen & Asau's indexed search): bucket j holds keys k >> _GUIDE_SHIFT == j.
_GUIDE_BITS = 12
_GUIDE_SHIFT = 53 - _GUIDE_BITS

# Trials per block, so the memory a shard uses does not grow with the run.
# Shard threads share one process, so their block temporaries add up in its peak.
_BLOCK_TRIALS = 1 << 16

# Group and slot of each outcome 3a + b.  Eve's guess (group, slot) names Alice's
# symbol in that pair; Bob's outcome b names _BOB_KEY_TRIT[b], hers in group 0.
_GROUP_OF_FLAT = np.zeros(9, dtype=np.int8)
_SLOT_OF_FLAT = np.zeros(9, dtype=np.int8)
_EVE_TRIT = np.zeros((3, 3), dtype=np.int8)
_BOB_KEY_TRIT = np.zeros(3, dtype=np.int8)
for _grp, _pairs in enumerate(SUBSPACE_PAIRS):
    for _slot, (_a, _b) in enumerate(_pairs):
        _GROUP_OF_FLAT[3 * _a + _b] = _grp
        _SLOT_OF_FLAT[3 * _a + _b] = _slot
        _EVE_TRIT[_grp, _slot] = _a
        if _grp == 0:
            _BOB_KEY_TRIT[_b] = _a

# The abort rule holds the Bell estimate's lower confidence bound, S minus
# _ABORT_SIGMAS standard errors, against the local-realism line V0 * (quantum
# Bell value).
_ABORT_BOUND = CRITICAL_VISIBILITY * QUANTUM_BELL_VALUE
_ABORT_SIGMAS = 3.0


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        for name in ("trials", "seed"):  # Philox truncates a float seed, overflows on numpy ints
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 1 <= self.trials < 2**63:  # the most the int64 count table holds
            raise ValueError(f"trials must be >= 1 and below 2**63, got {self.trials}")
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
    """A run's config, its count table and the statistics computed from it.

    counts[pair, a, b] counts the trials with setting pair 3 * (alice - 1) +
    (bob - 1) and 0-based outcomes a, b.  s_estimate/s_std_error are None when
    some Bell-test setting pair never occurred, qber is None when no key
    rounds occurred.  columns and the sifted keys replay the counter-based
    stream when read; sifted_key_eve is None when no key round has an Eve record.
    """

    config: SimConfig
    counts: np.ndarray
    s_estimate: float | None
    s_std_error: float | None
    qber: float | None
    aborted: bool
    abort_reason: str

    @property
    def sifted_length(self) -> int:
        return int(self.counts[8].sum())

    def _replay(self, select) -> np.ndarray:
        """select(block) of each block of the run, concatenated."""
        parts = []
        _run(self.config, 1, lambda start, block: parts.append(select(block)))
        return np.concatenate(parts, axis=1)

    @property
    def columns(self) -> np.ndarray:
        """(5, trials) int8: setting pair, a, b, Eve's subspace and guess (-1 where absent)."""
        return self._replay(lambda block: block)

    @functools.cached_property
    def _sifted_keys(self) -> tuple[str, str, str | None]:
        """(Alice, Bob, Eve) keys from one replay that keeps only key rounds."""
        a, b, eve_sub, eve_guess = self._replay(lambda block: block[1:, block[0] == 8])
        alice, bob = _trits_to_str(a), _trits_to_str(_BOB_KEY_TRIT[b])
        if self.config.attack is None or a.size == 0:
            return alice, bob, None
        return alice, bob, _trits_to_str(_EVE_TRIT[eve_sub, eve_guess])

    sifted_key_alice = property(lambda self: self._sifted_keys[0])
    sifted_key_bob = property(lambda self: self._sifted_keys[1])
    sifted_key_eve = property(lambda self: self._sifted_keys[2])


def _outcome_tables(config: SimConfig) -> np.ndarray:
    """Exact p(a, b) for each of the nine setting pairs, flattened to (9, 9)."""
    alice, bob = standard_settings()
    tables = np.empty((9, 9))
    for m in range(3):
        for n in range(3):
            if config.attack is None:
                tables[3 * m + n] = joint_probs(max_entangled_state(), alice[m], bob[n]).reshape(9)
            else:
                psi = transformed_tripartite(config.attack, alice[m], bob[n])
                tables[3 * m + n] = (np.abs(psi.reshape(9, 9)) ** 2).sum(axis=1)
    return tables


def _thresholds(cum: np.ndarray) -> np.ndarray:
    """Integer draw thresholds: u = k * 2**-53 >= c exactly when k >= ceil(c * 2**53).

    Scaling by a power of two is exact, so the comparison is carried over
    without rounding.  Thresholds are capped at 2**53, which no k reaches, so
    a cumsum entry that rounded above the forced top value 1.0 neither counts
    nor unsorts the array.
    """
    return np.minimum(np.ceil(cum * _DRAW_SCALE), _DRAW_SCALE).astype(np.int64)


def _guide_table(thresh: np.ndarray, n_buckets: int) -> np.ndarray:
    """int8 entry j: searchsorted(thresh, key, side="right") shared by every key of
    bucket j (all reach t once j >= ceil(t / width)), or -1 where a threshold that
    is no multiple of the width splits the bucket.  Built with no bucket-sized
    temporaries, since each shard thread's add to the process's peak memory."""
    width = 1 << _GUIDE_SHIFT
    reach = np.clip(-(-thresh // width), 0, n_buckets)
    guide = np.repeat(np.arange(len(thresh) + 1, dtype=np.int8), np.diff(reach, prepend=0, append=n_buckets))
    guide[thresh[(thresh % width != 0) & (thresh < n_buckets * width)] >> _GUIDE_SHIFT] = -1
    return guide


def _lookup(guide: np.ndarray, thresh: np.ndarray, key: np.ndarray) -> np.ndarray:
    """searchsorted(thresh, key, side="right") as int8: one gather from the guide
    table, searching only the keys of split buckets.  Bucket numbers are below
    9 << _GUIDE_BITS < 2**16; uint16 in place of int64 keeps the peak down."""
    bucket = np.right_shift(key, _GUIDE_SHIFT, out=np.empty(len(key), np.uint16), casting="unsafe")
    index = guide[bucket]
    split = np.flatnonzero(index < 0)
    index[split] = np.searchsorted(thresh, key[split], side="right")
    return index


def _simulate_shard(
    config: SimConfig,
    lo: int,
    hi: int,
    cum_settings: np.ndarray,
    cum_tables: np.ndarray,
    eve_w: np.ndarray | None,
    sink: Callable[[int, np.ndarray], None] | None,
) -> np.ndarray:
    """Sample trials [lo, hi) as a full run does; return their 81 counts of
    9 * setting pair + 3 * a + b.

    Works in blocks of at most _BLOCK_TRIALS trials that never straddle a
    power of ten.  Unless sink is None, it calls sink(start, block) with each
    block's int8 columns: setting pair, a, b, eve subspace and guess (-1 where
    absent).  An index is the number of integer thresholds its draw reaches,
    found with a guide table with a searchsorted fallback; the outcome
    thresholds of setting s are offset by s << 53 into one sorted array, so the
    count for the key (s << 53) + draw is the trial's cell 9 * setting + outcome.
    """
    set_thresh = _thresholds(cum_settings)
    out_thresh = (
        _thresholds(cum_tables) + (np.arange(9, dtype=np.int64) << 53)[:, None]
    ).ravel()
    set_guide = _guide_table(set_thresh, 1 << _GUIDE_BITS)
    out_guide = _guide_table(out_thresh, 9 << _GUIDE_BITS)
    eve_thresh = None if eve_w is None else _thresholds(np.stack([eve_w, (1.0 + eve_w) / 2.0]))
    counts = np.zeros(81, dtype=np.int64)

    bit_gen = Philox(key=config.seed).advance(lo)
    start = lo
    while start < hi:
        stop = min(hi, start + _BLOCK_TRIALS, 10 ** len(str(start)))
        n = stop - start
        # each trial is one whole Philox block, so consecutive calls continue
        # the serial stream; k < 2**53 fits int64 exactly
        k = bit_gen.random_raw(_DRAWS_PER_TRIAL * n).reshape(n, _DRAWS_PER_TRIAL)
        k = np.right_shift(k, 11, out=k).view(np.int64)
        s = _lookup(set_guide, set_thresh, k[:, 0])
        # the outcome key, built in place so the block holds one int64 temporary
        out_key = s.astype(np.int64)
        out_key <<= 53
        out_key += k[:, 1]
        cell = _lookup(out_guide, out_thresh, out_key)
        counts += np.bincount(cell, minlength=81)
        if sink is not None:
            outcome = cell - 9 * s
            block = np.full((5, n), -1, dtype=np.int8)
            block[:3] = s, outcome // 3, outcome % 3
            if eve_w is not None:
                key = np.flatnonzero(s == 8)
                flat = outcome[key]
                group = _GROUP_OF_FLAT[flat]
                r = k[key, 2]
                # r < w keeps the slot, r < (1+w)/2 moves one pair on, else two
                block[3, key] = group
                block[4, key] = (_SLOT_OF_FLAT[flat] + (r >= eve_thresh[:, group]).sum(axis=0)) % 3
            sink(start, block)
        # freed before the next block is drawn, so the peak is one block's
        del k, s, out_key, cell
        start = stop
    return counts


def _trits_to_str(trits: np.ndarray) -> str:
    return (trits.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def abort_decision(s_estimate: float, s_std_error: float) -> tuple[bool, str]:
    """Abort unless the Bell estimate is confidently above the local-realism line.

    Aborts iff the lower confidence bound s_estimate - 3 * s_std_error is
    below CRITICAL_VISIBILITY * QUANTUM_BELL_VALUE, or is not a number.
    """
    if s_std_error < 0.0:
        raise ValueError("s_std_error must be nonnegative")
    lower = s_estimate - _ABORT_SIGMAS * s_std_error
    if not lower >= _ABORT_BOUND:
        return True, (
            f"bell estimate {s_estimate:.6f} (-{_ABORT_SIGMAS:g} sigma = {lower:.6f}) "
            f"below threshold {_ABORT_BOUND:.6f}"
        )
    return False, f"bell estimate {s_estimate:.6f} meets threshold {_ABORT_BOUND:.6f}"


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
    # w is NaN only for a group of probability 0, never sampled; 1/3 keeps it finite
    eve_w = None if config.attack is None else np.nan_to_num(subspace_analysis(config.attack).w, nan=1.0 / 3.0)
    return cum_settings, cum_tables, eve_w


def _run(config: SimConfig, workers: int, sink) -> ProtocolTranscript:
    """Sample every trial once, on shard threads; see run and write_transcript."""
    if _integer("workers", workers) < 1:
        raise ValueError("workers must be >= 1")

    tables = _sampling_tables(config)
    # one shard per thread: more shards than CPUs would only queue
    n_shards = min(workers, os.cpu_count() or 1, config.trials)
    # integer bounds: a float cut loses trials beyond 2**53
    bounds = [config.trials * i // n_shards for i in range(n_shards + 1)]
    shards = list(zip(bounds[:-1], bounds[1:]))
    with ThreadPoolExecutor(max_workers=n_shards) as pool:
        futures = [
            pool.submit(_simulate_shard, config, lo, hi, *tables, sink) for lo, hi in shards
        ]
        counts = sum(future.result() for future in futures).reshape(9, 3, 3)

    s_estimate, s_std_error = bell_from_counts(counts)
    n_key = int(counts[8].sum())
    errors = int(counts[8].ravel()[_GROUP_OF_FLAT != 0].sum())
    qber = errors / n_key if n_key else None
    if s_estimate is None:
        # no Bell evidence, no key
        aborted, reason = True, "bell estimate unavailable (no test rounds)"
    else:
        aborted, reason = abort_decision(s_estimate, s_std_error)
    return ProtocolTranscript(config, counts, s_estimate, s_std_error, qber, aborted, reason)


def run(config: SimConfig, workers: int = 1) -> ProtocolTranscript:
    """Simulate the protocol; output is identical for any worker count.

    Trials are split into contiguous shards, one per worker but at most one
    per CPU, each on its own thread counting its slice of the counter-based
    stream block by block.  Every statistic comes from the sum of the shards'
    count tables; nothing per trial is kept.
    """
    return _run(config, workers, None)


TRANSCRIPT_HEADER = b"# trial\talice_setting\tbob_setting\talice_outcome\tbob_outcome\teve_subspace\teve_guess\n"


def _line_offset(i: int) -> int:
    """Byte offset of trial i's line: the header, then len(str(j)) + 13 bytes
    for each j < i, that is 14 bytes plus one for each power 10**p <= j."""
    return len(TRANSCRIPT_HEADER) + 14 * i + sum(i - 10**p for p in range(1, len(str(i))))


def _write_lines(fd: int, start: int, block: np.ndarray) -> None:
    """Write a block's transcript lines, one width and so one uint8 table, at their
    offset; eve fields are '-' where absent."""
    pair, *rest = block
    digits = len(str(start))
    fields = (pair // 3 + 1, pair % 3 + 1, *rest)
    table = np.empty((len(pair), digits + 2 * len(fields) + 1), dtype=np.uint8)
    index = np.arange(start, start + len(pair))
    for k in range(digits):
        table[:, digits - 1 - k] = index // 10**k % 10 + ord("0")
    table[:, digits:-1:2] = ord("\t")
    for j, field in enumerate(fields):
        table[:, digits + 1 + 2 * j] = np.where(field < 0, ord("-"), field + ord("0"))
    table[:, -1] = ord("\n")
    data, offset = table.tobytes(), _line_offset(start)
    while data:  # pwrite may write fewer bytes than asked
        written = os.pwrite(fd, data, offset)
        data, offset = data[written:], offset + written


def write_transcript(config: SimConfig, path, workers: int = 1) -> ProtocolTranscript:
    """run, also writing one tab-separated line per trial to path.

    Each shard thread writes each of its blocks at its own offset in the file,
    so shards never wait on each other and the bytes do not depend on the
    worker count.  If the run fails, path is removed before the error propagates.
    Raises OSError, before creating path, where os.pwrite is missing (not POSIX).
    """
    if not hasattr(os, "pwrite"):
        raise OSError("writing a transcript needs os.pwrite, which this platform lacks")
    with open(path, "wb") as fh:
        try:
            fh.write(TRANSCRIPT_HEADER)
            fh.flush()
            return _run(config, workers, functools.partial(_write_lines, fh.fileno()))
        except BaseException:
            fh.close()
            os.unlink(path)
            raise


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
        "sifted_length": transcript.sifted_length,
        "aborted": transcript.aborted,
        "abort_reason": transcript.abort_reason,
    }


def write_summary(config: SimConfig, transcript: ProtocolTranscript, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(summary_dict(config, transcript), indent=2, sort_keys=True) + "\n")
