"""Seeded Monte Carlo simulation of the full key-distribution protocol.

Each trial draws independent settings for both observers, samples outcomes
from the exact Born-rule tables of the source (the pair source at visibility
1, or f*lam under attack), and, on key-generation trials under attack, adds
the eavesdropper's measurement record.  Trials consume a fixed number of
counter-based random draws, so any sharding of the trial range reproduces the
single-threaded stream bit for bit, and any trial range can be replayed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import operator
import os
import stat
import tempfile
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .attack import SUBSPACE_PAIRS, AttackParams, subspace_analysis
from .attack import transformed_tripartite  # noqa: F401 -- perfbench/spans.py wraps it on this module
from .correlations import LOCAL_REALISM_BOUND, bell_from_counts, joint_probs
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

# Trials per block, so the memory a shard uses does not grow with the run.  A block's Philox
# words (32 bytes a trial, 512 KiB) and the shard's reused working arrays (18 bytes a trial, and
# 16 plus the line width more when writing a transcript) fit in a core's 2 MiB L2 cache.  Shard
# threads share one process, so their blocks add up in its peak: at 2**16 a shard held 2.5 MiB.
# The price is time: two shard threads retake the GIL after each numpy call, once per block, so
# 2**14 samples about 7 % slower than 2**16 on two workers, and 2**13 about 15 % (for 0.1 MiB).
_BLOCK_TRIALS = 1 << 14

# Group of each outcome 3a + b (intp: it indexes Eve's thresholds).
# _EVE_CODE[3 * (3a + b) + step] is the Eve code 1 + 3 * group + guess of a guess step slots past it.
_GROUP_OF_FLAT = np.zeros(9, dtype=np.intp)
_EVE_CODE = np.zeros(27, dtype=np.int8)
for _grp, _pairs in enumerate(SUBSPACE_PAIRS):
    for _slot, (_a, _b) in enumerate(_pairs):
        _GROUP_OF_FLAT[3 * _a + _b] = _grp
        _EVE_CODE[9 * _a + 3 * _b : 9 * _a + 3 * _b + 3] = 1 + 3 * _grp + (_slot + np.arange(3)) % 3

# The abort rule holds the Bell estimate's lower confidence bound, S minus
# _ABORT_SIGMAS standard errors, against the local-realism bound sqrt(3).
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
            # the annotated type, so that == and hash work for list and array input
            object.__setattr__(self, "setting_weights", tuple(float(x) for x in w))


@dataclass
class ProtocolTranscript:
    """A run's config, its count table and the statistics computed from it.

    counts[pair, a, b] counts the trials with setting pair 3 * (alice - 1) +
    (bob - 1) and 0-based outcomes a, b.  s_estimate/s_std_error are None when
    some Bell-test setting pair never occurred, qber is None when no key
    rounds occurred.  Nothing per trial is kept: the per-trial record is the
    file write_transcript writes.
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

    # perfbench/spans.py reads its length; it leaves with ROADMAP item 3
    @functools.cached_property
    def sifted_key_alice(self) -> str:
        """Alice's key-round outcomes as digits, from a serial replay that keeps only key rounds."""
        parts = []
        _run(self.config, 1, lambda: lambda start, cell, eve: parts.append((cell[cell >= 72] - 72) // 3))
        return (np.concatenate(parts) + ord("0")).tobytes().decode("ascii")


def _outcome_tables(config: SimConfig) -> np.ndarray:
    """Exact p(a, b) for each setting pair, flattened to (9, 9): the pair source's tables T
    at visibility v (1 when honest) plus white noise, v T + (1 - v)/9 (proof in the README),
    clipped at 0 where rounding leaves -2e-16 in the cells that vanish at v = -1/2."""
    alice, bob = standard_settings()
    honest = np.array([joint_probs(max_entangled_state(), pa, pb).ravel() for pa in alice for pb in bob])
    v = 1.0 if config.attack is None else config.attack.visibility
    return np.clip(v * honest + (1.0 - v) / 9.0, 0.0, None)


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


def _draw(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """raw >> 11 of uint64 Philox words as int64 draws, into the int64 out if given;
    shifting the int64 view would sign-extend."""
    return np.right_shift(raw, 11, out=None if out is None else out.view(np.uint64)).view(np.int64)


def _lookup(guide: np.ndarray, thresh: np.ndarray, key: np.ndarray, bucket: np.ndarray, out: np.ndarray):
    """searchsorted(thresh, key, side="right") into the int8 out: one gather from the guide table
    by the bucket key >> _GUIDE_SHIFT, shifted into the int64 bucket (intp on 64-bit platforms,
    so no index cast), searching only the keys of split buckets.  Returns out."""
    np.take(guide, np.right_shift(key, _GUIDE_SHIFT, out=bucket), out=out, mode="clip")  # "raise" would copy
    split = np.flatnonzero(out < 0)
    out[split] = np.searchsorted(thresh, key[split], side="right")
    return out


def _eve_codes(raw: np.ndarray, cell: np.ndarray, eve_thresh: np.ndarray | None, eve: np.ndarray):
    """A block's Eve codes into the int8 eve, returned: 1 + 3 * group + guess on key rounds (cells
    72 to 80) under attack, else 0; eve_thresh holds Eve's two thresholds by outcome 3a + b, shape (2, 9)."""
    eve.fill(0)
    if eve_thresh is not None:
        key = np.flatnonzero(cell >= 72)
        flat = np.subtract(cell[key], 72, dtype=np.intp)
        r = _draw(raw[key, 2])
        # r < w keeps the slot, r < (1+w)/2 moves one pair on, else two
        code = 3 * flat
        code += r >= eve_thresh[0][flat]
        code += r >= eve_thresh[1][flat]
        eve[key] = _EVE_CODE[code]
    return eve


def _simulate_shard(
    config: SimConfig,
    lo: int,
    hi: int,
    cum_settings: np.ndarray,
    cum_tables: np.ndarray,
    eve_w: np.ndarray | None,
    sink: Callable[[int, np.ndarray, np.ndarray], None] | None,
) -> np.ndarray:
    """Sample trials [lo, hi) as a full run does; return their 81 cell counts.

    Works in blocks of at most _BLOCK_TRIALS trials that never straddle a
    power of ten, in working arrays made once for the shard and reused by
    every block.  Unless sink is None, it calls sink(start, cell, eve) with
    each block's int8 cells and Eve codes (1 + 3 * subspace + guess on key
    rounds under attack, else 0), from which write_transcript looks each
    line up in tables; both are views of those arrays, overwritten by the
    next block.  An index counts the integer thresholds its draw
    reaches, found with a guide table with a searchsorted fallback; setting
    s offsets its outcome thresholds by s << 53 in one sorted array, so the
    key (s << 53) + draw gives the trial's cell 9 * setting + 3 * a + b.
    Of a trial's four Philox words only those it reads become draws: words 0
    and 1 always, word 2 on key rounds under attack, word 3 never.
    """
    set_thresh = _thresholds(cum_settings)
    out_thresh = (
        _thresholds(cum_tables) + (np.arange(9, dtype=np.int64) << 53)[:, None]
    ).ravel()
    set_guide = _guide_table(set_thresh, 1 << _GUIDE_BITS)
    out_guide = _guide_table(out_thresh, 9 << _GUIDE_BITS)
    eve_thresh = None if eve_w is None else _thresholds(np.stack([eve_w, (1.0 + eve_w) / 2.0]))[:, _GROUP_OF_FLAT]
    counts = np.zeros(81, dtype=np.int64)

    from numpy.random import Philox  # here, not on import: bell, sweep and crossover never sample

    bit_gen = Philox(key=config.seed).advance(lo)
    size = min(hi - lo, _BLOCK_TRIALS)
    # one block's working arrays, made once and reused by every block of the shard: int64 keys,
    # int64 work (guide buckets, settings << 53, the cells to count), int8 cells and Eve codes
    keys, works = np.empty((2, size), dtype=np.int64)
    cells, eves = np.empty((2, size), dtype=np.int8)
    start = lo
    while start < hi:
        stop = min(hi, start + _BLOCK_TRIALS, 10 ** len(str(start)))
        n = stop - start
        # one whole Philox block per trial, so consecutive calls continue the serial stream
        raw = bit_gen.random_raw(_DRAWS_PER_TRIAL * n).reshape(n, _DRAWS_PER_TRIAL)
        key, work, cell = keys[:n], works[:n], cells[:n]
        s = _lookup(set_guide, set_thresh, _draw(raw[:, 0], key), work, cell)  # in cell until the outcome
        np.left_shift(s, 53, out=work, dtype=np.int64)
        _draw(raw[:, 1], key)
        key += work
        _lookup(out_guide, out_thresh, key, work, cell)
        np.copyto(work, cell)  # bincount counts intp: int8 cells would be cast to a temporary
        counts += np.bincount(work, minlength=81)
        if sink is not None:
            sink(start, cell, _eve_codes(raw, cell, eve_thresh, eves[:n]))
        del raw  # freed before the next block is drawn, so the peak holds one block's words
        start = stop
    return counts


def abort_decision(s_estimate: float, s_std_error: float) -> tuple[bool, str]:
    """Abort unless the Bell estimate is confidently above the local-realism line.

    Aborts iff the lower confidence bound s_estimate - 3 * s_std_error is
    below LOCAL_REALISM_BOUND = sqrt(3), or is not a number.
    """
    if s_std_error < 0.0:
        raise ValueError("s_std_error must be nonnegative")
    lower = s_estimate - _ABORT_SIGMAS * s_std_error
    if not lower >= LOCAL_REALISM_BOUND:
        return True, (
            f"bell estimate {s_estimate:.6f} (-{_ABORT_SIGMAS:g} sigma = {lower:.6f}) "
            f"below threshold {LOCAL_REALISM_BOUND:.6f}"
        )
    return False, f"bell estimate {s_estimate:.6f} meets threshold {LOCAL_REALISM_BOUND:.6f}"


def _sampling_tables(config: SimConfig):
    """(cumulative setting weights, cumulative outcome tables, eve success probs)."""
    weights = (1.0 / 9.0,) * 9 if config.setting_weights is None else config.setting_weights
    cum_settings = np.cumsum(weights, dtype=float)
    cum_settings[-1] = 1.0  # guard the top bin against cumsum rounding
    cum_tables = np.cumsum(_outcome_tables(config), axis=1)
    cum_tables[:, -1] = 1.0
    # w is NaN only for a group of probability 0, never sampled; 1/3 keeps it finite
    eve_w = None if config.attack is None else np.nan_to_num(subspace_analysis(config.attack).w, nan=1.0 / 3.0)
    return cum_settings, cum_tables, eve_w


def _run(config: SimConfig, workers: int, make_sink) -> ProtocolTranscript:
    """Sample every trial once, on shard threads; see run and write_transcript.

    Unless make_sink is None, each shard calls it once for a sink of its own,
    so whatever buffers a sink keeps belong to one thread.
    """
    if _integer("workers", workers) < 1:
        raise ValueError("workers must be >= 1")

    tables = _sampling_tables(config)
    # one shard per thread: more shards than CPUs would only queue
    n_shards = min(workers, os.cpu_count() or 1, config.trials)
    # integer bounds: a float cut loses trials beyond 2**53
    bounds = [config.trials * i // n_shards for i in range(n_shards + 1)]
    counts, failures = [], []

    def shard(lo, hi):
        try:
            sink = None if make_sink is None else make_sink()
            counts.append(_simulate_shard(config, lo, hi, *tables, sink))
        except BaseException as exc:  # raised in the caller, once every shard has stopped
            failures.append(exc)

    threads = [threading.Thread(target=shard, args=lo_hi) for lo_hi in zip(bounds[:-1], bounds[1:])]
    try:
        for thread in threads:
            thread.start()
    finally:  # an unstarted thread is not alive; write_transcript discards only after the last write
        for thread in filter(threading.Thread.is_alive, threads):
            thread.join()
    if failures:
        raise failures[0]
    counts = sum(counts).reshape(9, 3, 3)

    s_estimate, s_std_error = bell_from_counts(counts)
    n_key = int(counts[8].sum())
    errors = int(counts[8].ravel()[_GROUP_OF_FLAT != 0].sum())
    qber = errors / n_key if n_key else None
    if s_estimate is None:  # no Bell evidence, no key
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


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The line tail "\\tA\\tB\\ta\\tb\\te\\tg\\n" after a tab as two parts: (81,) "<u8" words by
    cell 9 * pair + 3a + b and (10,) "<u4" words by Eve code 1 + 3e + g ("-\\t-\\n" at 0).  Also
    (10**4, 4) uint8 ASCII digits of 0 to 9999.  Built on first use, not on import."""
    cells = "".join(f"{c // 27 + 1}\t{c // 9 % 3 + 1}\t{c // 3 % 3}\t{c % 3}\t" for c in range(81))
    eves = "-\t-\n" + "".join(f"{e}\t{g}\n" for e in range(3) for g in range(3))
    digits = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T) + ord("0")
    return np.frombuffer(cells.encode(), "<u8"), np.frombuffer(eves.encode(), "<u4"), digits


def _write_lines(fd: int, start: int, cell: np.ndarray, eve: np.ndarray, buffers: tuple[np.ndarray, ...]) -> None:
    """Write a block's lines at their offset: records of high index digits, low ones and a tail.

    The lines are formatted in the first items of buffers, one shard's uint8 line bytes, intp
    index and "<u8" part, which must hold len(cell) lines of len(str(start)) + 13 bytes.
    """
    n, width = len(cell), len(str(start))
    low = min(width, 4)
    buf, index, part = buffers[0][: n * (width + 13)], buffers[1][:n], buffers[2][:n]
    cell_parts, eve_parts, digits = _text_tables()
    lines = buf.view([("high", f"V{width - low}"), ("low", f"V{low}"), ("tab", "u1"), ("cell", "<u8"), ("eve", "<u4")])
    lines["tab"] = ord("\t")
    # gather each part into a contiguous array by an intp index, then copy it into the lines:
    # fancy indexing by the int8 codes would make an index and a gathered temporary per block
    np.copyto(index, cell)
    lines["cell"] = np.take(cell_parts, index, out=part, mode="clip")  # mode "raise" would copy
    np.copyto(index, eve)
    lines["eve"] = np.take(eve_parts, index, out=part.view("<u4")[:n], mode="clip")
    low_digits = np.ascontiguousarray(digits[: 10**low, 4 - low :]).view(f"V{low}")[:, 0]
    # the indices of i .. i + 10**4 - 1 share their high digits and cycle the low ones
    for i in range(start - start % 10**4, start + n, 10**4):
        chunk = lines[max(i, start) - start : i + 10**4 - start]
        chunk["high"] = str(i)[:-4].encode()
        chunk["low"] = low_digits[max(start - i, 0) :][: len(chunk)]
    data, offset = memoryview(buf), _line_offset(start)
    while data:  # pwrite may write fewer bytes than asked
        written = os.pwrite(fd, data, offset)
        data, offset = data[written:], offset + written


def write_transcript(config: SimConfig, path, workers: int = 1) -> ProtocolTranscript:
    """run, also writing one tab-separated line per trial to path.

    Each shard thread writes each of its blocks at its own offset in the file,
    so shards never wait on each other and the bytes do not depend on the
    worker count.  The lines go to a temporary file that replaces path only
    when the run succeeds (see _staged), so a failed run keeps what was there.
    Raises OSError, before creating path, where os.pwrite is missing (not POSIX).
    """
    if not hasattr(os, "pwrite"):
        raise OSError("writing a transcript needs os.pwrite, which this platform lacks")
    with _output_file(path, "wb") as fh:
        fh.write(TRANSCRIPT_HEADER)
        fh.flush()
        fd, n, width = fh.fileno(), min(config.trials, _BLOCK_TRIALS), len(str(config.trials - 1)) + 13

        def make_sink():  # buffers for the longest block of the widest lines, one set per shard thread
            buffers = np.empty(n * width, np.uint8), np.empty(n, np.intp), np.empty(n, "<u8")
            return lambda start, cell, eve: _write_lines(fd, start, cell, eve, buffers)

        return _run(config, workers, make_sink)


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
    """summary_dict as JSON in path, through a temporary file that replaces it only on success."""
    with _output_file(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(summary_dict(config, transcript), indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _output_file(path, mode: str, **kwargs):
    """A file open with mode on what _staged gives for path, for a with block."""
    with _staged(path) as (target,), open(target, mode, **kwargs) as fh:
        yield fh


@contextlib.contextmanager
def _staged(*paths):
    """Paths to write in a with block in place of paths, so a failed write keeps what was there.

    A missing or regular-file path gets a new temporary file beside it, which
    replaces it when the block succeeds and is discarded when the block fails;
    so several paths are replaced only when all of their writes succeed, though
    one rename after another, not as one step.  A symlink, pipe, device or
    directory is written as itself: it is not the run's to replace, and a
    failure leaves it as it is.
    """
    targets = []
    try:
        for path in paths:
            targets.append(_stage(path))
        yield targets
        for path, target in zip(paths, targets):
            if target is not path:
                os.replace(target, path)
    except BaseException:
        for path, target in zip(paths, targets):
            if target is not path:
                _discard(target)
        raise


def _stage(path):
    """Where _staged writes path: a new temporary file beside a missing or regular-file path,
    with that file's permissions or a new file's, else path itself."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        umask = os.umask(0o077)  # no call only reads the umask
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(st.st_mode):
            return path
        mode = stat.S_IMODE(st.st_mode)
    directory, name = os.path.split(path)
    try:
        fd, temporary = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory or ".")
    except OSError as exc:  # name the path asked for, as opening it would have
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    os.close(fd)
    with contextlib.suppress(OSError):  # mkstemp makes 0o600; a file system without modes keeps its own
        os.chmod(temporary, mode)
    return temporary


def _discard(path) -> None:
    if os.path.isfile(path) and not os.path.islink(path):  # never a symlink, a pipe or a device
        os.unlink(path)
