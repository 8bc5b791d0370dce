"""Tests for the Monte Carlo protocol engine."""

import json
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

import tritkd.simulate
from oracles import reference_bell, reference_shard, sifted_keys
from tritkd.attack import SUBSPACE_PAIRS, AttackParams, ab_error, eve_error, subspace_analysis
from tritkd.correlations import QUANTUM_BELL_VALUE, bell_from_counts, bell_s, correlation_q, joint_probs
from tritkd.quantum import max_entangled_state, standard_settings
from tritkd.simulate import (
    _BOB_KEY_TRIT,
    _EVE_TRIT,
    _GUIDE_BITS,
    _GUIDE_SHIFT,
    _guide_table,
    _line_offset,
    _lookup,
    _outcome_tables,
    _sampling_tables,
    _simulate_shard,
    _thresholds,
    TRANSCRIPT_HEADER,
    ProtocolTranscript,
    SimConfig,
    abort_decision,
    run,
    summary_dict,
    write_summary,
    write_transcript,
)


def _transcripts_equal(a: ProtocolTranscript, b: ProtocolTranscript) -> bool:
    return (
        np.array_equal(a.columns, b.columns)
        and np.array_equal(a.counts, b.counts)
        and a.s_estimate == b.s_estimate
        and a.s_std_error == b.s_std_error
        and a.sifted_key_alice == b.sifted_key_alice
        and a.sifted_key_bob == b.sifted_key_bob
        and a.sifted_key_eve == b.sifted_key_eve
        and a.qber == b.qber
        and a.aborted == b.aborted
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(trials=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(trials=2**63, seed=1)
    SimConfig(trials=2**63 - 1, seed=1)
    with pytest.raises(ValueError):
        SimConfig(trials=10, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(trials=10, seed=2**64)
    # Philox would truncate the seed, and a float trial count breaks the shard cut
    with pytest.raises(ValueError, match="seed must be an integer"):
        SimConfig(trials=1000, seed=0.5)
    with pytest.raises(ValueError, match="trials must be an integer"):
        SimConfig(trials=10.5, seed=0)
    with pytest.raises(ValueError, match="workers must be an integer"):
        run(SimConfig(trials=10, seed=0), workers=1.5)
    # numpy integers are accepted as plain ints, which Philox.advance and json take
    config = SimConfig(trials=np.int64(10), seed=np.uint64(2**64 - 1))
    assert json.loads(json.dumps(summary_dict(config, run(config))))["seed"] == 2**64 - 1
    with pytest.raises(ValueError):
        SimConfig(trials=10, seed=1, setting_weights=(1.0,) * 9)
    with pytest.raises(ValueError):
        SimConfig(trials=10, seed=1, setting_weights=(float("nan"),) * 9)
    with pytest.raises(ValueError):
        SimConfig(trials=10, seed=1, setting_weights=(float("nan"),) + (1 / 8,) * 8)
    SimConfig(trials=10, seed=1, setting_weights=(1 / 9,) * 9)


def test_same_seed_same_transcript():
    config = SimConfig(trials=5000, seed=123, attack=AttackParams(f=0.9, lam=0.8))
    assert _transcripts_equal(run(config), run(config))


def _transcript_bytes(config, path, workers):
    """(transcript.tsv bytes, returned transcript) of write_transcript."""
    transcript = write_transcript(config, path, workers=workers)
    return path.read_bytes(), transcript


def test_worker_count_does_not_change_output(monkeypatch, tmp_path):
    # enough CPUs that every worker count below cuts its own shards
    monkeypatch.setattr(tritkd.simulate.os, "cpu_count", lambda: 8)
    config = SimConfig(trials=7001, seed=9, attack=AttackParams(f=0.85, lam=0.7))
    serial = run(config, workers=1)
    serial_bytes, written = _transcript_bytes(config, tmp_path / "serial.tsv", 1)
    assert _transcripts_equal(serial, written)
    # frequent thread switches, so shards interleave their writes to the file
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (3, 8):
            assert _transcripts_equal(serial, run(config, workers=workers))
            blob, written = _transcript_bytes(config, tmp_path / f"{workers}.tsv", workers)
            assert blob == serial_bytes
            assert _transcripts_equal(serial, written)
    finally:
        sys.setswitchinterval(interval)


def test_threads_bounded_by_cpu_count(monkeypatch, tmp_path):
    # any worker count on a two-CPU machine cuts at most two shards, one per thread
    config = SimConfig(trials=1000, seed=17, attack=AttackParams(f=0.9, lam=0.8))
    serial = run(config, workers=1)
    serial_bytes, _ = _transcript_bytes(config, tmp_path / "serial.tsv", 1)
    calls = []
    shard = tritkd.simulate._simulate_shard

    def recording_shard(*args):
        calls.append(args[1:3])  # lo, hi
        return shard(*args)

    monkeypatch.setattr(tritkd.simulate.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(tritkd.simulate, "_simulate_shard", recording_shard)
    bounded = run(config, workers=10**9)
    assert 1 <= len(calls) <= 2
    calls.clear()
    blob, written = _transcript_bytes(config, tmp_path / "many.tsv", 10**9)
    assert 1 <= len(calls) <= 2
    # reading columns and keys replays the stream on threads of its own
    assert _transcripts_equal(serial, bounded)
    assert blob == serial_bytes
    assert _transcripts_equal(serial, written)


@pytest.mark.parametrize("trials", [3, 7, 2**53 + 1, 2**60 + 1, 2**63 - 1])
def test_shards_cover_every_trial(trials, monkeypatch):
    # shards recorded, not run; bounds cut in floats lose trials above 2**53
    ranges = []

    def recording_shard(config, lo, hi, *rest):
        ranges.append((lo, hi))
        return np.zeros(81, dtype=np.int64)

    monkeypatch.setattr(tritkd.simulate.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(tritkd.simulate, "_simulate_shard", recording_shard)
    run(SimConfig(trials=trials, seed=0), workers=3)
    ranges.sort()
    assert len(ranges) == 3
    assert ranges[0][0] == 0 and ranges[-1][1] == trials
    assert all(hi == next_lo for (_, hi), (next_lo, _) in zip(ranges, ranges[1:]))
    sizes = [hi - lo for lo, hi in ranges]
    assert max(sizes) - min(sizes) <= 1


def test_honest_run_statistics():
    config = SimConfig(trials=100_000, seed=2024)
    transcript = run(config)
    assert transcript.qber == 0.0
    assert transcript.sifted_key_alice == transcript.sifted_key_bob
    assert transcript.sifted_key_eve is None
    assert not transcript.aborted
    assert abs(transcript.s_estimate - QUANTUM_BELL_VALUE) < 3 * transcript.s_std_error + 0.02

    # empirical tables converge to the exact ones for every settings pair
    alice, bob = standard_settings()
    psi = max_entangled_state()
    bound = 5.0 / np.sqrt(config.trials)
    setting_idx, a, b = transcript.columns[:3]
    for m in range(3):
        for n in range(3):
            mask = setting_idx == 3 * m + n
            counts = np.zeros((3, 3))
            np.add.at(counts, (a[mask], b[mask]), 1)
            freq = counts / mask.sum()
            expected = joint_probs(psi, alice[m], bob[n])
            assert 0.5 * np.abs(freq - expected).sum() < bound


def test_group_assignment_exact():
    config = SimConfig(trials=3000, seed=5, attack=AttackParams(f=0.8, lam=0.9))
    transcript = run(config)
    setting_idx, _, _, eve_sub, eve_guess = transcript.columns
    key_rounds = setting_idx == 8
    assert len(transcript.sifted_key_alice) == int(key_rounds.sum())
    # eve fields exist exactly on the key rounds
    assert np.array_equal(eve_sub >= 0, key_rounds)
    assert np.array_equal(eve_guess >= 0, key_rounds)

    assert sifted_keys(transcript) == (
        transcript.sifted_key_alice,
        transcript.sifted_key_bob,
        transcript.sifted_key_eve,
    )


def test_attack_statistics_match_theory():
    params = AttackParams(f=0.9, lam=0.8)
    config = SimConfig(trials=100_000, seed=1, attack=params)
    transcript = run(config)

    n_sift = len(transcript.sifted_key_alice)
    e_ab = ab_error(params)
    sigma = np.sqrt(e_ab * (1 - e_ab) / n_sift)
    assert abs(transcript.qber - e_ab) < 3 * sigma

    # eve's subspace frequencies follow the projection probabilities
    sub = subspace_analysis(params)
    subspaces = transcript.columns[3][transcript.columns[3] >= 0]
    for grp in range(3):
        p = sub.p[grp]
        freq = np.mean(subspaces == grp)
        assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / n_sift)

    # eve's key agrees with alice's at rate 1 - eve_error
    alice = np.frombuffer(transcript.sifted_key_alice.encode(), dtype=np.uint8)
    eve = np.frombuffer(transcript.sifted_key_eve.encode(), dtype=np.uint8)
    match = np.mean(alice == eve)
    expected = 1.0 - eve_error(params)
    assert abs(match - expected) < 3 * np.sqrt(expected * (1 - expected) / n_sift)

    # bell estimate scales with the visibility
    assert abs(transcript.s_estimate - 0.72 * QUANTUM_BELL_VALUE) < 3 * transcript.s_std_error
    assert not transcript.aborted


def test_undisturbed_attack_is_invisible_but_uninformative():
    config = SimConfig(trials=40_000, seed=77, attack=AttackParams(f=1.0, lam=1.0))
    transcript = run(config)
    assert transcript.qber == 0.0
    assert not transcript.aborted
    alice = np.frombuffer(transcript.sifted_key_alice.encode(), dtype=np.uint8)
    eve = np.frombuffer(transcript.sifted_key_eve.encode(), dtype=np.uint8)
    match = np.mean(alice == eve)
    n = len(alice)
    assert abs(match - 1 / 3) < 3 * np.sqrt((1 / 3) * (2 / 3) / n)


def test_strong_attack_triggers_abort():
    # visibility 0.3 puts the bell estimate far below the local-realism line
    config = SimConfig(trials=50_000, seed=4, attack=AttackParams(f=0.6, lam=0.5))
    transcript = run(config)
    assert transcript.aborted
    assert "below threshold" in transcript.abort_reason


def test_missing_groups_are_unavailable_not_errors():
    only_key = (0.0,) * 8 + (1.0,)
    transcript = run(SimConfig(trials=500, seed=11, setting_weights=only_key))
    assert transcript.s_estimate is None
    assert transcript.s_std_error is None
    # no Bell evidence, no key: the run fails closed
    assert transcript.aborted
    assert "unavailable" in transcript.abort_reason
    assert len(transcript.sifted_key_alice) == 500

    only_test = (0.25, 0.25, 0.0, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0)
    transcript = run(SimConfig(trials=500, seed=11, setting_weights=only_test))
    assert transcript.sifted_key_alice == ""
    assert transcript.qber is None
    assert transcript.s_estimate is not None


def test_extract_key_remaps():
    # on a strictly correlated round Bob's outcome b names Alice's symbol
    for a, b in SUBSPACE_PAIRS[0]:
        assert _BOB_KEY_TRIT[b] == a
    # guesses name pairs (1,2), (1,1), (0,1): alice symbols 1, 1, 0
    assert (_EVE_TRIT[0, 1], _EVE_TRIT[1, 0], _EVE_TRIT[2, 2]) == (1, 1, 0)


@pytest.mark.parametrize("attack", [None, AttackParams(f=0.9, lam=0.8)])
def test_bell_routes_agree(attack):
    # the count-table estimate and bell_s of the exact correlations, on counts
    # that hold each outcome table to 1e-12
    tables = _outcome_tables(SimConfig(trials=1, seed=0, attack=attack))
    s_counts, _ = bell_from_counts(np.rint(1e12 * tables).astype(np.int64).reshape(9, 3, 3))
    s_exact = bell_s(*(correlation_q(tables[i].reshape(3, 3)) for i in (0, 1, 3, 4)))
    v = 1.0 if attack is None else attack.visibility
    assert abs(s_counts - s_exact) < 1e-9
    assert abs(s_counts - QUANTUM_BELL_VALUE * v) < 1e-9


def test_abort_decision_rule():
    assert abort_decision(2.488, 0.01) == (False, abort_decision(2.488, 0.01)[1])
    aborted, reason = abort_decision(1.0, 0.01)
    assert aborted and "below threshold" in reason
    # the rule is one-sided on the lower bound: 1.74 - 3 * 0.005 < sqrt(3)
    aborted, reason = abort_decision(1.74, 0.005)
    assert aborted and "below threshold" in reason
    assert not abort_decision(1.76, 0.005)[0]
    assert abort_decision(float("nan"), 0.01)[0]
    with pytest.raises(ValueError):
        abort_decision(2.0, -0.1)


def test_serialization_round_trip(tmp_path):
    config = SimConfig(trials=200, seed=8, attack=AttackParams(f=0.9, lam=0.9))
    t_path = tmp_path / "transcript.tsv"
    s_path = tmp_path / "summary.json"
    transcript = write_transcript(config, t_path)
    assert _transcripts_equal(transcript, run(config))
    write_summary(config, transcript, s_path)

    lines = t_path.read_text().splitlines()
    assert lines[0].startswith("# trial")
    assert len(lines) == 201
    first = lines[1].split("\t")
    assert first[0] == "0"
    assert first[1] == str(transcript.columns[0][0] // 3 + 1)

    import json

    summary = json.loads(s_path.read_text())
    assert summary["qber"] == transcript.qber
    assert summary["sifted_length"] == len(transcript.sifted_key_alice)
    assert summary == summary_dict(config, transcript)

    # rewriting is byte-identical
    blob = t_path.read_bytes()
    write_transcript(config, t_path)
    assert t_path.read_bytes() == blob


def _line_by_line_transcript(transcript) -> bytes:
    """The transcript format, one f-string per trial."""
    lines = ["# trial\talice_setting\tbob_setting\talice_outcome\tbob_outcome\teve_subspace\teve_guess"]
    for i, (pair, a, b, sub, guess) in enumerate(transcript.columns.T.tolist()):
        lines.append(
            f"{i}\t{pair // 3 + 1}\t{pair % 3 + 1}\t{a}\t{b}"
            f"\t{sub if sub >= 0 else '-'}\t{guess if guess >= 0 else '-'}"
        )
    return ("\n".join(lines) + "\n").encode("ascii")


@pytest.mark.parametrize("trials", [1, 9, 10, 11, 999, 1000, 1001])
@pytest.mark.parametrize("attack", [None, AttackParams(f=0.9, lam=0.8)], ids=["honest", "attack"])
def test_transcript_bytes_match_line_reference(trials, attack, tmp_path, monkeypatch):
    config = SimConfig(trials=trials, seed=13, attack=attack)
    expected = _line_by_line_transcript(run(config))
    path = tmp_path / "transcript.tsv"
    write_transcript(config, path)
    assert path.read_bytes() == expected
    # blocks that end inside a decade as well as at its boundary
    monkeypatch.setattr(tritkd.simulate, "_BLOCK_TRIALS", 7)
    write_transcript(config, path)
    assert path.read_bytes() == expected
    # positional writes that stop short are resumed where they stopped
    pwrite = os.pwrite
    monkeypatch.setattr(tritkd.simulate.os, "pwrite", lambda fd, data, offset: pwrite(fd, data[:5], offset))
    write_transcript(config, path, workers=2)
    assert path.read_bytes() == expected


def test_line_offset_closed_form():
    # the closed form against the summed line widths len(str(j)) + 13, across
    # the decades at 10, 100, 1000 and 10000 where the widths change
    widths = [len(str(j)) + 13 for j in range(20001)]
    offsets = len(TRANSCRIPT_HEADER) + np.cumsum([0] + widths)
    assert [_line_offset(i) for i in range(len(offsets))] == offsets.tolist()
    # and far out, one decade at a time
    i, expected = 10**12 + 5, len(TRANSCRIPT_HEADER)
    for p in range(13):
        expected += (min(i, 10 ** (p + 1)) - (10**p if p else 0)) * (p + 14)
    assert _line_offset(i) == expected


def test_run_memory_does_not_grow_with_trials():
    # no per-trial array: the traced peak is the same at 2**17 and 2**21 trials
    def traced_peak(trials):
        tracemalloc.start()
        try:
            run(SimConfig(trials=trials, seed=3, attack=AttackParams(f=0.95, lam=0.9)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(1 << 10)  # one-time set-up outside the comparison
    assert abs(traced_peak(1 << 21) - traced_peak(1 << 17)) <= 1 << 20


ONLY_TEST = (0.25, 0.25, 0.0, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0)

# Neither -1 nor a trit, so a shard that leaves any value of its slice to the
# caller, or writes outside it, shows.
SENTINEL = 77


def _bincount(columns):
    """Counts of 9 * setting pair + 3 * a + b over the trials of the columns."""
    setting_idx, a, b = columns[:3].astype(np.int64)
    return np.bincount(9 * setting_idx + 3 * a + b, minlength=81)


def _shard_columns(config, lo, hi, tables):
    """Run one shard, recording its blocks into sentinel-filled columns; return
    its slice of them."""
    columns = np.full((5, config.trials), SENTINEL, dtype=np.int8)
    ends = [lo]

    def record(start, block):
        assert block.dtype == np.int8 and block.shape[0] == 5
        stop = start + block.shape[1]
        # blocks are consecutive, at most _BLOCK_TRIALS long, and never
        # straddle a power of ten
        assert start == ends[-1] and start < stop <= hi
        assert stop - start <= tritkd.simulate._BLOCK_TRIALS and stop <= 10 ** len(str(start))
        columns[:, start:stop] = block
        ends.append(stop)

    counts = _simulate_shard(config, lo, hi, *tables, record)
    assert ends[-1] == hi
    assert np.all(columns[:, :lo] == SENTINEL) and np.all(columns[:, hi:] == SENTINEL)
    assert np.array_equal(counts, _bincount(columns[:, lo:hi]))
    # without a sink the shard counts the same trials
    assert np.array_equal(counts, _simulate_shard(config, lo, hi, *tables, None))
    return columns[:, lo:hi]


@pytest.mark.parametrize(
    "attack, weights",
    [
        (None, None),
        (AttackParams(f=0.9, lam=0.8), None),
        (AttackParams(f=1.0, lam=1.0), None),
        (AttackParams(f=0.5, lam=-0.5), None),
        (AttackParams(f=0.9, lam=0.8), ONLY_TEST),
    ],
    ids=["honest", "attack", "undisturbed", "lam-edge", "only-test"],
)
def test_blocked_shard_matches_reference(attack, weights, monkeypatch):
    config = SimConfig(trials=200, seed=31, attack=attack, setting_weights=weights)
    tables = _sampling_tables(config)
    # 7-trial blocks; shards that start and end inside a block, on its edges,
    # and span many blocks
    monkeypatch.setattr(tritkd.simulate, "_BLOCK_TRIALS", 7)
    for lo, hi in [(0, 1), (0, 7), (0, 200), (3, 5), (3, 20), (7, 14), (13, 101), (150, 200)]:
        got = _shard_columns(config, lo, hi, tables)
        expected = reference_shard(config, lo, hi, *tables)
        for column, ref in zip(got, expected):
            assert column.dtype == ref.dtype == np.int8
            assert np.array_equal(column, ref)


def test_thresholds_are_exact_at_the_boundary():
    # cumulative values that are and are not multiples of 2**-53, a subnormal,
    # values at and above 1 (cumsum rounding), zero
    cum = np.array(
        [0.0, 5e-324, 2.0**-53, 0.1, 1 / 3, np.nextafter(0.5, 0.0), 0.5, 1 - 2.0**-53, 1.0, 1.0 + 2.0**-52]
    )
    thresh = _thresholds(cum)
    # sorted, and capped where no draw reaches
    assert np.all(np.diff(thresh) >= 0) and thresh[-1] == thresh[-2] == 2**53
    for c, t in zip(cum, thresh):
        for k in (int(t) - 1, int(t)):
            if 0 <= k < 2**53:
                assert (k * 2.0**-53 >= c) == (k >= t)


_BUCKET = 1 << _GUIDE_SHIFT

# Thresholds of one 2**53 span of draws: zero, bucket edges and their
# neighbours below, anything up to the cap, and the cap itself.
_SPAN_THRESHOLD = st.one_of(
    st.just(0),
    st.integers(1, 1 << _GUIDE_BITS).map(lambda j: j * _BUCKET),
    st.integers(1, 1 << _GUIDE_BITS).map(lambda j: j * _BUCKET - 1),
    st.integers(0, 2**53),
    st.just(2**53),
)


@settings(deadline=None, max_examples=100, derandomize=True)
@given(
    # one span, as the setting thresholds, or nine offset by s << 53, as the
    # outcome thresholds; duplicates stand for zero-probability bins
    spans=st.lists(st.lists(_SPAN_THRESHOLD, min_size=1, max_size=8), min_size=1, max_size=1)
    | st.lists(st.lists(_SPAN_THRESHOLD, min_size=1, max_size=8), min_size=9, max_size=9),
    extra_keys=st.lists(st.integers(0, 9 * 2**53 - 1), max_size=20),
)
def test_guide_lookup_is_searchsorted(spans, extra_keys):
    # every span ends at the cap 2**53, as _thresholds makes it
    thresh = np.concatenate(
        [np.array(sorted(span) + [2**53], dtype=np.int64) + (s << 53) for s, span in enumerate(spans)]
    )
    n_buckets = len(spans) << _GUIDE_BITS
    guide = _guide_table(thresh, n_buckets)
    assert guide.dtype == np.int8 and guide.shape == (n_buckets,)

    # a threshold t splits its bucket exactly when keys t - 1 and t share it;
    # any other bucket holds the count of thresholds its keys reach
    edges = np.arange(n_buckets + 1, dtype=np.int64) * _BUCKET
    splitting = thresh[(thresh % _BUCKET != 0) & (thresh < edges[-1])]
    split = np.zeros(n_buckets, dtype=bool)
    split[splitting // _BUCKET] = True
    reached = (thresh[None, :] <= edges[:-1, None]).sum(axis=1)
    assert np.array_equal(guide, np.where(split, -1, reached))

    # keys at and next to every threshold and every bucket edge
    key = np.concatenate([thresh, edges, np.array(extra_keys, dtype=np.int64)])
    key = np.concatenate([key - 1, key, key + 1])
    key = key[(key >= 0) & (key < n_buckets * _BUCKET)]
    index = _lookup(guide, thresh, key)
    assert index.dtype == np.int8
    assert np.array_equal(index, np.searchsorted(thresh, key, side="right"))


def test_sampler_exact_when_draws_hit_thresholds(monkeypatch):
    # tables made of the run's own draws: every sampled index and the first
    # key round's guess sit on a tie, where a rounded comparison would move them
    config = SimConfig(trials=40, seed=6, attack=AttackParams(f=0.9, lam=0.8))
    u = Generator(Philox(key=config.seed)).random((config.trials, 4))
    cum_settings = np.append(np.sort(u[:8, 0]), 1.0)
    cum_tables = np.tile(np.append(np.sort(u[:8, 1]), 1.0), (9, 1))
    first_key = int(np.argmax(u[:8, 0]))
    r = u[first_key, 2]
    monkeypatch.setattr(tritkd.simulate, "_BLOCK_TRIALS", 7)
    # ties on r >= w, then on r >= (1 + w) / 2
    for w in (r, 2.0 * r - 1.0):
        assert 0.0 <= w <= 1.0 and r in (w, (1.0 + w) / 2.0)
        tables = (cum_settings, cum_tables, np.full(3, w))
        expected = reference_shard(config, 0, config.trials, *tables)
        assert expected[0][first_key] == 8 and expected[4][first_key] >= 0
        for lo, hi in [(0, 40), (2, 9), (5, 33)]:
            got = _shard_columns(config, lo, hi, tables)
            for column, ref in zip(got, expected):
                assert np.array_equal(column, ref[lo:hi])


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    trials=st.integers(1, 3000),
    seed=st.integers(0, 2**64 - 1),
    attack=st.sampled_from(
        [None, AttackParams(f=0.9, lam=0.8), AttackParams(f=1.0, lam=1.0), AttackParams(f=0.5, lam=-0.5)]
    ),
    # None is uniform; otherwise small integers normalised, zeros included
    parts=st.none() | st.lists(st.integers(0, 3), min_size=9, max_size=9).filter(any),
    workers=st.integers(1, 8),
    block=st.sampled_from([1, 7, 1 << 16]),
)
def test_count_table_is_the_summary(trials, seed, attack, parts, workers, block):
    weights = None if parts is None else tuple(x / sum(parts) for x in parts)
    config = SimConfig(trials=trials, seed=seed, attack=attack, setting_weights=weights)
    reference = run(config)
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.object(tritkd.simulate, "_BLOCK_TRIALS", block),
        # enough CPUs that each drawn worker count cuts its own shards
        mock.patch.object(tritkd.simulate.os, "cpu_count", lambda: 8),
    ):
        transcript = run(config, workers=workers)
        blob, written = _transcript_bytes(config, Path(tmp) / "transcript.tsv", workers)

    # the serial run's columns, replayed; the sharded run's, as written
    columns = reference.columns
    assert blob == _line_by_line_transcript(reference)
    newlines = np.flatnonzero(np.frombuffer(blob, dtype=np.uint8) == ord("\n"))
    assert np.array_equal(newlines[:-1] + 1, [_line_offset(i) for i in range(trials)])

    assert transcript.counts.shape == (9, 3, 3)
    assert np.array_equal(transcript.counts.ravel(), _bincount(columns))
    assert np.array_equal(written.counts, transcript.counts)
    assert summary_dict(config, transcript) == summary_dict(config, reference)
    assert summary_dict(config, written) == summary_dict(config, reference)

    s_ref, sigma_ref = reference_bell(*columns[:3])
    if s_ref is None:
        assert transcript.s_estimate is None and transcript.s_std_error is None
    else:
        # The same terms summed in another order differ by ulps of the terms,
        # not of the result: each pair mean lies within +-sqrt(3)/2 and each
        # variance term below 3 / (4 n).  So 1e-15 relative is taken of S but
        # at least of 1, and of the variance's bound, where S or the variance
        # cancels.
        n = np.bincount(columns[0], minlength=9)[[0, 1, 3, 4]]
        assert abs(transcript.s_estimate - s_ref) <= 1e-15 * max(abs(s_ref), 1.0)
        assert abs(transcript.s_std_error**2 - sigma_ref**2) <= 1e-15 * (0.75 / n).sum()
