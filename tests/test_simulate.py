"""Tests for the Monte Carlo protocol engine."""

import hashlib
import itertools
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
from explicit import _SLOT_OF_FLAT, correlation_q, reduced_density
from oracles import (
    code_columns,
    feasible_grid,
    joint_probs_rho,
    read_transcript,
    reference_bell,
    reference_shard,
    sifted_keys,
)
from tritkd.attack import (
    SUBSPACE_PAIRS,
    AttackParams,
    ab_error,
    eve_error,
    subspace_analysis,
    transformed_tripartite,
)
from tritkd.correlations import LOCAL_REALISM_BOUND, QUANTUM_BELL_VALUE, bell_from_counts, bell_s, joint_probs
from tritkd.quantum import max_entangled_state, standard_settings
from tritkd.simulate import (
    _GROUP_OF_FLAT,
    _GUIDE_BITS,
    _GUIDE_SHIFT,
    _discard,
    _eve_codes,
    _guide_table,
    _line_offset,
    _lookup,
    _outcome_tables,
    _sampling_tables,
    _simulate_shard,
    _thresholds,
    _write_lines,
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
        np.array_equal(a.counts, b.counts)
        and a.s_estimate == b.s_estimate
        and a.s_std_error == b.s_std_error
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


def test_setting_weights_stored_as_float_tuple():
    # array weights made == raise "truth value ... is ambiguous", list weights never equaled a tuple
    w = [0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
    configs = [SimConfig(trials=10, seed=1, setting_weights=x) for x in (w, tuple(w), np.array(w))]
    for config in configs:
        assert config.setting_weights == tuple(w)
        assert all(type(x) is float for x in config.setting_weights)
        assert config == configs[0]
        assert hash(config) == hash(configs[0])
    assert configs[0] != SimConfig(trials=10, seed=1)


def _transcript_bytes(config, path, workers):
    """(transcript.tsv bytes, returned transcript) of write_transcript."""
    transcript = write_transcript(config, path, workers=workers)
    return path.read_bytes(), transcript


def _read_written(config, tmp_path):
    """(returned transcript, columns read back from transcript.tsv) of a serial write_transcript."""
    path = tmp_path / "transcript.tsv"
    transcript = write_transcript(config, path)
    return transcript, read_transcript(path)


def test_same_seed_same_transcript(tmp_path):
    config = SimConfig(trials=5000, seed=123, attack=AttackParams(f=0.9, lam=0.8))
    assert _transcripts_equal(run(config), run(config))
    first, _ = _transcript_bytes(config, tmp_path / "first.tsv", 1)
    second, _ = _transcript_bytes(config, tmp_path / "second.tsv", 1)
    assert first == second


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
    assert _transcripts_equal(serial, bounded)
    assert blob == serial_bytes
    assert _transcripts_equal(serial, written)


def test_failing_shard_is_raised_after_every_shard_stops(monkeypatch, tmp_path):
    # one shard of a two-worker transcript raises at once: the caller gets that exception only
    # after the other shard has written all of its blocks, and then no transcript is left
    failure = RuntimeError("shard failed")
    finished = []
    shard = tritkd.simulate._simulate_shard

    def second_shard_fails(config, lo, hi, *rest):
        if lo > 0:
            raise failure
        counts = shard(config, lo, hi, *rest)
        finished.append((lo, hi))
        return counts

    monkeypatch.setattr(tritkd.simulate.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(tritkd.simulate, "_simulate_shard", second_shard_fails)
    path = tmp_path / "transcript.tsv"
    with pytest.raises(RuntimeError) as caught:
        write_transcript(SimConfig(trials=400_000, seed=3), path, workers=2)
    assert caught.value is failure
    assert finished == [(0, 200_000)]
    assert list(tmp_path.iterdir()) == []


def test_failed_write_transcript_keeps_the_earlier_file(monkeypatch, tmp_path):
    # the lines go to a temporary file beside path, discarded when the run fails
    path = tmp_path / "transcript.tsv"
    path.write_bytes(b"earlier run\n")

    def fail(*args):
        raise OSError("x")

    monkeypatch.setattr(tritkd.simulate, "_run", fail)
    with pytest.raises(OSError, match="x"):
        write_transcript(SimConfig(trials=10, seed=1), path)
    assert path.read_bytes() == b"earlier run\n"
    assert list(tmp_path.iterdir()) == [path]


def test_failed_write_transcript_keeps_a_symlink_at_path(monkeypatch, tmp_path):
    # the header went through the link into its target; neither the link nor the target goes
    target, link = tmp_path / "target.tsv", tmp_path / "transcript.tsv"
    target.touch()
    link.symlink_to(target)

    def fail(*args):
        raise OSError("x")

    monkeypatch.setattr(tritkd.simulate, "_run", fail)
    with pytest.raises(OSError, match="x"):
        write_transcript(SimConfig(trials=10, seed=1), link)
    assert link.is_symlink()
    assert target.read_bytes() == TRANSCRIPT_HEADER


@pytest.mark.parametrize("kind, removed", [
    ("file", True), ("symlink", False), ("fifo", False), ("directory", False), ("missing", False),
])
def test_discard_removes_only_a_regular_file(tmp_path, kind, removed):
    target, path = tmp_path / "target", tmp_path / "out"
    target.touch()
    make = {
        "file": Path.touch,
        "symlink": lambda p: p.symlink_to(target),
        "fifo": os.mkfifo,
        "directory": Path.mkdir,
        "missing": lambda p: None,
    }
    make[kind](path)
    _discard(path)
    assert os.path.lexists(path) == (kind != "missing" and not removed)
    assert target.is_file()


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


def test_honest_run_statistics(tmp_path):
    config = SimConfig(trials=100_000, seed=2024)
    transcript, columns = _read_written(config, tmp_path)
    assert transcript.qber == 0.0
    alice_key, bob_key, eve_key = sifted_keys(columns)
    assert alice_key == bob_key
    assert eve_key is None
    assert not transcript.aborted
    assert abs(transcript.s_estimate - QUANTUM_BELL_VALUE) < 3 * transcript.s_std_error + 0.02

    # empirical tables converge to the exact ones for every settings pair
    alice, bob = standard_settings()
    psi = max_entangled_state()
    bound = 5.0 / np.sqrt(config.trials)
    for m in range(3):
        for n in range(3):
            counts = transcript.counts[3 * m + n]
            freq = counts / counts.sum()
            expected = joint_probs(psi, alice[m], bob[n])
            assert 0.5 * np.abs(freq - expected).sum() < bound


def test_group_assignment_exact(tmp_path):
    config = SimConfig(trials=3000, seed=5, attack=AttackParams(f=0.8, lam=0.9))
    transcript, columns = _read_written(config, tmp_path)
    setting_idx, _, _, eve_sub, eve_guess = columns
    key_rounds = setting_idx == 8
    alice_key, bob_key, eve_key = sifted_keys(columns)
    assert alice_key == transcript.sifted_key_alice
    assert len(alice_key) == len(bob_key) == len(eve_key) == int(key_rounds.sum())
    # eve fields exist exactly on the key rounds
    assert np.array_equal(eve_sub >= 0, key_rounds)
    assert np.array_equal(eve_guess >= 0, key_rounds)


def test_attack_statistics_match_theory(tmp_path):
    params = AttackParams(f=0.9, lam=0.8)
    config = SimConfig(trials=100_000, seed=1, attack=params)
    transcript, columns = _read_written(config, tmp_path)
    alice_key, _, eve_key = sifted_keys(columns)
    assert alice_key == transcript.sifted_key_alice

    n_sift = len(alice_key)
    e_ab = ab_error(params)
    sigma = np.sqrt(e_ab * (1 - e_ab) / n_sift)
    assert abs(transcript.qber - e_ab) < 3 * sigma

    # eve's subspace frequencies follow the projection probabilities
    sub = subspace_analysis(params)
    subspaces = columns[3][columns[3] >= 0]
    for grp in range(3):
        p = sub.p[grp]
        freq = np.mean(subspaces == grp)
        assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / n_sift)

    # eve's key agrees with alice's at rate 1 - eve_error
    alice = np.frombuffer(alice_key.encode(), dtype=np.uint8)
    eve = np.frombuffer(eve_key.encode(), dtype=np.uint8)
    match = np.mean(alice == eve)
    expected = 1.0 - eve_error(params)
    assert abs(match - expected) < 3 * np.sqrt(expected * (1 - expected) / n_sift)

    # bell estimate scales with the visibility
    assert abs(transcript.s_estimate - 0.72 * QUANTUM_BELL_VALUE) < 3 * transcript.s_std_error
    assert not transcript.aborted


def test_undisturbed_attack_is_invisible_but_uninformative(tmp_path):
    config = SimConfig(trials=40_000, seed=77, attack=AttackParams(f=1.0, lam=1.0))
    transcript, columns = _read_written(config, tmp_path)
    assert transcript.qber == 0.0
    assert not transcript.aborted
    alice_key, _, eve_key = sifted_keys(columns)
    assert alice_key == transcript.sifted_key_alice
    alice = np.frombuffer(alice_key.encode(), dtype=np.uint8)
    eve = np.frombuffer(eve_key.encode(), dtype=np.uint8)
    match = np.mean(alice == eve)
    n = len(alice)
    assert abs(match - 1 / 3) < 3 * np.sqrt((1 / 3) * (2 / 3) / n)


# SHA-256 of run(config, workers=2).counts.tobytes() for attacked 2e6-trial
# runs at (f, lam, seed), on the domain corners and inside it; a change to the
# outcome tables that moves any trial's cell breaks them.
GOLDEN_ATTACK_COUNTS = {
    (1.0, -0.5, 3): "83871387a76e4b862aefa61e590e65c4780f5736cb96913fc86d047dab7b6bb5",
    (1.0, 1.0, 7): "1dcf580f4f86b38174ec2d2480cad698b26b02ea35105d76e67a91c8e64a4b4a",
    (0.9, 0.8, 42): "0cb7f71daa60dc1aa1694e2ddebc35b8af2215d278a6153e8e836a3a95422675",
    (0.5, -0.2, 13): "3d49afb874bcfae71735e86e6ae11a87c3dd56f347c747f2f1337c3557b7c7ed",
}


@pytest.mark.parametrize("f, lam, seed", sorted(GOLDEN_ATTACK_COUNTS))
def test_attacked_count_tables_reproducible(f, lam, seed):
    config = SimConfig(trials=2_000_000, seed=seed, attack=AttackParams(f=f, lam=lam))
    counts = run(config, workers=2).counts
    assert hashlib.sha256(counts.tobytes()).hexdigest() == GOLDEN_ATTACK_COUNTS[f, lam, seed]


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
    assert transcript.sifted_length == 500

    only_test = (0.25, 0.25, 0.0, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0)
    transcript = run(SimConfig(trials=500, seed=11, setting_weights=only_test))
    assert transcript.sifted_length == 0
    assert transcript.qber is None
    assert transcript.s_estimate is not None


def test_extract_key_remaps():
    # on a strictly correlated round Bob's outcome b names Alice's symbol
    a, b = np.transpose(SUBSPACE_PAIRS[0])
    absent = np.full(3, -1)
    assert sifted_keys([np.full(3, 8), a, b, absent, absent]) == ("012", "012", None)
    # guesses name pairs (1,2), (1,1), (0,1): alice symbols 1, 1, 0
    assert (SUBSPACE_PAIRS[0][1], SUBSPACE_PAIRS[1][0], SUBSPACE_PAIRS[2][2]) == ((1, 2), (1, 1), (0, 1))
    sub, guess = [0, 1, 2], [1, 0, 2]
    assert sifted_keys([np.full(3, 8), np.zeros(3, int), np.zeros(3, int), sub, guess])[2] == "110"


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


def test_honest_tables_are_the_pair_source_bit_for_bit():
    alice, bob = standard_settings()
    tables = [joint_probs(max_entangled_state(), pa, pb).ravel() for pa in alice for pb in bob]
    assert _outcome_tables(SimConfig(trials=1, seed=0)).tobytes() == np.array(tables).tobytes()


def test_attacked_tables_match_the_explicit_state():
    # v * honest + (1 - v)/9 against the 81-vector summed over the ancilla and
    # against the reduced density matrix, for every setting pair
    alice, bob = standard_settings()
    fs, lams = feasible_grid()
    points = [(f, lam) for f in fs for lam in lams] + [(0.0, -0.5), (0.0, 1.0), (1.0, -0.5), (1.0, 1.0)]
    tables, summed, traced = [], [], []
    for f, lam in points:
        params = AttackParams(f=f, lam=lam)
        tables.append(_outcome_tables(SimConfig(trials=1, seed=0, attack=params)))
        rho = reduced_density(params)
        for pa, pb in itertools.product(alice, bob):
            psi = transformed_tripartite(params, pa, pb).reshape(9, 9)
            summed.append((np.abs(psi) ** 2).sum(axis=1))
            traced.append(joint_probs_rho(rho, pa, pb).ravel())
    tables = np.reshape(tables, (-1, 9))
    np.testing.assert_allclose(tables, summed, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(tables, traced, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("f, lam", [(1.0, -0.5), (1.0, 1.0), (0.0, 0.3), (0.5, -0.2)])
def test_sampler_invariants_at_domain_edges(f, lam):
    config = SimConfig(trials=200_000, seed=3, attack=AttackParams(f=f, lam=lam))
    tables = _outcome_tables(config)
    assert tables.min() >= 0.0
    assert np.abs(tables.sum(axis=1) - 1.0).max() <= 1e-15
    # the guide table and searchsorted need sorted thresholds within the draw range
    thresh = _thresholds(_sampling_tables(config)[1])
    assert np.all(np.diff(thresh, axis=1) >= 0)
    assert thresh.min() >= 0 and thresh.max() <= 2**53
    # a cell of probability 0 is never counted, nor at v = -1/2 (p0 = 0) a correct-key pair
    counts = run(config).counts.reshape(9, 9)
    assert not counts[tables == 0.0].any()
    if f * lam == -0.5:
        assert not counts[8, _GROUP_OF_FLAT == 0].any()


def test_abort_decision_rule():
    assert abort_decision(2.488, 0.01) == (False, abort_decision(2.488, 0.01)[1])
    aborted, reason = abort_decision(1.0, 0.01)
    assert aborted and "below threshold" in reason
    # the rule is one-sided on the lower bound: 1.74 - 3 * 0.005 < sqrt(3)
    aborted, reason = abort_decision(1.74, 0.005)
    assert aborted and "below threshold" in reason
    assert not abort_decision(1.76, 0.005)[0]
    assert not abort_decision(LOCAL_REALISM_BOUND, 0.0)[0]  # sqrt(3) itself meets the threshold
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
    reference = reference_shard(config, 0, config.trials, *_sampling_tables(config))
    assert first[1] == str(reference[0][0] // 3 + 1)

    import json

    summary = json.loads(s_path.read_text())
    assert summary["qber"] == transcript.qber
    assert summary["sifted_length"] == len(sifted_keys(read_transcript(t_path))[0])
    assert summary == summary_dict(config, transcript)

    # rewriting is byte-identical
    blob = t_path.read_bytes()
    write_transcript(config, t_path)
    assert t_path.read_bytes() == blob


def _line_by_line_transcript(columns) -> bytes:
    """The transcript format of (5, trials) columns, one f-string per trial."""
    lines = ["# trial\talice_setting\tbob_setting\talice_outcome\tbob_outcome\teve_subspace\teve_guess"]
    for i, (pair, a, b, sub, guess) in enumerate(np.transpose(columns).tolist()):
        lines.append(
            f"{i}\t{pair // 3 + 1}\t{pair % 3 + 1}\t{a}\t{b}"
            f"\t{sub if sub >= 0 else '-'}\t{guess if guess >= 0 else '-'}"
        )
    return ("\n".join(lines) + "\n").encode("ascii")


@pytest.mark.parametrize("trials", [1, 9, 10, 11, 999, 1000, 1001])
@pytest.mark.parametrize("attack", [None, AttackParams(f=0.9, lam=0.8)], ids=["honest", "attack"])
def test_transcript_bytes_match_line_reference(trials, attack, tmp_path, monkeypatch):
    config = SimConfig(trials=trials, seed=13, attack=attack)
    expected = _line_by_line_transcript(reference_shard(config, 0, trials, *_sampling_tables(config)))
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


@pytest.mark.parametrize("trials", [1, 10, 11, 10**5, 10**5 + 1])
def test_transcript_bytes_at_buffer_sizing_edges(trials, tmp_path):
    # each shard's buffers hold min(trials, _BLOCK_TRIALS) lines as wide as the last trial's:
    # counts where that is one line, where every line is that wide, where only the last line
    # is, and where full blocks of narrower lines come before it
    config = SimConfig(trials=trials, seed=5, attack=AttackParams(f=0.9, lam=0.8))
    expected = _line_by_line_transcript(reference_shard(config, 0, trials, *_sampling_tables(config)))
    path = tmp_path / "transcript.tsv"
    for workers in (1, 2):
        write_transcript(config, path, workers=workers)
        assert path.read_bytes() == expected


@pytest.mark.parametrize("trials", [1, 9, 10, 10_001, 30_000])
@pytest.mark.parametrize(
    "attack", [None, AttackParams(f=0.9, lam=0.8), AttackParams(f=0.5, lam=-0.5)], ids=["honest", "attack", "lam-edge"]
)
def test_transcript_reader_matches_reference(trials, attack, tmp_path):
    # the per-trial record the file holds is the one-pass reference sampler's, on two workers
    config = SimConfig(trials=trials, seed=21, attack=attack)
    path = tmp_path / "transcript.tsv"
    write_transcript(config, path, workers=2)
    columns = read_transcript(path)
    assert columns.dtype == np.int8 and columns.shape == (5, trials)
    assert np.array_equal(columns, reference_shard(config, 0, trials, *_sampling_tables(config)))


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


def _reference_lines(start, cell, eve) -> bytes:
    """Lines start, start + 1, ... of (cell, eve), one f-string per trial."""
    lines = []
    for i, (c, e) in enumerate(zip(cell.tolist(), eve.tolist()), start):
        pair, outcome = divmod(c, 9)
        eve_fields = "\t".join(map(str, divmod(e - 1, 3))) if e else "-\t-"
        lines.append(f"{i}\t{pair // 3 + 1}\t{pair % 3 + 1}\t{outcome // 3}\t{outcome % 3}\t{eve_fields}\n")
    return "".join(lines).encode("ascii")


def _written_lines(start, cell, eve, monkeypatch, buffers=None) -> bytes:
    """_write_lines's bytes for a block, formatted in buffers or else in buffers sized for
    the block, and taken from os.pwrite calls that write at most 4099 bytes each, after
    checking they write from the line buffer and continue each other from the block's line
    offset (far beyond any file size for the largest indices)."""
    if buffers is None:
        n = len(cell)
        buffers = np.empty(n * (len(str(start)) + 13), np.uint8), np.empty(n, np.intp), np.empty(n, "<u8")
    writes = []

    def short_pwrite(fd, data, offset):
        assert np.shares_memory(np.frombuffer(data, np.uint8), buffers[0])
        writes.append((offset, bytes(data[:4099])))
        return len(writes[-1][1])

    monkeypatch.setattr(tritkd.simulate.os, "pwrite", short_pwrite)
    _write_lines(-1, start, cell, eve, buffers)
    offsets = itertools.accumulate((len(data) for _, data in writes[:-1]), initial=_line_offset(start))
    assert [offset for offset, _ in writes] == list(offsets)
    return b"".join(data for _, data in writes)


def _block_codes(rng, n, attack):
    """Random int8 cells, and Eve codes 1 + 3 * subspace + guess on key rounds
    (cells 72 to 80) when attacked, 0 elsewhere."""
    cell = rng.integers(0, 81, n).astype(np.int8)
    eve = np.where(attack & (cell >= 72), rng.integers(1, 10, n), 0).astype(np.int8)
    return cell, eve


@pytest.mark.parametrize(
    "start, n",
    # one and more digits, ends at a power of ten, and blocks that cross
    # multiples of 10**4 with 9, 18 and 19 digits
    [(0, 10), (9, 1), (9995, 5), (99_990, 10), (10**6 - 3, 3), (123_456_789, 25_000),
     (10**18 - 2, 2), (2**63 - 70_000, 65_536)],
)
@pytest.mark.parametrize("attack", [False, True], ids=["honest", "attack"])
def test_write_lines_match_line_reference(start, n, attack, monkeypatch):
    assert n <= 10 ** len(str(start)) - start
    cell, eve = _block_codes(np.random.default_rng(start % 2**32), n, attack)
    assert _written_lines(start, cell, eve, monkeypatch) == _reference_lines(start, cell, eve)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    start=st.integers(0, 2**63 - 2) | st.integers(0, 10**6),
    n=st.integers(1, 25_000),
    attack=st.booleans(),
)
def test_write_lines_any_block(start, n, attack):
    # the block is cut where a run's blocks end: at a power of ten or at 2**63 - 1
    n = min(n, 10 ** len(str(start)) - start, 2**63 - 1 - start)
    cell, eve = _block_codes(np.random.default_rng(n), n, attack)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert _written_lines(start, cell, eve, monkeypatch) == _reference_lines(start, cell, eve)


def test_fixed_buffers_leave_no_stale_bytes(monkeypatch):
    # one shard's buffers, made once for its longest block of its widest lines, through blocks
    # whose lines narrow, widen across powers of ten and shorten, the buffers overwritten with
    # 0xff bytes after each block: every block gives the reference lines
    blocks = [(123_456, 16_384), (5, 5), (99_990, 10), (10**7, 16_384), (10**18 - 3, 3), (42, 7)]
    size = max(n for _, n in blocks)
    buffers = np.empty(size * (19 + 13), np.uint8), np.empty(size, np.intp), np.empty(size, "<u8")
    for k, (start, n) in enumerate(blocks):
        cell, eve = _block_codes(np.random.default_rng(k), n, attack=k % 2 == 0)
        assert _written_lines(start, cell, eve, monkeypatch, buffers) == _reference_lines(start, cell, eve)
        for array in buffers:
            array.view(np.uint8)[:] = 0xFF


def _traced_peak(call, trials):
    """tracemalloc's peak over call(config) at the given trial count."""
    tracemalloc.start()
    try:
        call(SimConfig(trials=trials, seed=3, attack=AttackParams(f=0.95, lam=0.9)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_trials():
    # no per-trial array: the traced peak is the same at 2**17 and 2**21 trials
    _traced_peak(run, 1 << 10)  # one-time set-up outside the comparison
    assert abs(_traced_peak(run, 1 << 21) - _traced_peak(run, 1 << 17)) <= 1 << 20


def test_write_transcript_memory_does_not_grow_with_trials(tmp_path):
    # the writer formats and writes block by block: the same bound as run's
    def write(config):
        write_transcript(config, tmp_path / "transcript.tsv")

    _traced_peak(write, 1 << 10)
    assert abs(_traced_peak(write, 1 << 21) - _traced_peak(write, 1 << 17)) <= 1 << 20


# Absolute per-block peaks at 2**17 trials, measured at 0.89 MiB for run and 1.44 MiB for
# write_transcript, plus a margin of about 1.1 MiB.  Blocks of 2**16 trials instead of 2**14
# would add 1.5 MiB of Philox words alone; an 8-byte-per-trial temporary alive at the peak
# adds 0.125 MiB.
@pytest.mark.parametrize("call, bound_mib", [("run", 2.0), ("write_transcript", 2.5)], ids=["run", "write_transcript"])
def test_block_memory_stays_within_measured_peak(call, bound_mib, tmp_path):
    if call == "run":
        target = run
    else:
        def target(config):
            write_transcript(config, tmp_path / "transcript.tsv")

    _traced_peak(target, 1 << 10)  # one-time set-up outside the measurement
    assert _traced_peak(target, 1 << 17) <= bound_mib * 2**20


ONLY_TEST = (0.25, 0.25, 0.0, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0)
# Every cumulative weight on a guide-bucket edge (a multiple of 2**-12), so no
# setting bucket is split, and four pairs of weight 0.
DYADIC = (0.5, 0.25, 0.125, 0.0625, 0.0625, 0.0, 0.0, 0.0, 0.0)

# Neither -1 nor a trit, so a shard that leaves any value of its slice to the
# caller, or writes outside it, shows.
SENTINEL = 77


def _bincount(columns):
    """Counts of 9 * setting pair + 3 * a + b over the trials of the columns."""
    setting_idx, a, b = columns[:3].astype(np.int64)
    return np.bincount(9 * setting_idx + 3 * a + b, minlength=81)


def _shard_columns(config, lo, hi, tables):
    """Run one shard, recording its blocks' cells and Eve codes, decoded, into
    sentinel-filled columns; return its slice of them."""
    columns = np.full((5, config.trials), SENTINEL, dtype=np.int8)
    ends = [lo]

    def record(start, cell, eve):
        assert cell.dtype == eve.dtype == np.int8 and cell.ndim == 1 and eve.shape == cell.shape
        stop = start + len(cell)
        # blocks are consecutive, at most _BLOCK_TRIALS long, and never
        # straddle a power of ten
        assert start == ends[-1] and start < stop <= hi
        assert stop - start <= tritkd.simulate._BLOCK_TRIALS and stop <= 10 ** len(str(start))
        columns[:, start:stop] = code_columns(cell, eve)
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
        (AttackParams(f=0.9, lam=0.8), DYADIC),
    ],
    ids=["honest", "attack", "undisturbed", "lam-edge", "only-test", "dyadic"],
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
    # into buffers that hold stale values, as a shard's reused ones do
    out = np.full(len(key), 99, dtype=np.int8)
    index = _lookup(guide, thresh, key, np.full(len(key), -5, dtype=np.int64), out)
    assert index is out
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


def test_sampler_exact_when_draws_sit_on_bucket_edges(monkeypatch):
    # dyadic tables whose thresholds are the guide-bucket edges just below the
    # run's own draws: those draws land in unsplit buckets that start on a
    # threshold, which random draws on a dyadic table almost never reach
    config = SimConfig(trials=40, seed=6, attack=AttackParams(f=0.9, lam=0.8))
    u = Generator(Philox(key=config.seed)).random((config.trials, 4))
    edges = np.floor(u[:8, :2] * (1 << _GUIDE_BITS)) / (1 << _GUIDE_BITS)
    cum_settings = np.append(np.sort(edges[:, 0]), 1.0)
    cum_tables = np.tile(np.append(np.sort(edges[:, 1]), 1.0), (9, 1))
    tables = (cum_settings, cum_tables, np.full(3, 0.5))
    assert not (_guide_table(_thresholds(cum_settings), 1 << _GUIDE_BITS) < 0).any()
    monkeypatch.setattr(tritkd.simulate, "_BLOCK_TRIALS", 7)
    expected = reference_shard(config, 0, config.trials, *tables)
    for lo, hi in [(0, 40), (2, 9), (5, 33)]:
        for column, ref in zip(_shard_columns(config, lo, hi, tables), expected):
            assert np.array_equal(column, ref[lo:hi])


def test_eve_codes_at_threshold_edges():
    # Philox words whose word-2 draw sits on each of Eve's two thresholds, and one below, for
    # every outcome of a key round; a distinct w per group shows a group mixed up
    w = np.array([0.3, 0.6, 0.9])
    thresh = _thresholds(np.stack([w, (1.0 + w) / 2.0]))
    flat = np.repeat(np.arange(9), 4)
    k = thresh[np.tile([0, 0, 1, 1], 9), _GROUP_OF_FLAT[flat]] - np.tile([1, 0, 1, 0], 9)
    raw = np.zeros((2 * len(k), 4), dtype=np.uint64)
    # the low 11 bits are not part of the draw; non-key rounds with the same words get no code
    raw[:, 2] = np.tile(k.astype(np.uint64) << np.uint64(11) | np.uint64(0x7FF), 2)
    cell = np.concatenate([72 + flat, 9 * (np.arange(len(k)) % 8) + flat]).astype(np.int8)
    # into a buffer of stale codes, as a shard's reused one holds: non-key rounds are reset to 0
    stale = np.full(len(cell), 7, dtype=np.int8)
    eve = _eve_codes(raw, cell, thresh[:, _GROUP_OF_FLAT], stale)
    assert eve is stale

    # the rule in floats, on u = k * 2**-53: r < w keeps the slot, r < (1+w)/2 moves one pair on, else two
    group, u, w_of = _GROUP_OF_FLAT[flat], k * 2.0**-53, w[_GROUP_OF_FLAT[flat]]
    step = np.where(u < w_of, 0, np.where(u < (1.0 + w_of) / 2.0, 1, 2))
    assert np.array_equal(step, np.tile([0, 1, 1, 2], 9))  # each edge is hit from both sides
    assert eve.dtype == np.int8
    assert np.array_equal(eve[: len(k)], 1 + 3 * group + (_SLOT_OF_FLAT[flat] + step) % 3)
    assert not eve[len(k) :].any()


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
    block=st.sampled_from([1, 7, 1 << 14, 1 << 16]),
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

    # the one-pass reference sampler's columns; the sharded run's, as written
    columns = np.stack(reference_shard(config, 0, trials, *_sampling_tables(config)))
    assert blob == _line_by_line_transcript(columns)
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
