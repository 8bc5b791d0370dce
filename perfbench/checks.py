"""Output checks for the benchmark's jobs.

Each check takes the job's spec (the inputs the benchmark generated) and its
outputs (stdout of each CLI call plus the files it wrote) and returns a list
of failure messages; an empty list means the job's outputs are correct.  The
checks read outputs only, so the smoke mode can feed them corrupted copies.
They import tritkd lazily, from the checkout's src/ that run.py puts on
sys.path.

The simulation checks compare against the paper's closed forms at the
configured attack (f, lam), with v = f*lam: S = 2(2 + sqrt 3)/3 * v, QBER =
2(1 - v)/3 and a sifted fraction of 1/9, each to within 5 standard errors.
"""

import json
import math
import random

import numpy as np

QUANTUM_BELL_VALUE = 2.0 * (2.0 + math.sqrt(3.0)) / 3.0  # 2.488034
CRITICAL_VISIBILITY = (6.0 * math.sqrt(3.0) - 9.0) / 2.0  # V0
CROSSOVER_V = 0.6629132985
CROSSOVER_ATOL = 1e-8
N_SIGMA = 5.0

# Column order documented for `tritkd sweep`.
CSV_COLUMNS = "f,lam,v,p0,p1,e_ab,e_eve,i_ab,i_ae,bell_violated,secure"
SPOT_ROWS = 20
# Reals are written at 9 significant digits; allow half a unit in the 9th
# digit plus rounding dust around zero.
CSV_RTOL = 1e-8
CSV_ATOL = 1e-15

# A transcript line ends in six one-character fields (settings, outcomes,
# eve subspace, eve guess), so each sits at a fixed offset before '\n'.
_TAIL_FIELDS = ("alice_setting", "bob_setting", "alice_outcome", "bob_outcome", "eve_subspace", "eve_guess")


def _within(name, observed, expected, stderr, failures):
    if not abs(observed - expected) <= N_SIGMA * stderr:
        failures.append(
            f"{name} = {observed!r} is not within {N_SIGMA:g} standard errors "
            f"({stderr:.3g}) of {expected!r}"
        )


def check_summary(spec: dict, summary: dict) -> list[str]:
    failures = []
    trials, v = spec["trials"], spec["f"] * spec["lam"]
    if summary.get("trials") != trials:
        failures.append(f"trials = {summary.get('trials')!r}, expected {trials}")
    if summary.get("aborted") is not False:
        failures.append(f"aborted = {summary.get('aborted')!r}, expected false")
    try:
        sifted = summary["sifted_length"]
        _within("sifted_length", sifted, trials / 9.0, math.sqrt(trials * 8.0 / 81.0), failures)
        _within("s_estimate", summary["s_estimate"], QUANTUM_BELL_VALUE * v, summary["s_std_error"], failures)
        qber = 2.0 * (1.0 - v) / 3.0
        _within("qber", summary["qber"], qber, math.sqrt(qber * (1.0 - qber) / max(sifted, 1)), failures)
    except (KeyError, TypeError) as exc:
        failures.append(f"summary lacks a usable field: {exc!r}")
    return failures


def transcript_columns(data: bytes) -> dict[str, np.ndarray] | str:
    """Per-trial one-character fields of a transcript, or a format error."""
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if ends.size == 0 or ends[-1] != raw.size - 1:
        return "transcript does not end in a newline"
    ends, prev = ends[1:], ends[:-1]  # skip the header line
    if ends.size and (ends - prev).min() < 13:
        return "transcript has a line shorter than seven fields"
    for k in range(6):
        if not np.all(raw[ends - 2 - 2 * k] == ord("\t")):
            return "transcript field separators are out of place"
    return {name: raw[ends - 11 + 2 * k] for k, name in enumerate(_TAIL_FIELDS)}


def check_transcript(spec: dict, data: bytes) -> list[str]:
    from tritkd.attack import SUBSPACE_PAIRS, AttackParams, eve_error

    failures = []
    lines = data.count(b"\n")
    if lines != spec["trials"] + 1:
        failures.append(f"transcript has {lines} lines, expected {spec['trials'] + 1}")
    cols = transcript_columns(data)
    if isinstance(cols, str):
        return failures + [cols]
    digit = {name: col.astype(np.int64) - ord("0") for name, col in cols.items()}
    key = (digit["alice_setting"] == 3) & (digit["bob_setting"] == 3)
    sub, guess, alice = digit["eve_subspace"][key], digit["eve_guess"][key], digit["alice_outcome"][key]
    if key.sum() == 0 or sub.min() < 0 or sub.max() > 2 or guess.min() < 0 or guess.max() > 2:
        return failures + ["key rounds lack eavesdropper fields in 0..2"]
    eve_symbol = np.array([[pair[0] for pair in pairs] for pairs in SUBSPACE_PAIRS])
    observed = float(np.mean(eve_symbol[sub, guess] != alice))
    expected = eve_error(AttackParams(f=spec["f"], lam=spec["lam"]))
    _within("eve error", observed, expected, math.sqrt(expected * (1.0 - expected) / key.sum()), failures)
    return failures


def check_sim(spec: dict, outputs: dict) -> list[str]:
    try:
        summary = json.loads(outputs["stdouts"][0])
    except ValueError as exc:
        return [f"simulate stdout is not JSON: {exc}"]
    failures = check_summary(spec, summary)
    if spec.get("out_dir") is not None:
        files = outputs["files"]
        try:
            written = json.loads(files.get("summary.json", b""))
        except ValueError:
            written = None
        if written != summary:
            failures.append("summary.json differs from the printed summary")
        failures += check_transcript(spec, files.get("transcript.tsv", b""))
    return failures


def _expected_row(f: float, lam: float) -> tuple:
    """CSV fields at one grid point from the closed forms, in the sweep's default base 3."""
    from tritkd.attack import AttackParams, ab_error, eve_error, mutual_info_ab, mutual_info_ae

    params = AttackParams(f=f, lam=lam)
    v = f * lam
    i_ab = mutual_info_ab(params)
    i_ae = mutual_info_ae(params)
    reals = (f, lam, v, (1.0 + 2.0 * v) / 3.0, (1.0 - v) / 3.0, ab_error(params), eve_error(params), i_ab, i_ae)
    return reals, (int(v >= CRITICAL_VISIBILITY - 1e-12), int(i_ab > i_ae))


def check_csv(spec: dict, text: str) -> list[str]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines or lines[0] != CSV_COLUMNS:
        return [f"CSV header is {lines[0] if lines else None!r}, expected {CSV_COLUMNS!r}"]
    rows = lines[1:]
    steps = spec["steps"]
    if len(rows) != steps * steps:
        return [f"CSV has {len(rows)} rows, expected {steps * steps}"]
    f_axis = np.linspace(spec["f_min"], 1.0, steps)
    lam_axis = np.linspace(-0.5, spec["lam_max"], steps)
    picks = random.Random(spec["seed"]).sample(range(len(rows)), min(SPOT_ROWS, len(rows)))
    failures = []
    for i in sorted({0, len(rows) - 1, *picks}):
        fields = rows[i].split(",")
        reals, flags = _expected_row(float(f_axis[i // steps]), float(lam_axis[i % steps]))
        try:
            got_reals = [float(x) for x in fields[:9]]
            got_flags = tuple(int(x) for x in fields[9:])
        except ValueError:
            failures.append(f"CSV row {i} does not parse: {rows[i]!r}")
            continue
        close = len(got_reals) == 9 and all(
            abs(g - e) <= CSV_RTOL * max(abs(g), abs(e)) + CSV_ATOL for g, e in zip(got_reals, reals)
        )
        if not close or got_flags != flags:
            failures.append(f"CSV row {i} {rows[i]!r} disagrees with the closed forms {reals + flags}")
    return failures


def check_crossover(text: str) -> list[str]:
    try:
        v_max = float(json.loads(text)["v_max"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"crossover output has no v_max: {exc!r}"]
    failures = []
    if not abs(v_max - CROSSOVER_V) <= CROSSOVER_ATOL:
        failures.append(f"v_max = {v_max!r} is not within {CROSSOVER_ATOL:g} of {CROSSOVER_V}")
    if not v_max < CRITICAL_VISIBILITY:
        failures.append(f"v_max = {v_max!r} is not below V0 = {CRITICAL_VISIBILITY!r}")
    return failures


def check_attack(spec: dict, outputs: dict) -> list[str]:
    csv_text = outputs["files"].get("sweep.csv", b"").decode("ascii", errors="replace")
    return check_csv(spec, csv_text) + check_crossover(outputs["stdouts"][1])
