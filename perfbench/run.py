"""Benchmark of the `tritkd` CLI, run the way a researcher runs it.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1
    python3 perfbench/run.py --smoke

Run from a checkout of the repository; the program is imported from its
`src/` directory, nothing needs building.  Every job runs in fresh child
processes (perfbench/child.py), one at a time.  The seed makes the job's CLI
arguments; the program sees only those.  After one untimed import of the
program (the warm-up) the benchmark repeats the job for S seconds (by default
run_seconds of BENCHMARK.json), checks every job's outputs (checks.py) and
prints one metric per line, then one JSON result line.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, as medians over
jobs.  --trace 1 alternates untraced and traced jobs (spans.py wraps the
library's public functions in the child) and reports the per-layer metrics,
including the tracing overhead.  --smoke runs every workload at tiny sizes,
asserts that every declared metric is produced with its unit and that the
checks reject corrupted outputs.  It is not part of the repository's tests.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_attack, check_sim

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
PROCESS_TIMEOUT_S = 100


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --------------------------------------------------------------------------
# Workloads: each turns (seed, job directory, size) into CLI calls plus the
# facts its output checks need.

def sim_transcript(seed: int, job_dir: Path, smoke: bool) -> dict:
    trials = 100_000 if smoke else 1_000_000
    out_dir = job_dir / "run"
    return {
        "trials": trials, "f": 0.9, "lam": 0.8, "out_dir": str(out_dir), "seed": seed,
        "argvs": [[
            "simulate", "--trials", str(trials), "--seed", str(seed), "--f", "0.9", "--lam", "0.8",
            "--workers", "1", "--out", str(out_dir),
        ]],
        "files": {"transcript.tsv": out_dir / "transcript.tsv", "summary.json": out_dir / "summary.json"},
    }


def sim_bulk(seed: int, job_dir: Path, smoke: bool) -> dict:
    trials = 10_000 if smoke else 8_000_000
    return {
        "trials": trials, "f": 0.95, "lam": 0.9, "out_dir": None, "seed": seed,
        "argvs": [[
            "simulate", "--trials", str(trials), "--seed", str(seed), "--f", "0.95", "--lam", "0.9",
            "--workers", "2",
        ]],
        "files": {},
    }


def attack_analysis(seed: int, job_dir: Path, smoke: bool) -> dict:
    rng = random.Random(seed)
    f_min = rng.uniform(0.0, 0.01)
    lam_max = rng.uniform(0.99, 1.0)
    log_base = rng.choice([2.0, math.e, 3.0])
    steps = 5 if smoke else 100
    csv_path = job_dir / "sweep.csv"
    return {
        "steps": steps, "f_min": f_min, "lam_max": lam_max, "log_base": log_base, "seed": seed,
        "argvs": [
            ["sweep", "--f-min", repr(f_min), "--lam-max", repr(lam_max), "--steps", str(steps),
             "--out", str(csv_path)],
            ["crossover", "--tolerance", "1e-10", "--log-base", repr(log_base)],
        ],
        "files": {"sweep.csv": csv_path},
    }


WORKLOADS = {
    "sim-transcript": (sim_transcript, check_sim),
    "sim-bulk": (sim_bulk, check_sim),
    "attack-analysis": (attack_analysis, check_attack),
}


# --------------------------------------------------------------------------
# Jobs

def _child_env() -> dict:
    """The caller's environment, importing tritkd from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Bytecode caching on, as for a user: setup_s must not depend on the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_process(argv: list[str], trace: bool, job_dir: Path, index: int) -> dict:
    record_path = job_dir / f"p{index}.record.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(record_path), "1" if trace else "0", "--", *argv]
    with open(job_dir / f"p{index}.out", "wb") as out, open(job_dir / f"p{index}.err", "wb") as err:
        t_spawn = _now()
        # A session of its own, so that a kill also reaches its pool workers.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=out, stderr=err, start_new_session=True)
        try:
            code = proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        t_exit = _now()
    result = {
        "argv": argv, "exit_code": code, "job_s": t_exit - t_spawn,
        "stdout": (job_dir / f"p{index}.out").read_text(encoding="utf-8", errors="replace"),
        "stderr": (job_dir / f"p{index}.err").read_text(encoding="utf-8", errors="replace"),
        "record": None,
    }
    if record_path.is_file():
        record = json.loads(record_path.read_text(encoding="utf-8"))
        record["setup_s"] = record["t_import"] - t_spawn
        record["work_s"] = record["t_done"] - record["t_main"]
        result["record"] = record
    return result


def _process_failures(proc: dict) -> list[str]:
    cmd = proc["argv"][0]
    if proc["exit_code"] is None:
        return [f"{cmd}: killed after {PROCESS_TIMEOUT_S} s"]
    if proc["exit_code"] != 0 or proc["record"] is None:
        return [f"{cmd}: exit code {proc['exit_code']}: {proc['stderr'][-500:]!r}"]
    if not Path(proc["record"]["module_file"]).resolve().is_relative_to(SRC.resolve()):
        return [f"{cmd}: imported tritkd from {proc['record']['module_file']}, not from {SRC}"]
    return []


def run_job(workload: str, seed: int, trace: bool, smoke: bool = False, keep_outputs: bool = False) -> dict:
    make_spec, check = WORKLOADS[workload]
    job_dir = WORK / workload
    shutil.rmtree(job_dir, ignore_errors=True)
    job_dir.mkdir(parents=True)
    spec = make_spec(seed, job_dir, smoke)

    procs = [run_process(argv, trace, job_dir, i) for i, argv in enumerate(spec["argvs"])]
    failures = [msg for p in procs for msg in _process_failures(p)]
    outputs = {
        "stdouts": [p["stdout"] for p in procs],
        "files": {name: path.read_bytes() for name, path in spec["files"].items() if path.is_file()},
    }
    if not failures:
        failures = check(spec, outputs)
    records = [p["record"] for p in procs if p["record"] is not None]
    if trace and any(not r["trace"].get("pool", {}).get("identical", True) for r in records):
        failures.append("summaries differ between workers=1 and workers=2")

    job = {"failures": failures, "trace": trace}
    if not failures:  # only correct jobs give timings
        job["e2e"] = {
            "job_s": sum(p["job_s"] for p in procs),
            "work_s": sum(r["work_s"] for r in records),
            "peak_rss_mb": max(max(r["self_maxrss_kb"], r["children_maxrss_kb"]) for r in records) / 1024.0,
            "setup_s": sum(r["setup_s"] for r in records),
        }
        job["process_overhead_s"] = sum(p["job_s"] - p["record"]["setup_s"] - p["record"]["work_s"] for p in procs)
        if trace:
            job["layers"] = layer_metrics(procs)
    if keep_outputs:
        job["spec"], job["outputs"] = spec, outputs
    shutil.rmtree(job_dir, ignore_errors=True)
    return job


def layer_metrics(procs: list[dict]) -> dict:
    """Per-layer values of one traced job; 0 where the workload skips a layer."""
    spans: dict[str, dict] = {}
    for p in procs:
        for name, agg in p["record"]["trace"]["spans"].items():
            merged = spans.setdefault(name, {})
            for key, value in agg.items():
                merged[key] = merged.get(key, 0) + value
    pool = next((p["record"]["trace"]["pool"] for p in procs if "pool" in p["record"]["trace"]), None)

    def span(name, key="s"):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    run, trials = span("simulate.run"), span("simulate.run", "trials")
    rss_peak_kb = span("simulate.run", "rss_peak_kb")
    rss_growth_b = (rss_peak_kb - span("simulate.run", "rss_before_kb")) * 1024.0
    write_s, transcript_b = span("simulate.write_transcript"), span("simulate.write_transcript", "bytes")
    rows, sweep_s = span("sweep.sweep_rows", "rows"), span("sweep.sweep_rows")
    records = [p["record"] for p in procs]
    return {
        "cli.self_s": sum(r["trace"]["cli_self_s"] for r in records),
        "trace.wrapper_cost_s": sum(r["trace"]["wrapper_cost_s"] for r in records),
        "simulate.run_s": run,
        "simulate.trials_per_s": ratio(trials, run),
        "simulate.run_peak_rss_mb": rss_peak_kb / 1024.0,
        "simulate.rss_bytes_per_trial": ratio(rss_growth_b, trials),
        "simulate.pool_speedup": ratio(pool["run_s_workers_1"], pool["run_s_workers_2"]) if pool else 0.0,
        "simulate.write_transcript_s": write_s,
        "simulate.transcript_bytes": transcript_b,
        "simulate.transcript_mb_per_s": ratio(transcript_b / 2**20, write_s),
        "simulate.write_summary_s": span("simulate.write_summary"),
        "simulate.summary_dict_s": span("simulate.summary_dict"),
        "simulate.sifted_trits": span("simulate.run", "sifted"),
        "simulate.sift_ratio": ratio(span("simulate.run", "sifted"), trials),
        "attack.outcome_tables_s": span("attack.outcome_tables"),
        "attack.outcome_tables_calls": span("attack.outcome_tables", "calls"),
        "attack.closed_form_calls": span("attack.closed_form", "calls"),
        "attack.closed_form_s": span("attack.closed_form"),
        "attack.srm_success_calls": span("attack.srm_success", "calls"),
        "attack.srm_success_points": span("attack.srm_success", "points"),
        "sweep.sweep_rows_s": sweep_s,
        "sweep.rows": rows,
        "sweep.points_per_s": ratio(rows, sweep_s),
        "sweep.format_csv_s": span("sweep.format_csv"),
        "sweep.csv_bytes": span("sweep.format_csv", "bytes"),
        "sweep.find_crossover_s": span("sweep.find_crossover"),
    }


def scipy_optimize_import_s() -> float:
    """Cumulative import time of scipy.optimize under `import tritkd`, 0 if absent."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import tritkd"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S, check=True,
    )
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
            return int(parts[1]) / 1e6
    return 0.0


# --------------------------------------------------------------------------
# Measurement and reporting

def warm_up() -> None:
    """Import the program once, untimed: compiles its bytecode and pages in the libraries."""
    subprocess.run([sys.executable, "-c", "import tritkd.cli"], cwd=ROOT, env=_child_env(),
                   timeout=PROCESS_TIMEOUT_S, check=True)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Jobs until `seconds` have passed; untraced and traced alternate under trace."""
    warm_up()
    jobs: list[dict] = []
    deadline = _now() + seconds
    while True:
        timed = [j for j in jobs if not j["trace"]]
        traced = [j for j in jobs if j["trace"]]
        enough = timed and (traced or not trace)
        if enough and _now() >= deadline:
            return jobs
        jobs.append(run_job(workload, seed, trace=trace and len(traced) < len(timed)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(jobs: list[dict], trace: bool) -> dict[str, list[float]]:
    """Samples per metric, one per job."""
    plain = [j for j in jobs if "e2e" in j and not j["trace"]]
    samples: dict[str, list[float]] = {}
    if not trace:
        for name in plain[0]["e2e"] if plain else ():
            samples[name] = [j["e2e"][name] for j in plain]
        return samples
    traced = [j for j in jobs if "e2e" in j and j["trace"]]
    for name in traced[0]["layers"] if traced else ():
        samples[name] = [j["layers"][name] for j in traced]
    # A traced child re-runs the simulation after main, so the time outside
    # main comes from the untraced jobs.
    samples["cli.process_overhead_s"] = [j["process_overhead_s"] for j in plain]
    # Each traced job follows an untraced one; pairing neighbours cancels
    # most of the drift in machine speed between them.
    samples["trace.overhead_s"] = [
        t["e2e"]["work_s"] - u["e2e"]["work_s"]
        for u, t in zip(jobs[::2], jobs[1::2])
        if "e2e" in u and "e2e" in t
    ]
    samples["setup.scipy_optimize_import_s"] = [scipy_optimize_import_s() for _ in range(3)]
    return samples


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_metrics() -> dict[str, list[dict]]:
    spec = benchmark_spec()
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def machine() -> dict:
    from importlib.metadata import version

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def report(workload: str, jobs: list[dict], trace: bool) -> dict:
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    samples = summarize(jobs, trace)
    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    print(f"# workload {workload}: {len(jobs)} jobs, trace={int(trace)}")
    metrics = {}
    for m in declared:
        values = samples.get(m["name"])
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[m["name"]] = {"value": float(med), "unit": m["unit"]}
        print(f"{m['name']:32s} {med:14.6g} {m['unit']:8s} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
    failed = [j for j in jobs if j["failures"]]
    for j in failed:
        print(f"# failed job: {'; '.join(j['failures'])}")
    print(f"fail_frac {len(failed) / len(jobs):.6g} ({len(failed)} of {len(jobs)} jobs)")
    return {
        "correct": not failed and len(metrics) == len(declared),
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }


# --------------------------------------------------------------------------
# Smoke mode

def _corrupt(outputs: dict, stdout: int | None = None, edit=None, file: str | None = None) -> dict:
    copy = {"stdouts": list(outputs["stdouts"]), "files": dict(outputs["files"])}
    if stdout is not None:
        copy["stdouts"][stdout] = edit(copy["stdouts"][stdout])
    if file is not None:
        copy["files"][file] = edit(copy["files"][file])
    return copy


def _edit_json(key, value):
    return lambda text: json.dumps(dict(json.loads(text), **{key: value}))


def _flip_eve_guesses(data: bytes) -> bytes:
    lines = data.split(b"\n")
    for i, line in enumerate(lines):
        if line.endswith((b"\t0", b"\t1", b"\t2")):
            lines[i] = line[:-1] + bytes([ord("0") + (line[-1] - ord("0") + 1) % 3])
    return b"\n".join(lines)


def _nudge_csv_value(data: bytes) -> bytes:
    lines = data.split(b"\n")
    header = next(i for i, line in enumerate(lines) if line.startswith(b"f,"))
    fields = lines[header + 1].split(b",")
    fields[5] = repr(float(fields[5]) + 1e-3).encode()  # e_ab
    lines[header + 1] = b",".join(fields)
    return b"\n".join(lines)


CORRUPTIONS = {
    "sim-transcript": {
        "wrong trials": dict(stdout=0, edit=_edit_json("trials", 1)),
        "aborted": dict(stdout=0, edit=_edit_json("aborted", True)),
        "shifted qber": dict(stdout=0, edit=_edit_json("qber", 0.5)),
        "missing transcript line": dict(file="transcript.tsv", edit=lambda b: b[: b.rstrip(b"\n").rfind(b"\n") + 1]),
        "wrong eve guesses": dict(file="transcript.tsv", edit=_flip_eve_guesses),
        "stale summary.json": dict(file="summary.json", edit=lambda b: b.replace(b'"aborted": false', b'"aborted": true')),
    },
    "sim-bulk": {
        "low sifted length": dict(stdout=0, edit=_edit_json("sifted_length", 0)),
        "shifted s_estimate": dict(stdout=0, edit=_edit_json("s_estimate", 1.0)),
    },
    "attack-analysis": {
        "swapped columns": dict(file="sweep.csv", edit=lambda b: b.replace(b"f,lam,v,", b"lam,f,v,")),
        "missing row": dict(file="sweep.csv", edit=lambda b: b[: b.rstrip(b"\n").rfind(b"\n") + 1]),
        "wrong value": dict(file="sweep.csv", edit=_nudge_csv_value),
        "shifted v_max": dict(stdout=1, edit=_edit_json("v_max", 0.6629133985)),
        "v_max above V0": dict(stdout=1, edit=_edit_json("v_max", 0.7)),
    },
}


def smoke(seed: int) -> int:
    declared = declared_metrics()
    problems = []
    for workload, (_, check) in WORKLOADS.items():
        good = run_job(workload, seed, trace=False, smoke=True, keep_outputs=True)
        traced = run_job(workload, seed, trace=True, smoke=True)
        for job in (good, traced):
            problems += [f"{workload}: {msg}" for msg in job["failures"]]
        for kind, jobs, trace in (("end_to_end", [good], False), ("per_layer", [good, traced], True)):
            result = report(workload, jobs, trace)
            for m in declared[kind]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{workload}: {kind} metric {m['name']} missing or malformed: {got}")
        for name, how in CORRUPTIONS[workload].items():
            if not check(good["spec"], _corrupt(good["outputs"], **how)):
                problems.append(f"{workload}: checks accepted corrupted output ({name})")
    shutil.rmtree(WORK, ignore_errors=True)
    for msg in problems:
        print(f"SMOKE FAIL {msg}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


# --------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; assert metrics and checks")
    args = parser.parse_args()
    if not (SRC / "tritkd" / "cli.py").is_file():
        print(f"error: {SRC / 'tritkd'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        jobs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(report(args.workload, jobs, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
