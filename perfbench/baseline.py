"""Run the benchmark over several seeds and summarise each metric across runs.

    python3 perfbench/baseline.py --seeds 1-10 [--trace 0|1] [--out perfbench/baseline.json]

Each (workload, seed) pair is one `run.py` invocation of run_seconds from
BENCHMARK.json, run one after another over every workload.
For every metric this prints the median of the per-run values, their first
and third quartiles (statistics.quantiles, n=4), the run count, and the
spread (q3 - q1) / median next to a third of the metric's bound from
BENCHMARK.json: a run-to-run spread under that third is what the benchmark
aims for.  --out merges the summary into a JSON file together with the
machine description, so the committed baseline says where it was measured.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS, benchmark_spec, machine, quartiles

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict], bounds: dict[str, float]) -> dict:
    out = {
        "runs": len(results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        entry = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": results[0]["metrics"][name]["unit"]}
        if name in bounds and med:
            entry["spread"] = (q3 - q1) / abs(med)
            entry["bound"] = bounds[name]
        out["metrics"][name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    section = "per_layer" if args.trace else "end_to_end"
    summary = {}
    for workload in WORKLOADS:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, args.trace))
            print(f"# {workload} seed {seed}: {json.dumps(results[-1]['metrics'])}", flush=True)
        summary[workload] = dict(summarise(results, bounds), seeds=[args.seeds[0], args.seeds[-1]])
        for name, m in summary[workload]["metrics"].items():
            spread = f"spread {m['spread']:.4f} (bound/3 {m['bound'] / 3:.4f})" if "spread" in m else ""
            print(f"{workload:16s} {name:32s} {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} n {m['n']} {spread}", flush=True)

    if args.out is not None:
        doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
        doc["machine"] = machine()
        doc["run_seconds"] = spec["run_seconds"]
        doc.setdefault(section, {}).update(summary)
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
