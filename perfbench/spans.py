"""In-memory tracing of tritkd's public functions, as their callers see them.

Tracer.install() replaces module attributes of the calling module (for example
`tritkd.cli.run`, which is what the CLI calls) with wrappers that add the call
count and wall time to one aggregate per span name.  Nothing inside
`src/tritkd` changes.  Tracer.finish() restores the originals and returns the
aggregates of this process as plain JSON data.
"""

import functools
import math
import os
import resource
import time

import numpy as np

import tritkd.cli
import tritkd.simulate
import tritkd.sweep

# Functions the CLI calls directly.  Their spans are the children of the
# `cli.main` span, so cli self time is main's wall time minus their sum.
CLI_SPANS = {
    "run": "simulate.run",
    "write_transcript": "simulate.write_transcript",
    "write_summary": "simulate.write_summary",
    "summary_dict": "simulate.summary_dict",
    "sweep_rows": "sweep.sweep_rows",
    "format_csv": "sweep.format_csv",
    "find_crossover": "sweep.find_crossover",
}

# Functions called from inside those spans, wrapped where their caller looks
# them up.  quantum and correlations run only inside transformed_tripartite.
NESTED_SPANS = {
    (tritkd.simulate, "transformed_tripartite"): "attack.outcome_tables",
    (tritkd.sweep, "mutual_info_ab"): "attack.closed_form",
    (tritkd.sweep, "mutual_info_ae"): "attack.closed_form",
    (tritkd.sweep, "ab_error"): "attack.closed_form",
    (tritkd.sweep, "eve_error"): "attack.closed_form",
    (tritkd.sweep, "srm_success"): "attack.srm_success",
}


def own_peak_rss_kb() -> int:
    """High-water RSS of this process since its exec.

    ru_maxrss of RUSAGE_SELF would do, except that Linux carries the RSS the
    process had before exec (a copy of the benchmark's parent) into it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reaped_peak_rss_kb() -> int:
    """Largest ru_maxrss of any reaped child, such as a process-pool worker."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _peak_rss_kb() -> int:
    return max(own_peak_rss_kb(), reaped_peak_rss_kb())


def _wrap(original, attr: str, agg: dict, hook):
    """`original`, adding its call count and wall time to `agg`."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        before_kb = _peak_rss_kb() if attr == "run" else 0
        t0 = time.perf_counter()
        result = original(*args, **kwargs)
        agg["s"] += time.perf_counter() - t0
        agg["calls"] += 1
        if hook is not None:
            hook(agg, args, kwargs, result, before_kb)
        return result

    return wrapper


def wrapper_call_cost_s(calls: int = 2000, repeats: int = 5) -> float:
    """Time one wrapped call adds over a plain call, without a hook.

    The fastest of `repeats` batches, so that contention from other
    processes inflates it as little as possible.
    """

    def noop():
        return None

    wrapped = _wrap(noop, "noop", {"calls": 0, "s": 0.0}, None)
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)


class Tracer:
    def __init__(self):
        self.spans: dict[str, dict] = {}
        self._originals: list[tuple[object, str, object]] = []
        self._run_call = None

    def install(self) -> None:
        for attr, name in CLI_SPANS.items():
            self._patch(tritkd.cli, attr, name)
        for (module, attr), name in NESTED_SPANS.items():
            self._patch(module, attr, name)

    def _patch(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        agg = self.spans.setdefault(name, {"calls": 0, "s": 0.0})
        self._originals.append((module, attr, original))
        setattr(module, attr, _wrap(original, attr, agg, getattr(self, "_after_" + attr, None)))

    def _after_run(self, agg, args, kwargs, result, before_kb):
        config = args[0]
        workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
        agg["trials"] = agg.get("trials", 0) + config.trials
        agg["sifted"] = agg.get("sifted", 0) + len(result.sifted_key_alice)
        agg["rss_before_kb"] = before_kb
        agg["rss_peak_kb"] = _peak_rss_kb()
        self._run_call = (config, workers, result, agg["s"])

    def _after_write_transcript(self, agg, args, kwargs, result, before_kb):
        agg["bytes"] = agg.get("bytes", 0) + os.path.getsize(args[1])

    def _after_sweep_rows(self, agg, args, kwargs, result, before_kb):
        agg["rows"] = agg.get("rows", 0) + len(result)

    def _after_format_csv(self, agg, args, kwargs, result, before_kb):
        agg["bytes"] = agg.get("bytes", 0) + len(result.encode("ascii"))

    def _after_srm_success(self, agg, args, kwargs, result, before_kb):
        agg["points"] = agg.get("points", 0) + int(np.size(args[0]))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def finish(self, t_main: float, t_done: float) -> dict:
        """Restore the originals; return the aggregates and the pool check.

        When the CLI ran a simulation, the same config runs once more with the
        other worker count (1 <-> 2), untraced: that gives the pool speed-up
        and shows whether both worker counts give the same summary.
        """
        self.uninstall()
        cli_children = sum(self.spans[name]["s"] for name in CLI_SPANS.values())
        calls = sum(agg["calls"] for agg in self.spans.values())
        out = {
            "spans": self.spans,
            "cli_self_s": (t_done - t_main) - cli_children,
            "wrapper_cost_s": calls * wrapper_call_cost_s(),
        }
        if self._run_call is not None:
            config, workers, result, run_s = self._run_call
            other = 1 if workers > 1 else 2
            t0 = time.perf_counter()
            rerun = tritkd.simulate.run(config, workers=other)
            other_s = time.perf_counter() - t0
            by_workers = {workers: run_s, other: other_s}
            out["pool"] = {
                "run_s_workers_1": by_workers[1],
                "run_s_workers_2": by_workers[2],
                "identical": tritkd.simulate.summary_dict(config, result)
                == tritkd.simulate.summary_dict(config, rerun),
            }
        return out
