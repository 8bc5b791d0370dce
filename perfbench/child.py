"""Run one `tritkd` CLI call in this process and record how long its parts took.

Usage: python3 child.py RECORD_JSON TRACE(0|1) -- CLI_ARGS...

The benchmark starts one of these per CLI call.  It writes RECORD_JSON with
CLOCK_MONOTONIC stamps (a system-wide clock, so the parent can subtract its
own spawn stamp), the peak RSS of this process and of its reaped children
(process-pool workers), the exit code and, when TRACE is 1, the per-layer
aggregates of spans.py.
The CLI's own stdout and stderr pass through untouched.
"""

import json
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    record_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py RECORD_JSON 0|1 -- CLI_ARGS...")

    import tritkd.cli

    t_import = _now()
    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    t_main = _now()
    try:
        code = tritkd.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    t_done = _now()
    sys.stdout.flush()
    from spans import own_peak_rss_kb, reaped_peak_rss_kb

    own_kb, reaped_kb = own_peak_rss_kb(), reaped_peak_rss_kb()

    record = {
        "module_file": tritkd.cli.__file__,
        "exit_code": code,
        "t_import": t_import,
        "t_main": t_main,
        "t_done": t_done,
        "self_maxrss_kb": own_kb,
        "children_maxrss_kb": reaped_kb,
    }
    if tracer is not None:
        record["trace"] = tracer.finish(t_main, t_done)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
