"""Command-line interface: bell report, parameter sweep, crossover, simulation.

Commands raise; main alone maps exceptions to exit codes: 2 with a usage message
on ValueError (bad input, found here or in the library), 1 with `error: ...` on
OSError, RuntimeError or MemoryError, 0 on success.  Anything else propagates,
RecursionError and NotImplementedError too: they are RuntimeErrors, but bugs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .attack import F_DOMAIN, LAM_DOMAIN, AttackParams
from .correlations import (
    BELL_WEIGHTS,
    CRITICAL_VISIBILITY,
    LOCAL_REALISM_BOUND,
    bell_s,
    correlation_q_closed,
)
from .quantum import standard_settings
from .simulate import SimConfig, _output_file, _staged, run, summary_dict, write_summary, write_transcript
from .sweep import find_crossover, format_csv, sweep_rows


def _finite(text: str) -> float:  # for the sweep ranges: NaN would pass _clip_range's comparisons
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _parse_triple(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated phases, got {text!r}")
    phases = np.array([float(p) for p in parts])
    if not np.all(np.isfinite(phases)):
        raise ValueError(f"phases must be finite numbers, got {text!r}")
    return phases


def _parse_settings(text: str):
    triples = text.split(";")
    if len(triples) != 6:
        raise ValueError("expected six semicolon-separated phase triples (A1;A2;A3;B1;B2;B3)")
    vecs = [_parse_triple(t) for t in triples]
    return tuple(vecs[:3]), tuple(vecs[3:])


def cmd_bell(args) -> int:
    alice, bob = standard_settings() if args.settings is None else _parse_settings(args.settings)
    v = args.visibility  # NaN fails both comparisons
    if not LAM_DOMAIN[0] <= v <= LAM_DOMAIN[1]:
        raise ValueError(f"--visibility must be in [-0.5, 1], the range of v = f*lam, got {v:g}")

    q = {
        (k, l): v * correlation_q_closed(alice[k - 1], bob[l - 1])
        for k, l in (*BELL_WEIGHTS, (3, 3))
    }
    s = bell_s(*(q[pair] for pair in BELL_WEIGHTS))
    for (k, l), value in q.items():
        print(f"Q{k}{l} = {value.real:.6f} {value.imag:+.6f}i")
    print(f"S = {s:.6f}")
    print(f"local-realism bound = {LOCAL_REALISM_BOUND:.6f}")
    print(f"critical visibility V0 = {CRITICAL_VISIBILITY:.6f}")
    return 0


def _clip_range(lo: float, hi: float, domain: tuple[float, float], name: str, notes):
    if lo > hi:
        raise ValueError(f"{name} range is empty: [{lo}, {hi}]")
    if hi < domain[0] or lo > domain[1]:
        raise ValueError(f"{name} range [{lo}, {hi}] lies outside the feasible domain {list(domain)}")
    clo, chi = max(lo, domain[0]), min(hi, domain[1])
    if (clo, chi) != (lo, hi):
        notes.append(f"clipped {name} range from [{lo:.9g}, {hi:.9g}] to [{clo:.9g}, {chi:.9g}]")
    return clo, chi


def cmd_sweep(args) -> int:
    notes = []
    f_lo, f_hi = _clip_range(args.f_min, args.f_max, F_DOMAIN, "f", notes)
    l_lo, l_hi = _clip_range(args.lam_min, args.lam_max, LAM_DOMAIN, "lam", notes)
    if not 1 <= args.steps < 2**30:  # from 2**30: 2**60 points, and 8 GiB per array of a one-f-row block
        raise ValueError(f"--steps must be >= 1 and below 2**30, got {args.steps}")

    f_values, lam_values = np.linspace(f_lo, f_hi, args.steps), np.linspace(l_lo, l_hi, args.steps)
    block = max(1, 2**16 // args.steps)  # f values per block: at most 2**16 rows, or one f row
    comments = [
        f"attack sweep: {args.steps}x{args.steps} grid, f in [{f_lo:.9g}, {f_hi:.9g}], "
        f"lam in [{l_lo:.9g}, {l_hi:.9g}], log base {args.log_base:.9g}",
        *notes,
    ]
    text = format_csv(sweep_rows(f_values[:block], lam_values, log_base=args.log_base), comments)
    with _output_file(args.out, "w", encoding="ascii") as fh:  # after the first block: a bad --log-base opens nothing
        fh.write(text)
        for start in range(block, args.steps, block):
            text = format_csv(sweep_rows(f_values[start : start + block], lam_values, log_base=args.log_base))
            fh.write(text.partition("\n")[2])  # without the header line
    print(f"wrote {args.steps**2} rows to {args.out}")
    return 0


def cmd_crossover(args) -> int:
    result = find_crossover(tolerance=args.tolerance, log_base=args.log_base)
    print(json.dumps(dataclasses.asdict(result), indent=2, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    if (args.f is None, args.lam is None) != (args.honest, args.honest):
        raise ValueError("choose either --honest or both --f and --lam")
    attack = None if args.honest else AttackParams(f=args.f, lam=args.lam)
    weights = None if args.weights is None else tuple(float(p) for p in args.weights.split(","))
    config = SimConfig(trials=args.trials, seed=args.seed, attack=attack, setting_weights=weights)

    if args.out is None:
        transcript = run(config, workers=args.workers)
    else:
        out_dir = Path(args.out)
        made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
        out_dir.mkdir(parents=True, exist_ok=True)
        try:  # both files are replaced only when both writes succeed
            with _staged(out_dir / "transcript.tsv", out_dir / "summary.json") as (transcript_path, summary_path):
                transcript = write_transcript(config, transcript_path, workers=args.workers)
                write_summary(config, transcript, summary_path)
        except BaseException:  # leave nothing new: the staged files are gone, then the directories made here
            for made_dir in made:
                if any(made_dir.iterdir()):
                    break
                made_dir.rmdir()
            raise
    print(json.dumps(summary_dict(config, transcript), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritkd",
        description="Qutrit entanglement key distribution: Bell analysis, attack sweeps, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bell = sub.add_parser("bell", help="print correlations, Bell quantity, and thresholds")
    p_bell.add_argument(
        "--settings",
        type=str,
        default=None,
        help="six semicolon-separated phase triples A1;A2;A3;B1;B2;B3 (radians)",
    )
    p_bell.add_argument("--visibility", type=float, default=1.0, help="scale all correlations")

    p_sweep = sub.add_parser("sweep", help="write a CSV grid over the attack plane")
    p_sweep.add_argument("--f-min", type=_finite, default=0.0)
    p_sweep.add_argument("--f-max", type=_finite, default=1.0)
    p_sweep.add_argument("--lam-min", type=_finite, default=-0.5)
    p_sweep.add_argument("--lam-max", type=_finite, default=1.0)
    p_sweep.add_argument("--steps", type=int, default=50, help="points per axis")
    p_sweep.add_argument("--log-base", type=float, default=3.0)
    p_sweep.add_argument("--out", type=str, required=True, help="output CSV path")

    p_cross = sub.add_parser("crossover", help="largest visibility with I_AE >= I_AB")
    p_cross.add_argument("--tolerance", type=float, default=1e-6)
    p_cross.add_argument("--log-base", type=float, default=3.0)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo protocol")
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--honest", action="store_true", help="undisturbed source")
    p_sim.add_argument("--f", type=float, default=None, help="attack matched-block weight")
    p_sim.add_argument("--lam", type=float, default=None, help="attack ancilla overlap")
    p_sim.add_argument("--weights", type=str, default=None, help="nine setting-pair probabilities")
    p_sim.add_argument(
        "--workers",
        type=int,
        default=1,
        help="threads over disjoint trial ranges, at most one per CPU; same output for any value",
    )
    p_sim.add_argument("--out", type=str, default=None, help="directory for transcript and summary")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "bell": cmd_bell,
        "sweep": cmd_sweep,
        "crossover": cmd_crossover,
        "simulate": cmd_simulate,
    }
    try:
        return commands[args.command](args)
    except ValueError as exc:
        parser.error(str(exc))
    except (RecursionError, NotImplementedError):
        raise  # RuntimeErrors that mark a bug in the program, not a failed run
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        hint = " (try fewer --steps)" if args.command == "sweep" else ""
        print(f"error: out of memory{hint}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
