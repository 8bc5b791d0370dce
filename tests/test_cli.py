"""End-to-end tests of the command-line interface via subprocess."""

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shlex
import signal
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritkd import cli
from tritkd.correlations import CRITICAL_VISIBILITY
from tritkd.sweep import CSV_COLUMNS, format_csv, sweep_rows


def tritkd(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tritkd", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_bell_default_report():
    result = tritkd("bell")
    assert result.returncode == 0
    assert "S = 2.488034" in result.stdout
    assert "Q33 = 1.000000" in result.stdout
    assert "1.732051" in result.stdout
    assert "0.696152" in result.stdout


def test_bell_visibility_scales():
    result = tritkd("bell", "--visibility", "0.5")
    assert result.returncode == 0
    assert "S = 1.244017" in result.stdout


def test_bell_zero_settings():
    zeros = ";".join(["0,0,0"] * 6)
    result = tritkd("bell", "--settings", zeros)
    assert result.returncode == 0
    assert "S = 1.732051" in result.stdout


def test_bell_malformed_settings_is_usage_error():
    assert tritkd("bell", "--settings", "1,2").returncode == 2
    assert tritkd("bell", "--settings", "a,b,c;0,0,0").returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("sweep", "--f-min", "nan"),
        ("sweep", "--f-max", "inf"),
        ("sweep", "--lam-min=-inf"),
        ("sweep", "--lam-max", "nan"),
        ("sweep", "--log-base", "1"),
        ("sweep", "--log-base", "0"),
        ("sweep", "--log-base", "0.5"),
        ("sweep", "--log-base", "nan"),
        ("bell", "--visibility", "nan"),
        ("crossover", "--log-base=-2"),
        ("crossover", "--log-base", "inf"),
        ("crossover", "--tolerance", "nan"),
        ("crossover", "--tolerance", "1e-300"),
        ("simulate", "--trials", "10", "--seed", "1", "--honest", "--weights", "a,0,0,0,0,0,0,0,1"),
        ("bell", "--settings", "nan,0,0;0,0,0;0,0,0;0,0,0;0,0,0;0,0,0"),
        ("bell", "--settings", "0,0,0;0,0,0;0,0,0;0,0,0;0,0,0;0,inf,0"),
    ],
)
def test_bad_numeric_input_is_usage_error(args, tmp_path):
    extra = ("--out", str(tmp_path / "x.csv")) if args[0] == "sweep" else ()
    result = tritkd(*args, *extra)
    assert result.returncode == 2
    assert "error:" in result.stderr
    assert result.stdout == ""
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("v, code", [("1.5", 2), ("-5", 2), ("1e308", 2), ("-0.5", 0), ("0", 0), ("1", 0)])
def test_bell_visibility_domain(v, code):
    # v = f*lam lies in [-1/2, 1]; 1.5 printed S = 3.732051 and 1e308 S = inf
    result = tritkd("bell", f"--visibility={v}")
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    if code == 2:
        assert "error: --visibility must be in [-0.5, 1]" in result.stderr
        assert result.stdout == ""


@pytest.mark.parametrize("trials", [str(2**63), "100000000000000000000"])
def test_trials_beyond_int64_is_usage_error(trials):
    # the int64 count table cannot hold 2**63 trials; the run must not start
    result = tritkd("simulate", "--trials", trials, "--seed", "0", "--honest")
    assert result.returncode == 2
    assert "error: trials must be >= 1 and below 2**63" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("steps", [str(2**62), str(2**63), "100000000000000000000"])
def test_steps_beyond_addressable_grid_is_usage_error(steps, tmp_path):
    # 2**60 grid points or more, 8 GiB or more per array of a one-row block; the sweep must not start
    out = tmp_path / "x.csv"
    result = tritkd("sweep", "--steps", steps, "--out", str(out))
    assert result.returncode == 2
    assert "error: --steps must be >= 1 and below 2**30" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert not out.exists()


def _outside(lo, hi):
    """Floats, infinities included, below lo or above hi."""
    return st.floats(max_value=lo, exclude_max=True) | st.floats(min_value=hi, exclude_min=True)


def _bad(invalid_floats=st.nothing()):
    """Text that is not a finite number, or one of invalid_floats."""
    return st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "", "x", "1,5"]) | invalid_floats.map(repr)


def _bad_int(invalid_ints):
    return st.sampled_from(["nan", "inf", "", "x", "1.5", "1e3"]) | invalid_ints.map(str)


def _not_weights(tokens):
    try:
        w = np.array([float(t) for t in tokens])
    except ValueError:
        return True
    return not (w.shape == (9,) and np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12)


_SIMULATE = ["simulate", "--trials=10", "--seed=1"]

# One invalid value per command line, every other value valid and small, so
# that no draw can start a long run.
_INVALID_ARGV = st.one_of(
    _bad(_outside(0.0, 1.0)).map(lambda v: [*_SIMULATE, f"--f={v}", "--lam=0.5"]),
    _bad(_outside(-0.5, 1.0)).map(lambda v: [*_SIMULATE, "--f=0.5", f"--lam={v}"]),
    _bad(_outside(-0.5, 1.0)).map(lambda v: ["bell", f"--visibility={v}"]),
    _bad(st.floats(max_value=0.0)).map(lambda v: ["crossover", f"--tolerance={v}"]),
    st.tuples(
        st.sampled_from([["crossover"], ["sweep", "--steps=2"]]),
        _bad(st.floats(max_value=1.0)),
    ).map(lambda cv: [*cv[0], f"--log-base={cv[1]}"]),
    _bad_int(st.integers(max_value=0)).map(lambda v: ["sweep", f"--steps={v}"]),
    st.lists(st.floats().map(repr) | st.sampled_from(["x", "", "1e"]), min_size=8, max_size=10)
    .filter(_not_weights)
    .map(lambda w: [*_SIMULATE, "--honest", f"--weights={','.join(w)}"]),
    _bad_int(st.integers(max_value=0)).map(lambda v: ["simulate", f"--trials={v}", "--seed=1", "--honest"]),
    _bad_int(st.integers(max_value=-1) | st.integers(min_value=2**64)).map(
        lambda v: ["simulate", "--trials=10", f"--seed={v}", "--honest"]
    ),
    _bad_int(st.integers(max_value=0)).map(lambda v: [*_SIMULATE, "--honest", f"--workers={v}"]),
)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(argv=_INVALID_ARGV)
def test_invalid_numbers_exit_2(argv, tmp_path_factory):
    # parser.error exits 2; a return of 0, another exception or a written
    # file fails the test
    csv = tmp_path_factory.mktemp("cli") / "x.csv"
    extra = ["--out", str(csv)] if argv[0] == "sweep" else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, *extra])
    assert exc.value.code == 2
    assert "error:" in err.getvalue()
    assert out.getvalue() == ""
    assert not csv.exists()


def test_import_does_not_load_scipy():
    code = "import sys, tritkd, tritkd.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "False"


def test_import_does_not_load_process_machinery():
    # shards run on plain threads; a pool or process machinery would only add to every start-up
    names = ("multiprocessing", "concurrent.futures.process", "concurrent.futures", "logging")
    code = f"import sys, tritkd, tritkd.cli; print([m for m in {names!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["tritkd.attack", "tritkd.sweep"])
def test_analysis_import_does_not_load_simulation(module):
    # the package's __init__ imports nothing, so the closed forms load only what they use
    names = ("tritkd.simulate", "numpy.random", "concurrent.futures")
    code = f"import sys, {module}; print([m for m in {names!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "[]"


def test_only_simulate_loads_numpy_random(tmp_path):
    # the sampler imports numpy.random on its first sample: bell, sweep and crossover never sample
    commands = [
        ["bell"],
        ["sweep", "--steps=2", "--out", str(tmp_path / "sweep.csv")],
        ["crossover"],
        ["simulate", "--trials=10", "--seed=1", "--honest"],
    ]
    code = (
        "import contextlib, io, sys, tritkd.cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert tritkd.cli.main(argv) == 0\n"
        "    print('numpy.random' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False", "False", "True"]


def test_import_builds_no_text_tables():
    # the digit tables of the CSV and transcript writers cost nothing until used
    code = (
        "import tritkd, tritkd.cli; "
        "print(*(f.cache_info().currsize for f in (tritkd.sweep._csv_tables, tritkd.simulate._text_tables)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.split() == ["0", "0"]


def _readme_cli_examples():
    """The `tritkd ...` lines of the README's CLI code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("tritkd ")]


@pytest.mark.parametrize("line", _readme_cli_examples())
def test_readme_cli_examples_run(line, tmp_path):
    result = tritkd(*shlex.split(line)[1:], cwd=tmp_path)
    assert result.returncode == 0, result.stderr


def test_unknown_command_is_usage_error():
    assert tritkd("frobnicate").returncode == 2


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    result = tritkd("sweep", "--steps", "11", "--out", str(out))
    assert result.returncode == 0

    content = out.read_text()
    assert content.endswith("\n")
    lines = content.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert comments
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == ",".join(CSV_COLUMNS)
    data = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(data) == 121

    f_col = np.array([float(r[0]) for r in data])
    lam_col = np.array([float(r[1]) for r in data])
    # deterministic ordering: f outer ascending, lam inner ascending
    assert np.all(np.diff(f_col.reshape(11, 11), axis=0) > 0)
    assert np.all(np.diff(lam_col.reshape(11, 11), axis=1) > 0)

    for row in data:
        f, lam, v, p0, p1, e_ab, e_eve, i_ab, i_ae = map(float, row[:9])
        violated, secure = row[9] == "1", row[10] == "1"
        # parsed values are 9-significant-digit renderings
        assert abs(v - f * lam) < 2e-9
        assert abs(p0 + 2 * p1 - 1.0) < 2e-9
        for value in (p0, p1, e_ab, e_eve, i_ab, i_ae):
            assert -1e-12 <= value <= 1.0 + 1e-12
        assert violated == (v >= CRITICAL_VISIBILITY - 1e-12)
        assert secure == (i_ab > i_ae)
        if violated:
            assert e_eve >= e_ab - 1e-12

    # the (1, 1) corner row carries the undisturbed-source values
    corner = data[-1]
    assert abs(float(corner[5])) < 1e-12                 # e_ab
    assert abs(float(corner[6]) - 0.666667) < 1e-6       # e_eve
    assert abs(float(corner[7]) - 1.0) < 1e-12           # i_ab
    assert abs(float(corner[8])) < 1e-12                 # i_ae


def test_sweep_clips_partial_range(tmp_path):
    out = tmp_path / "clip.csv"
    result = tritkd(
        "sweep", "--f-min", "-0.2", "--f-max", "1.3", "--steps", "3", "--out", str(out)
    )
    assert result.returncode == 0
    content = out.read_text()
    assert "clipped f range" in content
    data = [l for l in content.splitlines() if not l.startswith("#")][1:]
    f_vals = sorted({float(r.split(",")[0]) for r in data})
    assert f_vals[0] == 0.0 and f_vals[-1] == 1.0


def test_sweep_rejects_disjoint_range():
    assert tritkd("sweep", "--f-min", "1.5", "--f-max", "2.0", "--out", "x.csv").returncode == 2
    assert tritkd("sweep", "--lam-min", "0.9", "--lam-max", "0.1", "--out", "x.csv").returncode == 2


def test_sweep_unwritable_path_is_io_error(tmp_path):
    out = tmp_path / "no" / "dir" / "x.csv"
    result = tritkd("sweep", "--steps", "2", "--out", str(out))
    assert result.returncode == 1
    assert result.stderr == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_sweep_failed_write_leaves_no_file(tmp_path):
    # a file size limit of 64 KiB cuts the 100x100 CSV mid-row; the partial file is removed
    out = tmp_path / "part.csv"
    result = subprocess.run(
        [sys.executable, "-m", "tritkd", "sweep", "--steps", "100", "--out", str(out)],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (65536, 65536)),
    )
    assert result.returncode == 1
    assert result.stderr == "error: [Errno 27] File too large\n"
    assert list(tmp_path.iterdir()) == []


def _with_file_size_limit(limit, *args):
    """tritkd in a child whose writes beyond limit bytes fail with EFBIG (Errno 27)."""
    return subprocess.run(
        [sys.executable, "-m", "tritkd", *args],
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
    )


def test_sweep_failed_write_keeps_a_symlinked_out(tmp_path):
    # the CSV is cut through the link, in its target; the link is not the run's to remove
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.touch()
    link.symlink_to(target)
    result = _with_file_size_limit(65536, "sweep", "--steps", "100", "--out", str(link))
    assert result.returncode == 1
    assert result.stderr == "error: [Errno 27] File too large\n"
    assert link.is_symlink()
    assert target.is_file()


def test_sweep_failed_write_keeps_the_earlier_file(tmp_path):
    # the CSV goes to a temporary file beside keep.csv that replaces it only once written
    out = tmp_path / "keep.csv"
    out.write_text("old\n")
    result = _with_file_size_limit(65536, "sweep", "--steps", "100", "--out", str(out))
    assert result.returncode == 1
    assert result.stderr == "error: [Errno 27] File too large\n"
    assert out.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [out]


def test_replaced_output_keeps_its_mode(tmp_path):
    # a replaced file keeps its permissions, and a new one gets a plainly opened file's
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("old\n")
    old.chmod(0o640)
    for out in (old, new):
        assert tritkd("sweep", "--steps", "2", "--out", str(out)).returncode == 0
    umask = os.umask(0o022)
    os.umask(umask)
    assert stat.S_IMODE(old.stat().st_mode) == 0o640
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
    assert old.read_bytes() == new.read_bytes()
    assert sorted(tmp_path.iterdir()) == [new, old]


def _spy_on_staging(monkeypatch) -> list:
    """The calls of tempfile.mkstemp (by prefix) and os.replace (by path) from here on, in order."""
    import tritkd.simulate

    calls, mkstemp, replace = [], tritkd.simulate.tempfile.mkstemp, tritkd.simulate.os.replace

    def spy_mkstemp(*args, **kwargs):
        calls.append(("mkstemp", kwargs["prefix"]))
        return mkstemp(*args, **kwargs)

    def spy_replace(src, dst):
        calls.append(("replace", os.fspath(dst)))
        return replace(src, dst)

    monkeypatch.setattr(tritkd.simulate.tempfile, "mkstemp", spy_mkstemp)
    monkeypatch.setattr(tritkd.simulate.os, "replace", spy_replace)
    return calls


@pytest.mark.parametrize(
    "argv, staging",
    [
        (
            ["simulate", "--trials", "10", "--seed", "1", "--honest", "--out", "D"],
            [
                ("mkstemp", ".summary.json."),
                ("mkstemp", ".transcript.tsv."),
                ("replace", "D/transcript.tsv"),
                ("replace", "D/summary.json"),
            ],
        ),
        (["sweep", "--steps", "2", "--out", "x.csv"], [("mkstemp", ".x.csv."), ("replace", "x.csv")]),
    ],
    ids=["simulate", "sweep"],
)
def test_each_output_file_is_staged_once(monkeypatch, capsys, tmp_path, argv, staging):
    # the library writers write the temporary files the CLI staged as they are: one temporary
    # and one rename per output file, the transcript renamed before the summary
    monkeypatch.chdir(tmp_path)
    calls = _spy_on_staging(monkeypatch)
    assert cli.main(argv) == 0
    assert calls == staging


@pytest.fixture
def shared():
    """A new directory that the child of _unprivileged reaches: tempfile and open use its absolute path."""
    with tempfile.TemporaryDirectory() as name:
        yield Path(name)


def _unprivileged(cwd, argv, umask) -> tuple[int, str]:
    """main(argv)'s exit code and stderr in a forked child that works in cwd under umask.

    Where this process is root, the child runs as uid and gid 65534 and cwd and what it holds
    are given to that user first, so that file permissions hold.  That user may not reach the
    interpreter's files, so main must have run in this process once: the child imports nothing.
    """
    if os.geteuid() == 0:
        for path in (cwd, *cwd.rglob("*")):
            os.chown(path, 65534, 65534, follow_symlinks=False)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            os.close(read)
            os.chdir(cwd)
            if os.geteuid() == 0:
                os.setgroups([])
                os.setgid(65534)
                os.setuid(65534)
            os.umask(umask)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            os.write(write, err.getvalue().encode())
        except BaseException as exc:
            os.write(write, repr(exc).encode())
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as fh:
        stderr = fh.read()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), stderr


def test_new_output_under_a_umask_without_owner_write(capsys, tmp_path, shared):
    # the temporary stays writable while it is written and gets a new file's mode, here 0o444,
    # only at the rename: as a plain open would, the run succeeds and leaves a read-only file
    warm = tmp_path / "warm.csv"
    assert cli.main(["sweep", "--steps", "2", "--out", str(warm)]) == 0
    code, stderr = _unprivileged(shared, ["sweep", "--steps", "2", "--out", "new.csv"], 0o222)
    assert (code, stderr) == (0, "")
    assert list(shared.iterdir()) == [shared / "new.csv"]
    assert stat.S_IMODE((shared / "new.csv").stat().st_mode) == 0o444
    assert (shared / "new.csv").read_bytes() == warm.read_bytes()


@pytest.mark.parametrize(
    "argv, refused",
    [
        (["sweep", "--steps", "2", "--out", "x.csv"], "x.csv"),
        (["simulate", "--trials", "10", "--seed", "1", "--honest", "--out", "D"], "D/transcript.tsv"),
    ],
    ids=["sweep", "simulate"],
)
def test_output_onto_a_read_only_file_is_refused_by_its_name(capsys, shared, argv, refused):
    # a file that open would refuse is refused before any temporary is made, with open's error,
    # which names it; the earlier bytes stay and no hidden temporary is left
    assert cli.main(["simulate", "--trials", "10", "--seed", "1", "--honest", "--out", str(shared / "D")]) == 0
    assert cli.main(["sweep", "--steps", "2", "--out", str(shared / "x.csv")]) == 0
    (shared / refused).chmod(0o444)
    before = {path: path.read_bytes() for path in shared.rglob("*") if path.is_file()}
    code, stderr = _unprivileged(shared, argv, 0o022)
    assert (code, stderr) == (1, f"error: [Errno 13] Permission denied: '{refused}'\n")
    assert {path: path.read_bytes() for path in shared.rglob("*") if path.is_file()} == before


def _traced_sweep_peak(tmp_path, steps: int) -> int:
    """tracemalloc's peak over a `sweep --steps steps`, above what was traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(["sweep", "--steps", str(steps), "--out", str(tmp_path / f"{steps}.csv")]) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_sweep_memory_is_bounded_by_blocks(tmp_path, capsys):
    # blocks of at most 2**12 points, written 1024 rows at a time: 1.1-1.2 MiB traced at both
    # sizes; 12.1 and 26.9 MiB in blocks of 2**16 rows, and the whole grid at once 104.5 MiB
    cli.main(["sweep", "--steps", "2", "--out", str(tmp_path / "warm.csv")])  # one-time tables, buffers
    small = _traced_sweep_peak(tmp_path, 200)
    peak = _traced_sweep_peak(tmp_path, 600)
    assert capsys.readouterr().out.endswith("wrote 360000 rows to " + str(tmp_path / "600.csv") + "\n")
    assert peak <= 3 << 20
    assert peak <= small + (256 << 10)  # the peak does not grow with the grid


@pytest.mark.parametrize(
    "points, blocks",
    [
        (64, [(1, 64), (1, 36)] * 100),
        (100, [(1, 100)] * 100),
        (250, [(2, 100)] * 50),
        (2**12, [(40, 100)] * 2 + [(20, 100)]),
    ],
    ids=["lam-runs", "f-row", "f-rows", "default"],
)
def test_sweep_blocks_keep_the_bytes(monkeypatch, tmp_path, points, blocks):
    # blocks of runs of one f row, of one whole f row, of two, and the default 40: the same CSV,
    # each block evaluated once and written in slices of at most 1024 rows
    argv = ["sweep", "--steps", "100", "--lam-min", "-0.2", "--out"]
    assert cli.main([*argv, str(tmp_path / "default.csv")]) == 0
    shapes, slices = [], []

    def recording_sweep_rows(f_values, lam_values, **kwargs):
        shapes.append((len(f_values), len(lam_values)))
        return sweep_rows(f_values, lam_values, **kwargs)

    def recording_format_csv(rows, *args, **kwargs):
        slices.append(len(rows))
        return format_csv(rows, *args, **kwargs)

    monkeypatch.setattr(cli, "_SWEEP_POINTS", points)
    monkeypatch.setattr(cli, "sweep_rows", recording_sweep_rows)
    monkeypatch.setattr(cli, "format_csv", recording_format_csv)
    assert cli.main([*argv, str(tmp_path / "blocked.csv")]) == 0
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
    assert shapes == blocks
    assert slices[0] == 0 and max(slices) <= 1024 and sum(slices) == 100**2  # the header, then rows


# SHA-256 of `sweep` CSVs: the default grid, a benchmark-sized grid in base 2,
# a clipped grid in base e, and a grid in base 10 that spans many blocks (24 of
# 2**12 points; 2 of 2**16 rows before); a rewrite of the formatter or of the
# blocks must keep them.
GOLDEN_SWEEPS = [
    (("--steps", "50"), "0a6a705a60dfbdc9c63e0b8a7a7822cdc11c5a2e5f767a32d1003c30af86eaa6"),
    (
        ("--f-min", "0.004", "--lam-max", "0.995", "--steps", "100", "--log-base", "2"),
        "322d02b9c058c320e4c1a725f6809e7e9fdc436488867ec62f21b09822401e0b",
    ),
    (
        ("--f-min", "-1", "--f-max", "2", "--lam-min", "-3", "--steps", "37",
         "--log-base", "2.718281828459045"),
        "61c990884af638a812363154aa60436f02f7171743910f83ceef89aeaea24b54",
    ),
    (("--steps", "300", "--log-base", "10"), "46bb7030ab72b42787b3f6304e83f8a7aafb9cb49db591c002640eb43a92f2d2"),
]


@pytest.mark.parametrize("args, sha", GOLDEN_SWEEPS, ids=["default", "base-2", "clipped-base-e", "blocks-base-10"])
def test_sweep_reproducible_bytes(args, sha, tmp_path):
    out = tmp_path / "sweep.csv"
    assert tritkd("sweep", *args, "--out", str(out)).returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


def test_crossover_defaults(tmp_path):
    result = tritkd("crossover")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert abs(payload["v_max"] - 0.6629) <= 5e-4
    assert payload["v_max"] < CRITICAL_VISIBILITY
    assert abs(payload["argmax_f"] * payload["argmax_lam"] - payload["v_max"]) < 1e-12
    assert payload["bracket"] < payload["tolerance"] == 1e-6
    assert abs(payload["gap_residual"]) <= 1e-6
    assert isinstance(payload["iterations"], int) and payload["iterations"] >= 1

    coarse = json.loads(tritkd("crossover", "--tolerance", "1e-4").stdout)
    assert abs(coarse["v_max"] - payload["v_max"]) < 1e-4


def test_crossover_base_invariant():
    base3 = json.loads(tritkd("crossover").stdout)
    base2 = json.loads(tritkd("crossover", "--log-base", "2").stdout)
    assert abs(base3["v_max"] - base2["v_max"]) < 2e-6


# SHA-256 of `crossover --tolerance 1e-10` stdout in three log bases; a rewrite of the
# bracket or of the search must keep them.
GOLDEN_CROSSOVERS = {
    "2": "51eb590e4ac72cf5e574f6f8fe4acdee8972f37451648df5a84bf4696084ab13",
    "2.718281828459045": "deba00f5699440d6e069709f5e2bafde6a48f79119daecb405e02bd25c437fc6",
    "3": "8d7934fb54baca1499cd62d7f68cac13e69d8bac192463014b9058ad753a2c14",
}


@pytest.mark.parametrize("log_base", sorted(GOLDEN_CROSSOVERS))
def test_crossover_reproducible_bytes(log_base):
    result = tritkd("crossover", "--tolerance", "1e-10", "--log-base", log_base)
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == GOLDEN_CROSSOVERS[log_base]


# SHA-256 of (transcript.tsv, summary.json) for `simulate --trials 20000
# --seed 42` plus the source flags; a stream-preserving rewrite must keep them.
GOLDEN_RUNS = {
    "honest": (
        ("--honest",),
        "bfcd61ded6c0b65081433c4c13dac2a273c98b88b0ba0e0ad9ad09d820e06a5b",
        "b57c2db6e13101274844a34e8f1e4caa2eef0a59043bb43ea069f0cad7425317",
    ),
    "attack": (
        ("--f", "0.95", "--lam", "0.9"),
        "62b74103971cd70a8581a61ef389ad0cb4589fee896236670c07799957543095",
        "a99611b66e3e6531c4049849027ab6ed96b56f28d6143cceb301d0384c0a1d1e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_simulate_reproducible_bytes(name, tmp_path):
    source, transcript_sha, summary_sha = GOLDEN_RUNS[name]
    for workers in ("1", "4"):
        out = tmp_path / workers
        args = ("simulate", "--trials", "20000", "--seed", "42", *source)
        assert tritkd(*args, "--workers", workers, "--out", str(out)).returncode == 0
        assert hashlib.sha256((out / "transcript.tsv").read_bytes()).hexdigest() == transcript_sha
        assert hashlib.sha256((out / "summary.json").read_bytes()).hexdigest() == summary_sha


def test_simulate_attack_summary():
    result = tritkd("simulate", "--trials", "60000", "--seed", "7", "--f", "0.9", "--lam", "0.8")
    assert result.returncode == 0
    summary = json.loads(result.stdout)
    n = summary["sifted_length"]
    assert abs(summary["qber"] - 0.186667) < 3 * np.sqrt(0.186667 * (1 - 0.186667) / n)
    assert summary["aborted"] is False
    assert summary["source"] == "attack"


def test_simulate_undisturbed_attack():
    result = tritkd("simulate", "--trials", "20000", "--seed", "3", "--f", "1", "--lam", "1")
    summary = json.loads(result.stdout)
    assert summary["qber"] == 0.0
    assert summary["aborted"] is False


def test_simulate_without_bell_evidence_aborts():
    # ten trials leave some Bell-test setting pair unsampled
    result = tritkd("simulate", "--trials", "10", "--seed", "1", "--f", "0.5", "--lam", "0")
    assert result.returncode == 0
    summary = json.loads(result.stdout)
    assert summary["s_estimate"] is None
    assert summary["aborted"] is True
    assert "unavailable" in summary["abort_reason"]


def test_simulate_flag_validation():
    assert tritkd("simulate", "--trials", "10", "--seed", "1").returncode == 2
    assert tritkd("simulate", "--trials", "10", "--seed", "1", "--f", "0.5").returncode == 2
    assert tritkd("simulate", "--trials", "10", "--seed", "1", "--lam", "0.5").returncode == 2
    assert tritkd("simulate", "--trials", "10", "--seed", "1", "--honest", "--f", "0.5").returncode == 2
    assert (
        tritkd("simulate", "--trials", "10", "--seed", "1", "--honest", "--f", "1", "--lam", "1").returncode
        == 2
    )
    assert tritkd("simulate", "--trials", "10", "--seed", "1", "--f", "1.5", "--lam", "1").returncode == 2
    assert (
        tritkd("simulate", "--trials", "10", "--seed", "1", "--honest", "--weights", "1,2,3").returncode
        == 2
    )
    nan_weights = ",".join(["nan"] * 9)
    assert (
        tritkd("simulate", "--trials", "10", "--seed", "1", "--honest", "--weights", nan_weights).returncode
        == 2
    )
    assert (
        tritkd("simulate", "--trials", "10", "--seed", "1", "--honest", "--workers", "0").returncode
        == 2
    )


def test_simulate_unwritable_out_is_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    result = tritkd(
        "simulate", "--trials", "10", "--seed", "1", "--honest", "--out", str(blocker / "sub")
    )
    assert result.returncode == 1


def test_simulate_bad_workers_leaves_out_dir_empty(tmp_path):
    # the library rejects the count after the CLI made the directories and opened the transcript
    result = tritkd(*_SIMULATE, "--honest", "--workers", "0", "--out", str(tmp_path / "a" / "run"))
    assert result.returncode == 2
    assert "workers must be >= 1" in result.stderr
    assert list(tmp_path.iterdir()) == []


# The argv of a command that reaches each library call; a trailing --out takes a path.
_ENTRY_POINTS = {
    "sweep_rows": ["sweep", "--steps=2", "--out"],
    "format_csv": ["sweep", "--steps=2", "--out"],
    "find_crossover": ["crossover"],
    "run": [*_SIMULATE, "--honest"],
    "write_transcript": [*_SIMULATE, "--honest", "--out"],
}


@pytest.mark.parametrize("error", [ValueError, RuntimeError, OSError])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_main_maps_exceptions_to_exit_codes(monkeypatch, capsys, tmp_path, entry, error):
    # ValueError is a usage error, exit 2; RuntimeError and OSError exit 1
    def fail(*args, **kwargs):
        raise error("x")

    monkeypatch.setattr(cli, entry, fail)
    argv = _ENTRY_POINTS[entry]
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path / "out")]
    if error is ValueError:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    else:
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if error is ValueError:
        assert captured.err.endswith("\ntritkd: error: x\n")
    else:
        assert captured.err == "error: x\n"
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


@pytest.mark.parametrize("error", [RecursionError, NotImplementedError])
def test_main_lets_bugs_propagate(monkeypatch, capsys, error):
    # RuntimeError subclasses that only a bug raises keep their traceback, not exit 1
    def fail(*args, **kwargs):
        raise error("x")

    monkeypatch.setattr(cli, "run", fail)
    with pytest.raises(error):
        cli.main(_ENTRY_POINTS["run"])
    assert capsys.readouterr().err == ""


def test_simulate_out_of_memory_is_runtime_error(monkeypatch, capsys):
    import tritkd.cli

    def no_memory(config, workers=1):
        raise MemoryError

    monkeypatch.setattr(tritkd.cli, "run", no_memory)
    assert tritkd.cli.main(["simulate", "--trials", "10", "--seed", "1", "--honest"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_shard_out_of_memory_is_runtime_error(monkeypatch, capsys, tmp_path):
    # through the real shard threads: the shard's exception reaches main
    import tritkd.cli
    import tritkd.simulate

    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(tritkd.simulate, "_simulate_shard", no_memory)
    argv = ["simulate", "--trials", "10", "--seed", "1", "--honest", "--workers", "2"]
    assert tritkd.cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"

    # with --out the failed run leaves no transcript behind
    out = tmp_path / "run"
    assert tritkd.cli.main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"
    assert not (out / "transcript.tsv").exists()


@pytest.mark.parametrize(
    "fault, existed",
    [
        ("summary-is-dir", True),
        ("summary", False),
        ("summary-write", False),
        ("transcript", False),
        ("transcript", True),
    ],
)
def test_failed_simulate_out_leaves_nothing_new(monkeypatch, capsys, tmp_path, fault, existed):
    # a failed summary write used to leave the finished transcript behind, a summary.json that
    # failed after its open the file itself, and a failed transcript write the empty --out
    # directory that this call made; one that existed stays
    import tritkd.simulate

    def fail(*args, **kwargs):
        raise OSError("x")

    out = tmp_path / "run"
    if existed:
        out.mkdir()
    if fault == "summary-is-dir":
        (out / "summary.json").mkdir()
    elif fault == "summary-write":  # the disk fills once summary.json is open
        monkeypatch.setattr(tritkd.simulate, "json", SimpleNamespace(dumps=fail))
    else:
        monkeypatch.setattr(cli, f"write_{fault}", fail)
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["simulate", "--trials", "10", "--seed", "1", "--honest", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_simulate_out_keeps_a_symlinked_transcript(monkeypatch, capsys, tmp_path):
    # the summary write fails after the transcript went through the link; the link stays
    def fail(*args, **kwargs):
        raise OSError("x")

    out, target = tmp_path / "run", tmp_path / "target.tsv"
    out.mkdir()
    target.touch()
    (out / "transcript.tsv").symlink_to(target)
    monkeypatch.setattr(cli, "write_summary", fail)
    assert cli.main(["simulate", "--trials", "10", "--seed", "1", "--honest", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: x\n"
    assert (out / "transcript.tsv").is_symlink()
    assert target.stat().st_size > 0


def test_simulate_summary_failing_at_close_leaves_nothing_new(tmp_path):
    # the 97-byte transcript fits under the limit, the summary's buffered text fails at its
    # close: both files and the directory go
    out = tmp_path / "run"
    result = _with_file_size_limit(
        200, "simulate", "--trials", "1", "--seed", "1", "--honest", "--out", str(out)
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: [Errno 27] File too large\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fault", ["transcript", "summary"])
def test_failed_simulate_rerun_keeps_the_earlier_run(monkeypatch, capsys, tmp_path, fault):
    # both files are written to temporary files, which replace the earlier run's only when
    # both writes succeed
    def fail(*args, **kwargs):
        raise OSError("x")

    out = tmp_path / "run"
    assert tritkd("simulate", "--trials", "10", "--seed", "1", "--honest", "--out", str(out)).returncode == 0
    before = {path: path.read_bytes() for path in out.iterdir()}
    rerun = ["simulate", "--trials", "100000", "--seed", "2", "--honest", "--out", str(out)]
    if fault == "transcript":  # the 1.8 MB transcript passes the file size limit
        result = _with_file_size_limit(65536, *rerun)
        assert (result.returncode, result.stderr) == (1, "error: [Errno 27] File too large\n")
    else:  # the new transcript is complete when the summary write fails
        monkeypatch.setattr(cli, "write_summary", fail)
        assert cli.main(rerun) == 1
        assert capsys.readouterr().err == "error: x\n"
    assert sorted(before) == [out / "summary.json", out / "transcript.tsv"]
    assert {path: path.read_bytes() for path in out.iterdir()} == before


def _holds_bytes(path) -> bool:
    try:
        return path.stat().st_size > 0
    except FileNotFoundError:  # renamed or removed since it was listed
        return False


def _killed_mid_write(cwd, *args) -> int:
    """The return code of tritkd *args run in cwd, sent SIGKILL as soon as a hidden temporary
    .*.tmp under cwd holds bytes; a child that exits first keeps its own return code."""
    child = subprocess.Popen(
        [sys.executable, "-m", "tritkd", *args], cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    try:
        deadline = time.monotonic() + 60
        while child.poll() is None and not any(map(_holds_bytes, Path(cwd).rglob(".*.tmp"))):
            assert time.monotonic() < deadline, "no temporary file held bytes within 60 s"
            time.sleep(0.001)
        child.send_signal(signal.SIGKILL)
        return child.wait(timeout=60)
    finally:
        child.kill()
        child.wait(timeout=60)


@pytest.mark.parametrize(
    "first, rerun",
    [
        (["sweep", "--steps", "2", "--out", "keep.csv"], ["sweep", "--steps", "1500", "--out", "keep.csv"]),
        (
            ["simulate", "--trials", "10", "--seed", "1", "--honest", "--out", "D"],
            ["simulate", "--trials", "10000000", "--seed", "2", "--f", "0.9", "--lam", "0.8", "--out", "D"],
        ),
    ],
    ids=["sweep", "simulate"],
)
def test_killed_rerun_keeps_the_earlier_output(first, rerun, tmp_path):
    # a run killed mid-write never renames its temporary over the earlier output, which stays
    # byte for byte; no cleanup runs on SIGKILL, so the hidden temporary may stay behind, and
    # nothing is synced to disk, so a power loss is not covered
    assert tritkd(*first, cwd=tmp_path).returncode == 0
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert _killed_mid_write(tmp_path, *rerun) == -signal.SIGKILL  # not a run that finished
    after = {path: path.read_bytes() for path in tmp_path.rglob("[!.]*") if path.is_file()}
    assert after == before


@pytest.mark.parametrize("existed", [None, "a"])
def test_failed_simulate_out_removes_the_parents_it_made(monkeypatch, capsys, tmp_path, existed):
    # every directory that mkdir(parents=True) made goes, deepest first; one that existed stays
    def fail(*args, **kwargs):
        raise OSError("x")

    if existed:
        (tmp_path / existed).mkdir()
    monkeypatch.setattr(cli, "write_transcript", fail)
    out = tmp_path / "a" / "b" / "run"
    assert cli.main(["simulate", "--trials", "10", "--seed", "1", "--honest", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: x\n"
    assert sorted(tmp_path.rglob("*")) == ([tmp_path / existed] if existed else [])


def test_simulate_out_without_pwrite_is_io_error(monkeypatch, capsys, tmp_path):
    # where os.pwrite is missing, --out exits 1 with a message, not a traceback
    import tritkd.cli
    import tritkd.simulate

    monkeypatch.delattr(tritkd.simulate.os, "pwrite")
    out = tmp_path / "run"
    argv = ["simulate", "--trials", "10", "--seed", "1", "--honest", "--out", str(out)]
    assert tritkd.cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: writing a transcript needs os.pwrite, which this platform lacks\n"
    assert not (out / "transcript.tsv").exists()


@pytest.mark.parametrize(
    "message",
    [r"the information gap does not change sign between v = 0\.6\d+ and 0\.6\d+"],
    ids=["confirmation"],
)
def test_crossover_without_bracket_is_runtime_error(monkeypatch, capsys, message):
    # the gap read as nonnegative everywhere, so the fixed bracket's confirmation fails
    import tritkd.sweep

    best_gap = tritkd.sweep._best_gap

    def no_sign_change(v):
        gap, f = best_gap(v)
        return np.abs(gap), f

    monkeypatch.setattr(tritkd.sweep, "_best_gap", no_sign_change)
    assert cli.main(["crossover"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: {message}\n", captured.err)
