"""The names that the benchmark in perfbench/ patches and imports still exist in tritkd,
and its traced hooks read what a CLI run gives them.

Only `perfbench/run.py --smoke` exercises them otherwise.  These tests read
perfbench/ and change nothing there.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import tritkd.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_restores_every_patched_name():
    spans = _load("spans")
    targets = [(spans.tritkd.cli, attr) for attr in spans.CLI_SPANS] + list(spans.NESTED_SPANS)
    originals = [getattr(module, attr) for module, attr in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not original for (module, attr), original in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is original for (module, attr), original in zip(targets, originals))


def test_expected_row_resolves_its_imports():
    # _expected_row imports tritkd.attack's closed forms lazily, on its first call
    reals, flags = _load("checks")._expected_row(0.5, 0.5)
    assert len(reals) == 9
    assert reals[2] == 0.25
    assert flags == (0, 0)


@pytest.mark.parametrize("out", [False, True], ids=["run", "out"])
def test_traced_simulate_hooks(out, tmp_path, capsys):
    # the hooks the traced benchmark jobs run after each wrapped call, on an attacked simulate
    argv = ["simulate", "--trials", "2000", "--seed", "3", "--f", "0.9", "--lam", "0.8"]
    path = tmp_path / "run" / "transcript.tsv"
    if out:
        argv += ["--out", str(path.parent)]
    tracer = _load("spans").Tracer()
    tracer.install()
    try:
        assert tritkd.cli.main(argv) == 0
    finally:
        trace = tracer.finish(0.0, 0.0)
    printed = json.loads(capsys.readouterr().out)
    if out:
        assert trace["spans"]["simulate.write_transcript"]["bytes"] == path.stat().st_size
    else:
        assert trace["spans"]["simulate.run"]["sifted"] == printed["sifted_length"]
        assert trace["pool"]["identical"]
