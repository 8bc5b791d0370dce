"""The names that the benchmark in perfbench/ patches and imports still exist in tritkd.

Only `perfbench/run.py --smoke` exercises them otherwise.  These tests read
perfbench/ and change nothing there.
"""

import importlib.util
from pathlib import Path

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
