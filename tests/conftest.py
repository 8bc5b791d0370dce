"""Make the source tree importable by the CLI subprocesses the tests start.

pyproject's pythonpath setting puts src/ on this process's sys.path only;
`python -m tritkd` in a subprocess finds the package through PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
