"""Let subprocesses started by tests import the package from ``src``.

``pythonpath`` in pyproject.toml covers the test process itself; the CLI
tests also start ``python -m llt_lab.cli``, which reads PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
