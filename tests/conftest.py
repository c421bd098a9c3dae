"""Makes the package importable from an uninstalled checkout.

`src/` is put on `sys.path` only when `chainalg` cannot be imported
otherwise, so that an installed package, or a copy first on PYTHONPATH
(the mutated copies of `tests/mutants.py`), keeps precedence.
"""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("chainalg") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
