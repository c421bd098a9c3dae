"""What each entry point loads, in a fresh interpreter.

`import chainalg` loads the rings and the exact matrices only, so a process
that needs nothing else compiles nothing else.  `import chainalg.cli` loads
every module of the package at import, so that no command compiles a
module on its first call.
"""

import json
import subprocess
import sys
from pathlib import Path

import chainalg

SRC = Path(chainalg.__file__).resolve().parents[1]

_LOADED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import {}
print(json.dumps(sorted(m for m in sys.modules
                        if m == "chainalg" or m.startswith("chainalg."))))
"""


def _loaded(module):
    out = subprocess.run([sys.executable, "-c", _LOADED.format(module),
                          str(SRC)], check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out)


def test_import_chainalg_loads_rings_and_matrices_only():
    assert _loaded("chainalg") == [
        "chainalg", "chainalg.matrices", "chainalg.rings"]


def test_import_cli_loads_every_module():
    every = ["chainalg"] + sorted(
        f"chainalg.{p.stem}" for p in (SRC / "chainalg").glob("*.py")
        if p.stem != "__init__")
    assert _loaded("chainalg.cli") == every
