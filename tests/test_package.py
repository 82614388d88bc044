"""Import-path guards: what a fresh ``import walkindex`` loads and exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import walkindex

# Imports every walkindex module in a fresh interpreter, then reports the
# modules loaded and any ``__all__`` entry that does not resolve.
_PROBE = """
import importlib, json, pkgutil, sys
import walkindex
modules = [walkindex] + [
    importlib.import_module(f"walkindex.{info.name}")
    for info in pkgutil.iter_modules(walkindex.__path__)
]
stale = [f"{m.__name__}.{name}" for m in modules
         for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
print(json.dumps({"scipy": "scipy" in sys.modules, "stale": stale}))
"""


def _probe() -> dict:
    src = str(Path(walkindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_fresh_import_loads_no_scipy_and_exports_resolve():
    # importing scipy.linalg would dominate the package's start-up time
    result = _probe()
    assert result["scipy"] is False
    assert result["stale"] == []
