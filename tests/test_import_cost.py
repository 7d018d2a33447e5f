"""``import repro`` stays lean: heavy optional packages load only on use.

scipy loads only when the MILP oracle runs; networkx only when a
scheduling hypergraph is exported with ``to_networkx()``.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro


def _loaded_after_import(package: str) -> str:
    """Sorted names of *package*'s modules loaded by ``import repro, repro.cli``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, repro, repro.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return out.stdout.strip()


def test_import_repro_leaves_scipy_unloaded():
    assert _loaded_after_import("scipy") == "[]"


def test_import_repro_leaves_networkx_unloaded():
    assert _loaded_after_import("networkx") == "[]"

