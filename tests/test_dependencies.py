"""numpy is the one runtime dependency: `pyproject.toml` declares it alone, and importing the package and its
CLI loads no scipy module. scipy may be installed next to numpy, and one stray `import scipy.linalg` would
add about 28 MB of resident memory and a quarter of a second to every process that starts the CLI."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_importing_the_package_and_its_cli_loads_no_scipy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = "import json, sys, lrtensor, lrtensor.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    loaded = json.loads(proc.stdout)
    assert "lrtensor.cli" in loaded
    assert [name for name in loaded if name.startswith("scipy")] == []


def test_numpy_is_the_only_declared_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]
