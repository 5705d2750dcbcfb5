"""The demos stay runnable: every name they import from beamsight resolves,
and the quick ones run to completion.  The benchmark's scripts import from
beamsight too; their names must resolve as well."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demos 04 and 05 train models for about a minute each; only their
# imports are checked
QUICK = [d for d in DEMOS if d.name.startswith(("01_", "02_", "03_"))]
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def beamsight_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every ``from beamsight... import name`` in a file."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "beamsight"
            for alias in node.names]


@pytest.mark.parametrize("demo", DEMOS + BENCH,
                         ids=lambda p: p.name if p.parent.name == "demos" else f"perfbench/{p.name}")
def test_demo_imports_resolve(demo):
    imports = beamsight_imports(demo)
    assert imports or demo in BENCH
    # a name is an attribute of its module or one of its submodules
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)
               and importlib.util.find_spec(f"{module}.{name}") is None]
    assert not missing, f"{demo.name} imports names that no longer exist: {missing}"


@pytest.mark.parametrize("demo", QUICK, ids=lambda p: p.name)
def test_quick_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
