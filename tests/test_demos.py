"""Demos: every extremctl name a demo imports resolves, and the two fast
demos run to completion and print the pinned bytes."""

import ast
import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def extremctl_imports(path):
    """(module, name or None) for every extremctl import in a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "extremctl":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "extremctl"]
    return found


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = extremctl_imports(demo)
    assert imports, f"{demo.name} imports nothing from extremctl"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{demo.name}: {module} has no {name}"


# sha256 of each fast demo's stdout, taken with Python 3.11.7 and numpy
# 2.4.6 on x86-64 Linux; another float formatting or libm may change it.
FAST_DEMO_STDOUT = {
    "01_pose_mapping.py": "39d9201520243166c05288a5f15287ed3a40dcef506189e94a8196e09a2ccf52",
    "02_feedforward_delay_curve.py": "e6e75ca720bcaacfc84b6fad14099a764dd5ce1f0b2e1ca315ac38249e0c9093",
}


@pytest.mark.parametrize("name", sorted(FAST_DEMO_STDOUT))
def test_fast_demo_runs(name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == FAST_DEMO_STDOUT[name], f"{name} stdout sha256 {digest}"
