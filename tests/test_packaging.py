"""The third-party modules the package imports are exactly the ones that
pyproject.toml declares as its dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

import arplace

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_level_modules(package_dir: Path) -> set[str]:
    names = set()
    for path in package_dir.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_imports_match_the_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in declared}
    third_party = {name for name in _imported_top_level_modules(Path(arplace.__file__).parent)
                   if name not in sys.stdlib_module_names}
    assert third_party == declared
