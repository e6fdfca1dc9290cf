"""The third-party modules the package imports are exactly the ones that
pyproject.toml declares as its dependencies, every module uses what it
imports, and every public name has a caller that is not a test."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arplace

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
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in declared}
    third_party = {name for name in _imported_top_level_modules(Path(arplace.__file__).parent)
                   if name not in sys.stdlib_module_names}
    assert third_party == declared


def _unused_imports(path: Path) -> list[str]:
    """Names that the module imports but never reads. `from __future__`
    imports and lines marked `# noqa: F401` (a name kept for callers
    elsewhere) are left out."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_src_has_no_unused_imports():
    modules = sorted(Path(arplace.__file__).parent.glob("*.py"))
    assert [p for p in modules if p.name != "__init__.py"]
    assert [u for p in modules if p.name != "__init__.py" for u in _unused_imports(p)] == []


def _referenced_names(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every name and attribute the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.id, node.lineno) if isinstance(node, ast.Name) else (node.attr, node.lineno)
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


# public names that only tests call, each with the reason it stays
NO_CALLER_NEEDED = {
    # acceptance criterion 5 checks the map algebra with it
    "placemap.union_edges",
    # acceptance criterion 7 checks the duration reduction with it
    "evaluation.TransformPoint.reduction",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function or class
    and of each public method or property of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_public_names_have_a_caller():
    """Each public module-level function or class of src/arplace (but
    __init__.py, which only re-exports), and each public method or property
    of such a class, is referenced by its name outside its own definition,
    in src/ or in perfbench/. Code that only tests reach gets a caller or is
    deleted."""
    package = Path(arplace.__file__).parent
    callers = sorted(package.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    references = {path: _referenced_names(path) for path in callers}
    uncalled = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualname, node in _public_definitions(ast.parse(path.read_text(), filename=str(path))):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (other != path or line not in own)
                       for other, refs in references.items() for name, line in refs):
                uncalled.append(f"{path.stem}.{qualname}")
    assert sorted(set(uncalled) - NO_CALLER_NEEDED) == []
    assert NO_CALLER_NEEDED <= set(uncalled), "an allowlisted name has a caller now"


_FAILING_HYPOTHESIS_FILE = '''
import warnings

import pytest
from hypothesis import given, strategies as st


@given(st.integers())
def test_generated_example_fails(x):
    assert x < 5


def test_the_same_warning_from_elsewhere_is_an_error():
    with pytest.raises(DeprecationWarning):
        warnings.warn("mypy_extensions.TypedDict is deprecated", DeprecationWarning)


def test_the_next_test_runs():
    pass
'''


def test_a_failing_hypothesis_example_is_reported(tmp_path):
    """Printing a falsifying example imports libcst, whose import warns. The
    one ignore entry of filterwarnings lets the session report the failure
    and go on; that warning from any other module stays an error."""
    (tmp_path / "test_generated.py").write_text(_FAILING_HYPOTHESIS_FILE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                          "test_generated.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout
    assert "1 failed, 2 passed" in run.stdout
    assert "Falsifying example: test_generated_example_fails(" in run.stdout
    assert run.returncode == 1


def test_the_readme_library_example_runs():
    """The README's "Library example" runs as written, so a renamed or
    deleted public name cannot leave it stale."""
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library example"):]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    run = subprocess.run([sys.executable, "-c", example], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
