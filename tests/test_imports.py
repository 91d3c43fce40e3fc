"""Every module of the package reads each name it imports, and the
package exports exactly what ``__init__.py`` imports.

No linter is among the test dependencies, so these stdlib ``ast`` checks
catch the imports and exports that a deletion leaves behind.
``__init__.py`` is left out of the unused-import check: its imports are the
package's exports, which ``__all__`` must list.
"""

import ast
from pathlib import Path

import pytest

import dinaq

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dinaq"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.AST) -> list[str]:
    """Names bound by the imports of a parsed module."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return bound


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that its code never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported_names(tree)) - read)


def test_unused_imports_finds_what_no_code_reads():
    source = (
        "import numpy as np\nimport os.path\nfrom functools import partial\n"
        "from typing import Mapping\n"
        "def f(x: Mapping[str, int]) -> int:\n    return np.size(x)\n"
    )
    assert unused_imports(source) == ["os", "partial"]


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_every_import(name):
    assert unused_imports((PACKAGE / name).read_text()) == []


def test_package_exports_what_it_imports():
    imported = imported_names(ast.parse((PACKAGE / "__init__.py").read_text()))
    assert [n for n in dinaq.__all__ if not hasattr(dinaq, n)] == []
    assert sorted(set(imported) - set(dinaq.__all__)) == []


def test_only_tmatrix_reads_the_lattice_pass():
    """Every lattice pass runs through one of tmatrix's rate passes, so no
    other module imports or reads ``_kronecker_pass``."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        if "_kronecker_pass" in names:
            readers.append(path.name)
    assert readers == ["tmatrix.py"]


def orphaned_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private names defined in ``sources`` (module name to
    source) that no code in any of them reads, outside the name's own
    definition."""
    defined, reads = set(), set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = set()
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = own = {top.name}
            elif isinstance(top, ast.Assign):
                names = {t.id for t in top.targets if isinstance(t, ast.Name)}
            elif isinstance(top, ast.AnnAssign) and isinstance(top.target, ast.Name):
                names = {top.target.id}
            else:
                names = set()
            defined |= {(module, n) for n in names if n.startswith("_") and not n.endswith("__")}
            found = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.alias):
                    found.add(node.name)
            # a definition's reads of its own name, as in recursion, do not count
            reads |= found - own
    return sorted(f"{module}.{name}" for module, name in defined if name not in reads)


def test_orphaned_privates_finds_what_nothing_reads():
    sources = {
        "a": "_LIMIT = 3\n_SPARE = 4\ndef _walk(n):\n    return _walk(n - 1)\n"
        "def _used():\n    return _LIMIT\n",
        "b": "from .a import _used\n",
    }
    assert orphaned_privates(sources) == ["a._SPARE", "a._walk"]


def test_no_orphaned_private_helpers():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert orphaned_privates(sources) == []
