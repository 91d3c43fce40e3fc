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
