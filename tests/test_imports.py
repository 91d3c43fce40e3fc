"""Every module of the package reads each name it imports.

No linter is among the test dependencies, so this stdlib ``ast`` check
catches the imports that a deletion leaves behind. ``__init__.py`` is left
out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dinaq"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that its code never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - read)


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
