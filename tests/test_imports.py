"""Every name a module of the package imports is used in that module.

A stdlib `ast` pass, so it needs no linter: an import whose line carries
`# noqa: F401` is kept on purpose (a name another module reaches through
this one) and is not reported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "retline"


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import_and_honours_noqa():
    source = ("from .tensor import (\n"
              "    matmul,\n"
              "    permute,  # noqa: F401  re-exported\n"
              "    sigmoid,\n"
              ")\n"
              "import numpy as np\n"
              "y = sigmoid(np.zeros(1))\n")
    assert unused_imports(source) == [(2, "matmul")]
