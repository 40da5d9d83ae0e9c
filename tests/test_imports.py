"""Every name a capfed module imports is used in that module.

Each module, the package's __init__ included, is parsed with ast: a name
bound by an import statement must appear somewhere else in the module as a
name.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).parent.parent / "src" / "capfed").glob("*.py"))


def unused_imports(source: str) -> dict[str, int]:
    """Each imported name that is never referenced, with its line."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == {}, path.name


def test_detects_an_unused_import():
    source = "import math\nimport os.path\nfrom typing import Hashable, Sequence\nx: Sequence[int] = os.sep\n"
    assert unused_imports(source) == {"math": 1, "Hashable": 3}
