"""Every name a capfed module imports is used there, and no private name is there only for tests.

Each module, the package's __init__ included, is parsed with ast: a name
bound by an import statement must appear somewhere else in the module as a
name. A `_`-prefixed module-level function, class or constant (dunders
aside) must be read by some capfed module, as a name or as an attribute;
one that only tests read belongs in the tests.
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


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unread_private_names(sources: dict[str, str]) -> dict[str, str]:
    """Each module-level private name that no source reads, with the module that defines it.

    A read is a loaded name or an attribute of that spelling in any module,
    without resolving which module it names.
    """
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            for name in _defined_names(node):
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = module
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {name: module for name, module in defined.items() if name not in read}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == {}, path.name


def test_detects_an_unused_import():
    source = "import math\nimport os.path\nfrom typing import Hashable, Sequence\nx: Sequence[int] = os.sep\n"
    assert unused_imports(source) == {"math": 1, "Hashable": 3}


def test_no_private_name_is_only_for_tests():
    assert unread_private_names({p.name: p.read_text() for p in MODULES}) == {}


def test_detects_a_private_name_no_module_reads():
    sources = {
        "a.py": "_LIMIT = 3\n_UNREAD: int = 4\n__version__ = '1'\n"
                "def _helper():\n    return _LIMIT\nclass _OnlyTests:\n    pass\n",
        "b.py": "from . import a\nx = a._helper()\n",
    }
    assert unread_private_names(sources) == {"_UNREAD": "a.py", "_OnlyTests": "a.py"}
