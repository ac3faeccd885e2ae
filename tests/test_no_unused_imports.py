"""Every name a deferkit module imports is used in that module or listed in
its ``__all__``, and every name its ``__all__`` lists is bound in it. No
linter ships with the package's test tools, so these guards parse each
module with ``ast``."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "deferkit").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names (``__future__`` aside) that the source neither reads
    nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as np.asarray starts at the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exports(tree))


def exports(tree: ast.Module) -> set[str]:
    """The names the module's ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unbound_exports(source: str) -> list[str]:
    """Names in ``__all__`` that no top-level definition, assignment or
    import of the source binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    return sorted(exports(tree) - bound)


def test_unused_imports_finds_an_unused_name():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from .a import b, c\n__all__ = ['b']\nx = np.zeros(1)\n")
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unbound_exports_finds_a_listed_name_that_is_gone():
    source = ("import numpy as np\nfrom .a import b\nX: int = 1\ny, z = 2, 3\n"
              "def f():\n    gone = 1\nclass C:\n    pass\n"
              "__all__ = ['np', 'b', 'X', 'y', 'f', 'C', 'gone']\n")
    assert unbound_exports(source) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_exports_only_names_it_binds(path):
    assert unbound_exports(path.read_text()) == []
