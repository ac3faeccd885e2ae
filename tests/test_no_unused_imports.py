"""Every name a deferkit module imports is used in that module or listed in
its ``__all__``. No linter ships with the package's test tools, so this
guard parses each module with ``ast``."""

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
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_unused_imports_finds_an_unused_name():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from .a import b, c\n__all__ = ['b']\nx = np.zeros(1)\n")
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
