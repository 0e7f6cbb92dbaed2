"""Every module-level import in ``src/sbk`` is used by its module.

A deletion can leave an import behind that nothing reads any more; this
parses each submodule with ``ast`` and names such imports.  The package's
``__init__.py`` is left out: it re-exports names by design."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sbk"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert _unused_imports(tree) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nfrom typing import Any, Callable\n\nx: Any = os.sep\n")
    assert _unused_imports(tree) == ["Callable"]
