"""Every module-level import in ``src/sbk`` is used by its module, and
every public name of ``sbk`` is used by the package itself, the benchmark
or the acceptance tests.

A deletion can leave an import behind that nothing reads any more; this
parses each submodule with ``ast`` and names such imports.  The package's
``__init__.py`` is left out: it re-exports names by design.

A public name that only the unit tests read wraps something they could
call directly, so it is a second way to say what the kit already says;
the surface test names every such one."""

import ast
from pathlib import Path

import pytest

import sbk

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sbk"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
# the files whose reads make a public name part of the surface
SURFACE_READERS = ([SRC / m for m in MODULES] + sorted((ROOT / "perfbench").glob("*.py"))
                   + [ROOT / "tests" / "test_acceptance.py"])
# public names no such file reads yet, each with why it stays
UNREAD_PUBLIC = {
    "pn_triviality": "the word problem for P_n(RP^2); the exact one (ROADMAP item 7) "
                     "replaces it and gives it callers",
    "aij_from_sigma": "the only statement of a band letter in crossing letters",
}


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


def _names_read(tree: ast.Module) -> set[str]:
    """The names a module reads, as a name or as an attribute, outside the
    body of its own top-level definition of that name."""
    read = set()
    for node in tree.body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                name = sub.attr
            else:
                continue
            if name != own:
                read.add(name)
    return read


def _unread(names: list[str], trees: list[ast.Module]) -> list[str]:
    read = set().union(*map(_names_read, trees))
    return [name for name in names if name not in read]


def test_public_names_are_read_outside_the_unit_tests():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in SURFACE_READERS]
    functions = [name for name in sbk.__all__ if name != sbk._EXPORTS[name]]
    assert _unread(functions, trees) == sorted(UNREAD_PUBLIC)


def test_unread_public_name_is_found():
    # a name read only in its own body, or only written, is unread
    tree = ast.parse("def walk(w):\n    return walk(w[1:]) if w else w\n\n"
                     "def comb(w):\n    return walk(w).form\n\ntable = {}\n")
    assert _unread(["walk", "comb", "form", "table"], [tree]) == ["comb", "table"]
