"""Every cross-reference role in the ``src/sbk`` docstrings names an object.

A deletion or a rename can leave a ``:func:`name``` behind that points at
nothing; this reads every ``:func:``, ``:meth:``, ``:class:``, ``:data:``,
``:attr:`` and ``:mod:`` role in each module and resolves its target, in the
module itself or, for a dotted ``sbk.`` path, from the package down.  A
leading ``~`` only shortens the rendered name and is ignored."""

import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sbk"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
ROLE = re.compile(r":(?:func|meth|class|data|attr|mod):`~?([\w.]+)`")


def _resolves(module, target: str) -> bool:
    obj, parts = module, target.split(".")
    if parts[0] == "sbk":
        # the longest importable prefix is the module, the rest attributes
        for k in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:k]))
            except ImportError:
                continue
            parts = parts[k:]
            break
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _unresolved(module, text: str) -> list[str]:
    return [target for target in ROLE.findall(text) if not _resolves(module, target)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_roles_resolve(name):
    module = importlib.import_module("sbk" if name == "__init__" else f"sbk.{name}")
    assert _unresolved(module, (SRC / f"{name}.py").read_text()) == []


def test_roles_are_read_and_a_stale_one_is_found():
    text = "".join((SRC / f"{name}.py").read_text() for name in MODULES)
    assert len(ROLE.findall(text)) > 50
    combing = importlib.import_module("sbk.combing")
    text = (":func:`comb` :meth:`ActionTable.round_trip_failures` :mod:`sbk.iterates` "
            ":attr:`~sbk.combing.ActionTable.steps` :func:`sbk.abelian.snf` "
            ":func:`deleted_function` :class:`sbk.words.NoSuchWord`")
    assert _unresolved(combing, text) == ["deleted_function", "sbk.words.NoSuchWord"]
