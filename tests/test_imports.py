"""No module of the package imports a name it never uses or defines a
private helper nothing uses, and only ``combine`` splits a qualified name.

A name a module imports at top level must appear in its code or in its
``__all__``; ``from __future__`` imports are exempt. Deleting the last use
of an imported name then fails here until the import goes too.

A private top-level function, class or constant (``_name``) must be named
somewhere in the package outside its own definition, so deleting its last
caller fails here until the helper goes too.

Which app holds a class is read from ``combine.holders``, not off the origin
app in a qualified name ``"app/Class"``, so no other module splits on ``/``.
"""

import ast
import re
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "iccflow").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_guard_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, re\nfrom x import a, b as c\n"
    assert unused_imports(source + "re.compile(c)\n__all__ = ['a']\n") == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_private(sources: list[str]) -> list[str]:
    """The private top-level names of ``sources`` no other statement names."""
    defined: list[tuple[str, ast.stmt]] = []
    named: list[tuple[ast.stmt, set[str]]] = []
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(n, stmt) for n in names if n.startswith("_") and not n.startswith("__")]
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.alias):
                    refs.add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    refs.add(node.value)  # a quoted annotation
            named.append((stmt, refs))
    return [n for n, home in defined if not any(n in refs for stmt, refs in named if stmt is not home)]


def test_the_guard_sees_an_unused_private_helper():
    module = "_LIMIT = 3\n_UNUSED = 4\ndef _helper(n):\n    return _helper(n - 1)\ndef run(x: '_Box'):\n    return _LIMIT\n"
    other = "from .m import _used\nclass _Box:\n    pass\ndef _used():\n    pass\n"
    assert unused_private([module, other]) == ["_UNUSED", "_helper"]


def test_no_unused_private_helpers():
    assert unused_private([path.read_text(encoding="utf-8") for path in MODULES]) == []


def name_splits(source: str) -> list[int]:
    """The numbers of the lines that split a string on ``/``."""
    return [n for n, line in enumerate(source.splitlines(), 1) if re.search(r"split\(\s*[\"']/[\"']", line)]


def test_the_guard_sees_a_split_name():
    source = 'a = "x/y"\norigin = name.rsplit("/", 1)[0]\nparts = name.split( \'/\')\nb = a.split(",")\n'
    assert name_splits(source) == [2, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "combine.py"], ids=lambda p: p.name)
def test_only_combine_splits_a_qualified_name(path):
    assert name_splits(path.read_text(encoding="utf-8")) == []
