"""The package's public name list stays in step with its modules, and
no module imports a name it does not read."""

import ast
from pathlib import Path

import pytest

import keisler_lab

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    names = keisler_lab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(keisler_lab, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from keisler_lab import *", namespace)
    assert set(keisler_lab.__all__) <= set(namespace)


def unused_imports(source: str) -> list[str]:
    """The names a module imports that no expression of it reads: a name
    bound by an import and never loaded as a name or as the base of an
    attribute.  `import a.b` binds a; `from m import *` binds nothing
    that can be checked, and a `__future__` import is a compiler flag."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


def test_unused_imports_are_caught():
    assert unused_imports("import os\nimport re, sys as s\nre.compile\n") \
        == ["line 1: os", "line 2: s"]
    # a name that appears only inside a string is not read
    assert unused_imports("from m import evaluate\nx = 'evaluate(y)'\n") \
        == ["line 1: evaluate"]
    assert unused_imports("from __future__ import annotations\n"
                          "import a.b\n\ndef f(x: a.b.C) -> None:\n"
                          "    pass\n") == []


MODULES = sorted(
    [path for path in (ROOT / "src" / "keisler_lab").glob("*.py")
     if path.name != "__init__.py"] + list((ROOT / "tests").glob("*.py")))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_does_not_read(path):
    assert unused_imports(path.read_text()) == []
