"""The package's public name list stays in step with its modules, no
module imports a name it does not read, and no private function or class
of the package goes unread."""

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


def unread_privates(sources: dict[str, str]) -> list[str]:
    """The module-level private functions and classes (one leading
    underscore, not a dunder) of the given modules, keyed by module name,
    that no code outside their own definition reads, as a name or as an
    attribute.  A read in any module counts, so a helper imported or
    reached as module._f elsewhere is read; recursion alone is not."""
    defined, read = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = None
            if (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
                    and top.name.startswith("_")
                    and not top.name.startswith("__")):
                owner = top.name
                defined.append((module, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if isinstance(node.ctx, ast.Load) and name != owner:
                    read.add(name)
    return [f"{module}: {name}" for module, name in defined
            if name not in read]


def test_unread_privates_are_caught():
    assert unread_privates({
        "m": "def _f(n):\n    return _f(n - 1)\n\n"
             "class _C:\n    pass\n\n"
             "def _g():\n    return 'g'\n\n"
             "def g():\n    return '_g()'\n\n"
             "def __getattr__(name):\n    pass\n"}) \
        == ["m: _f", "m: _C", "m: _g"]
    # read from another module, as an attribute or in an annotation
    assert unread_privates({
        "a": "def _f():\n    pass\n\ndef _g():\n    pass\n\n"
             "class _K:\n    pass\n",
        "b": "import a\nfrom a import _f\n\n"
             "def h(k: a._K) -> None:\n    return _f() + a._g()\n"}) \
        == []


def test_no_private_function_or_class_goes_unread():
    package = ROOT / "src" / "keisler_lab"
    assert unread_privates({path.name: path.read_text()
                            for path in sorted(package.glob("*.py"))}) == []
