"""Every name a module of the package, of its tests or of perfbench imports
is used in that module, every name it lists in __all__ is bound in it, and
every function of tests/conftest.py is read by a test.

A stdlib ast check: an import binds a name, and the module must read that
name somewhere or list it in __all__.  __future__ imports are exempt.  A
name in __all__ must be bound at the module's top level, by an import, a
def, a class or an assignment, or `from module import *` fails on it.  A
conftest function or fixture must be reached from a test module, as a name,
an attribute or a fixture argument, directly or through conftest functions
that are; pytest hooks are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ([(p, p.name) for p in sorted((ROOT / "src" / "rotalign").glob("*.py"))]
           + [(p, f"{d}/{p.name}") for d in ("tests", "perfbench")
              for p in sorted((ROOT / d).glob("*.py"))])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read - exported)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom math import pi, tau\n"
              "__all__ = ['tau']\nprint(np.zeros(1), pi)\n")
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", [p for p, _ in MODULES],
                         ids=[name for _, name in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unbound_exports(source: str) -> list[str]:
    bound, exported = set(), set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported |= set(ast.literal_eval(node.value))
    return sorted(exported - bound)


def test_the_check_finds_an_unbound_export():
    source = ("import os.path\nfrom math import pi as tau\n"
              "X, (Y, Z) = 1, (2, 3)\nW: int = 4\n"
              "def f():\n    inner = 1\nclass C: pass\n"
              "__all__ = ['os', 'tau', 'pi', 'X', 'Z', 'W', 'f', 'C', 'inner',\n"
              "           'Rotor']\n")
    assert unbound_exports(source) == ["Rotor", "inner", "pi"]


@pytest.mark.parametrize("path", [p for p, _ in MODULES],
                         ids=[name for _, name in MODULES])
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text()) == []


def names_read(tree) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else
            n.attr if isinstance(n, ast.Attribute) else n.arg
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute, ast.arg))}


def unread_helpers(conftest: str, modules: list[str]) -> list[str]:
    tree = ast.parse(conftest)
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("pytest_")}
    reached = set()
    todo = set().union(*map(names_read, map(ast.parse, modules)),
                       *(names_read(node) for node in tree.body
                         if not isinstance(node, ast.FunctionDef)))
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo |= names_read(defs[name])
    return sorted(defs.keys() - reached)


def test_the_check_finds_an_unread_helper():
    conftest = ("import pytest\n"
                "def pytest_configure(config): pass\n"
                "def read(): return inner()\n"
                "def inner(): return 1\n"
                "def attribute(): pass\n"
                "@pytest.fixture\ndef table(): return 1\n"
                "def retired(): return chained()\n"
                "def chained(): return retired()\n")
    module = ("import conftest\nfrom conftest import read\n"
              "def test_x(table): read(), conftest.attribute()\n")
    assert unread_helpers(conftest, [module]) == ["chained", "retired"]


def test_every_conftest_function_is_read_by_a_test():
    tests = ROOT / "tests"
    modules = [p.read_text() for p in sorted(tests.glob("*.py"))
               if p.name != "conftest.py"]
    assert unread_helpers((tests / "conftest.py").read_text(), modules) == []
