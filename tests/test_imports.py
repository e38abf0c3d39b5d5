"""Every name a module of the package, of its tests or of perfbench imports
is used in that module, every name it lists in __all__ is bound in it,
every function of tests/conftest.py is read by a test and bound by no test
module under the same name or imported from another test module, every
helper a test module defines is read in it, and every public name the
package defines is part of the product.

A stdlib ast check: an import binds a name, and the module must read that
name somewhere or list it in __all__.  __future__ imports are exempt.  A
name in __all__ must be bound at the module's top level, by an import, a
def, a class or an assignment, or `from module import *` fails on it.  A
conftest function or fixture must be reached from a test module, as a name,
an attribute or a fixture argument, directly or through conftest functions
that are; pytest hooks are exempt.  A test module's top-level def, class
or assignment must not take a conftest function's name.  A helper that
test modules share lives in conftest.py: no module of tests/ imports from
a test_*.py module.  A test module's top-level def, class or assignment
that is not a test must be read by another of its top-level statements,
as a name, an attribute or a fixture argument.  A public top-level name
of the package (a def, class or assignment not starting with "_") must be
read by another top-level statement of the package, be listed in an
__all__, or be named in backticks in the README's "Library tour"; a
function only tests call belongs in tests/conftest.py.
"""

import ast
import re
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


def helper_defs(tree) -> dict[str, ast.FunctionDef]:
    """conftest's functions and fixtures by name, pytest hooks aside."""
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("pytest_")}


def unread_helpers(conftest: str, modules: list[str]) -> list[str]:
    tree = ast.parse(conftest)
    defs = helper_defs(tree)
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


def redefined_helpers(conftest: str, module: str) -> list[str]:
    """The conftest functions a test module binds again at its top level,
    where the module's own name would hide the shared one."""
    bound = set().union(*map(defined_names, ast.parse(module).body))
    return sorted(helper_defs(ast.parse(conftest)).keys() & bound)


def test_the_check_finds_a_redefined_helper():
    conftest = ("import pytest\n"
                "def support(f): pass\ndef evaluate(f, x): pass\n"
                "@pytest.fixture\ndef table(): return 1\n")
    module = ("from conftest import evaluate\n"
              "def support(field): return field\n"
              "table = 1\n"
              "def test_x():\n    def evaluate(): pass\n")
    assert redefined_helpers(conftest, module) == ["support", "table"]


def test_no_test_module_redefines_a_conftest_function():
    tests = ROOT / "tests"
    conftest = (tests / "conftest.py").read_text()
    assert [f"{p.name}:{name}" for p in sorted(tests.glob("test_*.py"))
            for name in redefined_helpers(conftest, p.read_text())] == []


def imported_test_modules(source: str, test_modules: set[str]) -> list[str]:
    """The modules of test_modules that source imports, or imports from."""
    nodes = list(ast.walk(ast.parse(source)))
    imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in nodes
                 if isinstance(n, ast.ImportFrom) and not n.level}
    return sorted({name.split(".")[0] for name in imported if name} & test_modules)


def test_the_check_finds_an_import_from_a_test_module():
    source = ("import conftest, test_cli as cli\nfrom rotalign import fields\n"
              "def helper():\n    from test_fields.sub import FIELD_A\n")
    assert imported_test_modules(source, {"test_cli", "test_fields", "test_ga3"}) == [
        "test_cli", "test_fields"]


def test_no_test_module_imports_from_another():
    tests = ROOT / "tests"
    names = {p.stem for p in tests.glob("test_*.py")}
    assert [f"{p.name}:{name}" for p in sorted(tests.glob("*.py"))
            for name in imported_test_modules(p.read_text(), names)] == []


def unread_module_helpers(source: str) -> list[str]:
    """The names a module's top-level statements bind, tests aside, that no
    other of its top-level statements reads."""
    body = ast.parse(source).body
    reads = [(node, loaded_names(node) | {a.arg for a in ast.walk(node)
                                          if isinstance(a, ast.arg)})
             for node in body]
    return sorted(name for node in body for name in defined_names(node)
                  if not name.startswith("test_")
                  and not any(name in names for other, names in reads
                              if other is not node))


def test_the_check_finds_an_unread_module_helper():
    # a local of the same name, or a name bound by the statement that reads
    # it, does not read a helper
    source = ("LIMIT, (PAIR, SPARE) = 3, (1, 2)\nORPHAN = 4\nclass Model: pass\n"
              "def helper(): return LIMIT\ndef recursive(): return recursive()\n"
              "def table(): return Model()\ndef spare_fixture(): return 1\n"
              "def test_x(table): helper(), np.PAIR\n"
              "def test_y():\n    ORPHAN = 5\n")
    assert unread_module_helpers(source) == [
        "ORPHAN", "SPARE", "recursive", "spare_fixture"]


def test_every_helper_of_a_test_module_is_read_in_it():
    assert [f"{p.name}:{name}"
            for p in sorted((ROOT / "tests").glob("test_*.py"))
            for name in unread_module_helpers(p.read_text())] == []


def defined_names(node) -> set[str]:
    """The names a top-level statement defines: a def, a class, or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    return set()


def loaded_names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def tour_names(readme: str) -> set[str]:
    """The identifiers inside backticks in the README's "Library tour",
    outside its fenced code blocks."""
    tour = readme.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    tour = re.sub(r"^```.*?^```", "", tour, flags=re.S | re.M)
    return {name for span in re.findall(r"`([^`]+)`", tour)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def names_only_tests_reach(modules: dict[str, str],
                           documented: set[str]) -> list[str]:
    """module:name for each public top-level name of the modules that no
    other top-level statement reads, no __all__ lists and documented lacks."""
    statements = [(module, node) for module, source in modules.items()
                  for node in ast.parse(source).body]
    exported = {e for _, node in statements if "__all__" in defined_names(node)
                for e in ast.literal_eval(node.value)}
    reads = [(node, loaded_names(node)) for _, node in statements]
    return sorted(f"{module}:{name}" for module, node in statements
                  for name in defined_names(node)
                  if not name.startswith("_") and name not in exported | documented
                  and not any(name in names for other, names in reads
                              if other is not node))


def test_the_check_finds_a_test_only_name():
    modules = {
        "a.py": ("__all__ = ['exported']\n"
                 "def exported(): pass\n"
                 "def recursive(): return recursive()\n"
                 "def documented(): pass\n"
                 "def _private(): pass\n"
                 "def by_attribute(): pass\n"
                 "LIMIT, (LOW, HIGH) = 1, (0, 2)\n"
                 "def uses_limit(): return LIMIT + LOW\n"
                 "class Point:\n    def method(self): return helper()\n"),
        "b.py": ("from .a import uses_limit\nimport a\n"
                 "def helper(): uses_limit = 1; return a.by_attribute\n"
                 "if __name__ == '__main__':\n    helper()\n"),
    }
    # only backticks in the tour name a name, and a fenced block does not
    readme = ("`HIGH`\n## Library tour\n- `a.documented(x,\n  y)` and\n"
              "```python\nPoint\n```\n## Command line\n`recursive`\n")
    assert tour_names(readme) == {"a", "documented", "x", "y"}
    # an import, and a local of the same name, do not read uses_limit
    assert names_only_tests_reach(modules, tour_names(readme)) == [
        "a.py:HIGH", "a.py:Point", "a.py:recursive", "a.py:uses_limit"]


def test_the_package_keeps_no_test_only_name():
    package = {p.name: p.read_text()
               for p in sorted((ROOT / "src" / "rotalign").glob("*.py"))}
    documented = tour_names((ROOT / "README.md").read_text())
    assert names_only_tests_reach(package, documented) == []
