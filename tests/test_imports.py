"""Every name a module of the package, of its tests or of perfbench imports
is used in that module.

A stdlib ast check: an import binds a name, and the module must read that
name somewhere or list it in __all__.  __future__ imports are exempt.
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
