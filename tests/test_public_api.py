"""Every name the package exports has a caller in the library or the scripts.

A name that only tests use is not public API: it is dead weight that the
library has to keep working.  A use is a load of the bare name or an
attribute access by that name, anywhere in src/destrada/*.py other than
__init__.py, or in scripts/*.py.
"""

import ast
from pathlib import Path

import destrada

ROOT = Path(__file__).resolve().parent.parent


def used_names() -> set[str]:
    files = [*(ROOT / "src" / "destrada").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    names = set()
    for path in files:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_non_test_caller():
    unused = sorted(set(destrada.__all__) - used_names())
    assert unused == [], f"exported but used only by tests: {unused}"
