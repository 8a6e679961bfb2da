"""Every public name of the library has a caller in the library.

A name that only tests use is not public API: it is dead weight that the
library has to keep working.  A use is a load of the bare name or an
attribute access by that name, anywhere in src/destrada/*.py other than
__init__.py.  The benchmark's traced names in perfbench/spans.py count
as uses too: the tracer wraps them by name.  The package itself
re-exports nothing: every name is imported from its submodule.  The
README's Library example runs as written.
"""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import destrada

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "destrada"


def used_names() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def traced_names() -> set[str]:
    """The last attribute of each (module, attribute) in perfbench/spans.py's TRACED."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    [table] = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    return {attr.rsplit(".", 1)[-1] for _, attr in ast.literal_eval(table).values()}


def public_definitions() -> list[tuple[str, str]]:
    """(where, name) of each public top-level function or class, and of each
    public method or property of those classes (dunder methods are private)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{path.stem}.{node.name}.{sub.name}", sub.name) for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                )
    return found


def test_the_package_binds_only_its_submodules_and_version():
    for info in pkgutil.iter_modules(destrada.__path__):
        importlib.import_module(f"destrada.{info.name}")
    public = {name: value for name, value in vars(destrada).items() if not name.startswith("_")}
    strays = sorted(
        name for name, value in public.items()
        if not (isinstance(value, types.ModuleType) and value.__name__ == f"destrada.{name}")
    )
    assert strays == [], f"the package binds names besides its submodules: {strays}"
    assert isinstance(destrada.__version__, str)
    assert not hasattr(destrada, "__all__")


def test_every_public_definition_has_a_non_test_caller():
    callers = used_names() | traced_names()
    unused = [where for where, name in public_definitions() if name not in callers]
    assert unused == [], f"defined but called only by tests: {unused}"


def test_the_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
