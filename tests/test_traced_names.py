"""The benchmark's traced run names destrada callables by module and attribute.

perfbench/spans.py is loaded by path, unedited.  A rename in src/ that it
does not follow would crash `perfbench/run.py --trace 1`, so each TRACED
entry must resolve to a callable of this checkout, and the tracer must
install and uninstall cleanly.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(mod_name, attr):
    target = importlib.import_module(mod_name)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def test_every_traced_name_resolves_to_a_callable_of_this_checkout():
    spans = load_spans()
    assert len(spans.TRACED) == 18
    for name, (mod_name, attr) in spans.TRACED.items():
        module = importlib.import_module(mod_name)
        assert Path(module.__file__).resolve().is_relative_to(ROOT / "src"), name
        assert callable(resolve(mod_name, attr)), name


def test_tracer_installs_and_restores_every_name(tmp_path):
    spans = load_spans()
    before = {name: resolve(*where) for name, where in spans.TRACED.items()}
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        assert all(resolve(*where) != before[name] for name, where in spans.TRACED.items())
    finally:
        tracer.uninstall()
    assert {name: resolve(*where) for name, where in spans.TRACED.items()} == before
