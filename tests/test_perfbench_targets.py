"""The benchmark tracer's targets must name functions that exist.

perfbench/spans.py rebinds each (module, attribute) pair in TARGETS; a
renamed or deleted function would otherwise surface only in a traced
benchmark run.  spans.py imports the standard library alone, so it is
loaded here from its file.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", sorted(load_spans().TARGETS))
def test_span_target_resolves_under_src(module, attr):
    mod = importlib.import_module(module)
    assert (REPO / "src") in Path(mod.__file__).resolve().parents
    assert callable(getattr(mod, attr, None)), f"{module}.{attr} is gone"
