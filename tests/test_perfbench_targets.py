"""The benchmark's tracer and oracle must agree with the program.

perfbench/spans.py rebinds each (module, attribute) pair in TARGETS; a
renamed or deleted function would otherwise surface only in a traced
benchmark run.  perfbench/oracle.py checks every simulate CSV against its
own copy of the header, so a header edit would fail every simulate op.
Neither is a package module, so both are loaded here from their files.
"""
import importlib
from pathlib import Path

import pytest

from bomric import cli

from conftest import REPO, load_perfbench


@pytest.mark.parametrize("module, attr", sorted(load_perfbench("spans").TARGETS))
def test_span_target_resolves_under_src(module, attr):
    mod = importlib.import_module(module)
    assert (REPO / "src") in Path(mod.__file__).resolve().parents
    assert callable(getattr(mod, attr, None)), f"{module}.{attr} is gone"


def test_oracle_csv_columns_match_cli():
    assert tuple(load_perfbench("oracle").CSV_COLUMNS) == cli.CSV_COLUMNS
