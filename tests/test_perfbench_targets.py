"""The benchmark's tracer and oracle must agree with the program.

perfbench/spans.py rebinds each (module, attribute) pair in TARGETS; a
renamed or deleted function would otherwise surface only in a traced
benchmark run, and one the program no longer calls would read 0 there.
perfbench/oracle.py checks every simulate CSV against its own copy of the
header, so a header edit would fail every simulate op.  Neither is a package
module, so both are loaded here from their files.
"""
import importlib
import sys
from pathlib import Path

import pytest

from bomric import cli

from conftest import REPO, load_perfbench

TARGETS = load_perfbench("spans").TARGETS

# ROADMAP item 1 removes this target with the benchmark's own change
UNREACHED = {("bomric.blockop", "partial_trace_env")}


@pytest.mark.parametrize("module, attr", sorted(TARGETS))
def test_span_target_resolves_under_src(module, attr):
    mod = importlib.import_module(module)
    assert (REPO / "src") in Path(mod.__file__).resolve().parents
    assert callable(getattr(mod, attr, None)), f"{module}.{attr} is gone"


def _counted(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_every_span_target_is_reached(tmp_path, monkeypatch, capsys):
    # each function gets its own counter: two span names are shared; like the
    # tracer, rebind it in every bomric namespace that holds it
    calls = dict.fromkeys(TARGETS, 0)
    originals = {key: getattr(importlib.import_module(key[0]), key[1]) for key in TARGETS}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bomric"]
    for key, fn in originals.items():
        wrapper = _counted(calls, key, fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, name, wrapper)
    scenario = str(REPO / "scenarios" / "closed_qubit.json")  # all six checks, env_dim 2
    for mode in cli.MODES:
        out = tmp_path / f"{mode}.csv"
        assert cli.main(["simulate", scenario, "--out", str(out), "--mode", mode]) == 0
    assert cli.main(["verify", scenario]) == 0
    assert cli.main(["riccati", scenario]) == 0
    assert cli.main(["riccati", scenario, "--method", "newton"]) == 0
    capsys.readouterr()
    assert {key for key, n in calls.items() if n == 0} == UNREACHED


def test_oracle_csv_columns_match_cli():
    assert tuple(load_perfbench("oracle").CSV_COLUMNS) == cli.CSV_COLUMNS
