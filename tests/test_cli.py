import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bomric import cli, dynamics, linalg, riccati
from bomric.bath import STEP_CAP
from bomric.scenario import load_scenario

from conftest import PAULI_1, PAULI_2, PAULI_3, dephasing_operator, random_density

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
CLOSED_QUBIT = SCENARIO_DIR / "closed_qubit.json"
SPINBOSON = SCENARIO_DIR / "spinboson.json"
RICCATI_SB = SCENARIO_DIR / "riccati_spinboson.json"
DEPHASING = SCENARIO_DIR / "dephasing.json"
WEYL = SCENARIO_DIR / "weyl.json"
BUNDLED = sorted(SCENARIO_DIR.glob("*.json"))


def src_env():
    env = dict(os.environ)
    src = str(SCENARIO_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def write_doc(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def minimal_doc(**updates):
    doc = {
        "qubit": {"alpha": 0.3, "beta": 0.5, "omega": 1.0},
        "bath": {"modes": [{"omega": 2.0, "g_re": 0.2}], "fock_cutoff": 3},
        "initial": {"kind": "product", "qubit_state": "+", "env_state": {"fock": 0}},
        "time": {"t_max": 2.0, "steps": 20},
        "run": {"mode": "static_exact", "checks": []},
    }
    doc.update(updates)
    return doc


# -- simulate -----------------------------------------------------------------

def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = cli.main(["simulate", str(CLOSED_QUBIT), "--out", str(out), "--steps", "50"])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 52  # header + steps + 1 points
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # plus state: rho00 = 0.5, bloch_x = 1
    assert abs(float(first[1]) - 0.5) <= 1e-12
    assert abs(float(first[9]) - 1.0) <= 1e-12
    purity = float(first[12])
    assert abs(purity - 1.0) <= 1e-9


def test_simulate_reruns_bit_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["simulate", str(CLOSED_QUBIT), "--out", str(a), "--steps", "40"]) == 0
    assert cli.main(["simulate", str(CLOSED_QUBIT), "--out", str(b), "--steps", "40"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_csv_written_in_row_blocks_keeps_the_bytes(tmp_path, monkeypatch):
    # the CSV rows are converted and written a block at a time: 7-row blocks,
    # which do not divide the 41 rows, write the bytes of one whole block
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", str(CLOSED_QUBIT), "--steps", "40", "--mode", "rotating_stepped"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    monkeypatch.setattr(dynamics, "CHUNK_ENTRIES", 7 * len(cli.CSV_COLUMNS))
    assert dynamics.chunk_size(len(cli.CSV_COLUMNS)) == 7
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_mode_override_changes_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["simulate", str(CLOSED_QUBIT), "--steps", "40"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b), "--mode", "static_exact"]) == 0
    assert a.read_bytes() != b.read_bytes()


def simulate_rows(tmp_path, scenario, *extra):
    """Run simulate and return the CSV's data rows as lists of strings."""
    out = tmp_path / "traj.csv"
    assert cli.main(["simulate", str(scenario), "--out", str(out), *extra]) == 0
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == cli.CSV_COLUMNS
    return rows


@pytest.mark.parametrize("scenario", BUNDLED, ids=lambda p: p.stem)
def test_simulate_csv_bloch_and_purity_match_per_row_formulas(tmp_path, scenario):
    # the columns are array operations over the trajectory; each must equal
    # Tr(rho sigma_i) and Tr(rho^2) of its own row's 2 x 2 state, bit for bit
    for mode in dynamics.MODES:
        for row in simulate_rows(tmp_path, scenario, "--mode", mode):
            entries = np.array([float(x) for x in row[1:9]])
            rho = (entries[0::2] + 1j * entries[1::2]).reshape(2, 2)
            expected = [np.trace(rho @ p).real for p in (PAULI_1, PAULI_2, PAULI_3)]
            expected.append(np.trace(rho @ rho).real)
            assert row[9:13] == [repr(float(x)) for x in expected], (mode, row[0])


def test_simulate_csv_cardinal_states(tmp_path):
    for qubit_state, bloch in (("0", (0, 0, 1)), ("+", (1, 0, 0)), ("-i", (0, -1, 0))):
        initial = {"kind": "product", "qubit_state": qubit_state, "env_state": {"fock": 0}}
        doc = write_doc(tmp_path, minimal_doc(initial=initial))
        first = simulate_rows(tmp_path, doc)[0]
        assert float(first[0]) == 0.0
        assert np.allclose([float(x) for x in first[9:12]], bloch, rtol=0.0, atol=1e-12)


def test_simulate_csv_mixed_states_inside_ball(tmp_path, rng):
    for _ in range(5):
        rho_q = random_density(rng, 2)
        matrix = {"re": rho_q.real.tolist(), "im": rho_q.imag.tolist()}
        initial = {"kind": "product", "qubit_state": matrix, "env_state": {"fock": 0}}
        doc = write_doc(tmp_path, minimal_doc(initial=initial))
        data = np.array(simulate_rows(tmp_path, doc, "--mode", "rotating_stepped"), dtype=float)
        assert np.all(np.linalg.norm(data[:, 9:12], axis=1) <= 1.0 + 1e-9)
        assert np.all(data[:, 12] <= 1.0 + 1e-9)


def repr_rows(block: np.ndarray) -> bytes:
    """The CSV rows as csv.writer writes a table of Python floats."""
    return "".join(",".join(map(repr, row)) + "\r\n" for row in block.tolist()).encode()


# where orjson's layout and repr's part: exponent signs, one-digit exponents,
# the [1e-5, 1e-4) band and the switches to exponent form
CSV_EDGE_VALUES = (
    0.0, 5e-324, 2.2250738585072014e-308, 1e-09, 1e-08, 1e-07, 1e-06, 9.9e-06, 1e-05,
    1.5e-05, 9.99e-05, 0.0001, 10.00001, 9999999999999998.0, 1e16, 1.5e16,
    1.7976931348623157e308,
)


def test_csv_rows_are_repr_at_the_layout_edges():
    values = np.array([v for x in CSV_EDGE_VALUES for v in (x, -x)])
    for block in (values[None, :], values[:, None], values.reshape(2, -1)):
        assert cli._csv_rows(block) == repr_rows(block)
    assert cli._csv_rows(values[None, :]).startswith(b"0.0,-0.0,5e-324,-5e-324,")


# decimal magnitudes reach the layout edges more often than raw doubles do
_DECIMAL_FLOATS = st.builds(
    lambda m, k: m * 10.0**k, st.floats(-10.0, 10.0), st.integers(-12, 20)
)


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.tuples(st.integers(1, 12), st.integers(1, 15)).flatmap(
        lambda shape: st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), _DECIMAL_FLOATS),
            min_size=shape[0] * shape[1], max_size=shape[0] * shape[1],
        ).map(lambda cells: np.array(cells, dtype=float).reshape(shape))
    )
)
def test_csv_rows_are_the_repr_of_each_float(block):
    # 1-row and 1-column tables included; a change of orjson's layout fails here
    assert cli._csv_rows(block) == repr_rows(block)


def test_simulate_writes_no_file_for_non_finite_states(tmp_path, capsys, monkeypatch):
    # _csv_rows would write NaN as `null`; the sanity caps stop such a state first
    def nan_states(h, p, psi, times):
        return np.full((len(times), 2, 2), np.nan, dtype=complex)

    monkeypatch.setattr(dynamics, "_spectral_states", nan_states)
    out = tmp_path / "x.csv"
    rc = cli.main(["simulate", str(SPINBOSON), "--out", str(out), "--mode", "static_exact"])
    assert rc == cli.EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert err.startswith("error: trajectory trace_dev reached nan") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_sweep_writes_one_file_per_value(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(
        [
            "simulate", str(CLOSED_QUBIT),
            "--out", str(out),
            "--steps", "10",
            "--sweep", "qubit.alpha=0.1,0.2",
        ]
    )
    assert rc == 0
    f1 = tmp_path / "sweep_qubit_alpha_0.1.csv"
    f2 = tmp_path / "sweep_qubit_alpha_0.2.csv"
    assert f1.exists() and f2.exists()
    assert not out.exists()
    assert f1.read_bytes() != f2.read_bytes()
    assert capsys.readouterr().out.count("wrote") == 2


def test_simulate_sweep_rejects_values_that_name_one_file(tmp_path, capsys):
    # 0.1, 0.10 and 1e-1 all format as 0.1: each run would overwrite the last
    rc = cli.main(
        [
            "simulate", str(CLOSED_QUBIT),
            "--out", str(tmp_path / "x.csv"),
            "--steps", "10",
            "--sweep", "qubit.alpha=0.1,0.10,1e-1",
        ]
    )
    assert rc == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(tmp_path / "x_qubit_alpha_0.1.csv") in captured.err
    assert list(tmp_path.iterdir()) == []


def test_simulate_sweep_value_with_path_separator_is_one_error_line(tmp_path):
    # "a/b" names no file next to --out: exit 2 before the 0.1 run writes anything
    run = subprocess.run(
        [sys.executable, "-m", "bomric.cli", "simulate", str(CLOSED_QUBIT),
         "--out", str(tmp_path / "y.csv"), "--steps", "10", "--sweep", 'qubit.alpha=0.1,"a/b"'],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert run.returncode == cli.EXIT_SCHEMA
    assert run.stdout == ""
    assert run.stderr == "error: --sweep qubit.alpha: value 'a/b' gives no file name\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_sweep_rejects_unknown_key(tmp_path):
    rc = cli.main(
        [
            "simulate", str(CLOSED_QUBIT),
            "--out", str(tmp_path / "x.csv"),
            "--sweep", "qubit.gamma=1,2",
        ]
    )
    assert rc == cli.EXIT_SCHEMA


def test_simulate_sweep_rejects_non_numbers(tmp_path):
    rc = cli.main(
        [
            "simulate", str(CLOSED_QUBIT),
            "--out", str(tmp_path / "x.csv"),
            "--sweep", "qubit.alpha=fast",
        ]
    )
    assert rc == cli.EXIT_SCHEMA



def test_simulate_sweep_string_value_needs_its_quotes(tmp_path, capsys):
    # sweep values are JSON: a bare word does not parse, a quoted one is a string
    out = tmp_path / "x.csv"
    argv = ["simulate", str(CLOSED_QUBIT), "--out", str(out), "--steps", "4", "--sweep"]
    assert cli.main(argv + ["run.mode=factored,static_exact"]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: --sweep value 'factored,static_exact' does not parse as JSON; ")
    assert err.count("\n") == 1
    assert "double quotes" in err and "not a number" not in err
    assert list(tmp_path.iterdir()) == []
    assert cli.main(argv + ['run.mode="factored","static_exact"']) == cli.EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "x_run_mode_factored.csv", "x_run_mode_static_exact.csv"]


def test_simulate_sweep_object_values_keep_their_commas(tmp_path, capsys):
    # the tail is one JSON array: an object value is not split at its commas
    out = tmp_path / "x.csv"
    modes = [{"omega": 2.0, "g_re": 0.1}, {"omega": 1.5, "g_re": 0.2, "g_im": -0.1}]
    sweep = "bath.modes.0=" + ",".join(json.dumps(m) for m in modes)
    argv = ["simulate", str(SPINBOSON), "--out", str(out), "--steps", "4", "--sweep", sweep]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.count("wrote") == 2
    files = [tmp_path / f"x_bath_modes_0_{m}.csv" for m in modes]
    assert sorted(tmp_path.iterdir()) == sorted(files)
    # each file is the run of the document with that value written in
    doc = json.loads(SPINBOSON.read_text())
    doc["bath"]["modes"][0] = modes[1]
    one = tmp_path / "one" / "y.csv"
    one.parent.mkdir()
    assert cli.main(["simulate", str(write_doc(one.parent, doc)), "--out", str(one),
                     "--steps", "4"]) == cli.EXIT_OK
    assert one.read_bytes() == files[1].read_bytes() != files[0].read_bytes()


def test_simulate_sweep_with_no_values(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["simulate", str(CLOSED_QUBIT), "--out", str(out), "--sweep", "qubit.alpha="]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    assert capsys.readouterr().err == "error: --sweep 'qubit.alpha' has no values\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_sweep_value_with_an_overlong_file_name(tmp_path, capsys):
    # a 3-mode cutoff-1 bath: the second value, an 8 x 8 env_state matrix,
    # names a file past 255 bytes; exit 2 before the first value's run
    env = np.zeros((8, 8))
    env[0, 0] = 1.0
    doc = minimal_doc(bath={"modes": [{"omega": 1.0, "g_re": 0.1}] * 3, "fock_cutoff": 1})
    sweep = 'initial.env_state={"fock":0},' + json.dumps({"re": env.tolist()})
    argv = ["simulate", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "x.csv"),
            "--steps", "4", "--sweep", sweep]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --sweep initial.env_state: value {'re': ")
    assert captured.err.endswith(" gives no file name\n") and captured.err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


@pytest.mark.parametrize(
    "command, doc, flag, message",
    [
        ("verify", {k: v for k, v in minimal_doc().items() if k != "time"}, ["--steps", "5"],
         "scenario: missing required keys ['time']"),
        ("simulate", minimal_doc(run=[1]), ["--mode", "factored"],
         "run: expected an object, got list"),
    ],
    ids=["verify_no_time", "simulate_run_list"],
)
def test_flag_on_malformed_document_keeps_the_parse_message(tmp_path, capsys, command, doc,
                                                            flag, message):
    # the flag's edit has no section to go into, so the parse names the fault
    out = tmp_path / "x.out"
    argv = [command, str(write_doc(tmp_path, doc)), "--out", str(out)] + flag
    assert cli.main(argv) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_missing_file(tmp_path, capsys):
    rc = cli.main(["simulate", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_SCHEMA
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value, token",
    [("qubit", "alpha", float("nan"), "NaN"), ("time", "t_max", float("inf"), "Infinity")],
    ids=["nan_alpha", "infinite_t_max"],
)
def test_simulate_rejects_non_finite_numbers(tmp_path, capsys, section, key, value, token):
    doc = minimal_doc()
    doc[section][key] = value
    path = write_doc(tmp_path, doc)
    assert token in path.read_text()  # Python's json reads and writes these tokens
    rc = cli.main(["simulate", str(path), "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_SCHEMA
    assert f"error: {section}.{key}: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_sweep_rejects_nan(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = cli.main(["simulate", str(CLOSED_QUBIT), "--out", str(out), "--sweep", "qubit.alpha=NaN"])
    assert rc == cli.EXIT_SCHEMA
    assert "error: qubit.alpha: expected a finite number" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["bath.modes.x.omega", "bath.modes.5.omega"])
def test_simulate_sweep_rejects_bad_list_index(tmp_path, capsys, key):
    rc = cli.main(
        ["simulate", str(CLOSED_QUBIT), "--out", str(tmp_path / "x.csv"), "--sweep", f"{key}=1"]
    )
    assert rc == cli.EXIT_SCHEMA
    assert f"error: sweep key {key!r}: no entry" in capsys.readouterr().err


def test_simulate_sweep_over_list_entry(tmp_path):
    out = tmp_path / "x.csv"
    rc = cli.main(
        ["simulate", str(SPINBOSON), "--out", str(out), "--steps", "4",
         "--sweep", "bath.modes.0.omega=1.5"]
    )
    assert rc == 0
    assert (tmp_path / "x_bath_modes_0_omega_1.5.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_zero_steps_override_rejected(tmp_path, capsys, command):
    argv = [command, str(CLOSED_QUBIT), "--steps", "0"]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    # --steps edits the document, so the error is the parse's time: line
    assert capsys.readouterr().err == "error: time: steps and substeps_per_step must be >= 1\n"


@pytest.mark.parametrize(
    "time_update, mode",
    [({"steps": 10**15}, "static_exact"), ({"steps": 10**400}, "static_exact"),
     ({"substeps_per_step": 10**400}, "rotating_stepped")],
    ids=["steps_1e15", "steps_1e400", "substeps_1e400"],
)
def test_simulate_rejects_grid_over_step_cap(tmp_path, capsys, time_update, mode):
    # these grids ran out of memory, overflowed numpy's array size or a float
    doc = json.loads(CLOSED_QUBIT.read_text())
    doc["time"].update(time_update)
    doc["run"]["mode"] = mode
    out = tmp_path / "x.csv"
    rc = cli.main(["simulate", str(write_doc(tmp_path, doc)), "--out", str(out)])
    assert rc == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err == f"error: time: steps * substeps_per_step exceeds STEP_CAP = {STEP_CAP}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_steps_override_over_step_cap(tmp_path, capsys, command):
    argv = [command, str(CLOSED_QUBIT), "--steps", str(10**15)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err == f"error: time: steps * substeps_per_step exceeds STEP_CAP = {STEP_CAP}\n"


def test_simulate_sweep_rejects_overlong_integer(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = cli.main(
        ["simulate", str(CLOSED_QUBIT), "--out", str(out), "--sweep", "time.steps=" + "1" * 5000]
    )
    assert rc == cli.EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: --sweep value ")
    assert list(tmp_path.iterdir()) == []


def test_simulate_sweep_value_nested_past_the_recursion_limit(tmp_path, capsys):
    out = tmp_path / "x.csv"
    deep = "[" * 100_000 + "1" + "]" * 100_000
    argv = ["simulate", str(CLOSED_QUBIT), "--out", str(out), "--sweep", f"qubit.alpha={deep}"]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --sweep value ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_scenario_nested_past_the_recursion_limit_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert cli.main(["riccati", str(path)]) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: not valid JSON: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "sweep, mode, code, message",
    [
        ("time.steps=50,0", None, cli.EXIT_SCHEMA, "steps and substeps_per_step must be >= 1"),
        (f"time.steps=50,{STEP_CAP + 1}", None, cli.EXIT_SCHEMA, f"exceeds STEP_CAP = {STEP_CAP}"),
        ("bath.fock_cutoff=4,64", None, cli.EXIT_DIMENSION, "exceeds cap 64"),
        ("qubit.omega=1.0,1e300", "factored", cli.EXIT_SCHEMA, "the drive phase omega t keeps no digit"),
    ],
    ids=["schema", "step_cap", "env_dim_cap", "drive_phase"],
)
def test_simulate_sweep_checks_every_value_before_writing(tmp_path, capsys, sweep, mode, code, message):
    # the first value runs; the second fails, and the first file must not be left behind
    argv = ["simulate", str(SPINBOSON), "--out", str(tmp_path / "s.csv"), "--sweep", sweep]
    rc = cli.main(argv + (["--mode", mode] if mode else []))
    assert rc == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert list(tmp_path.iterdir()) == []


def test_simulate_sweep_whose_second_value_breaches_a_cap_writes_no_file(
    tmp_path, capsys, monkeypatch
):
    # the sanity caps judge a trajectory, so every value runs before the first write
    states, calls = dynamics._spectral_states, []

    def nan_on_second_run(h, p, psi, times):
        calls.append(None)
        out = states(h, p, psi, times)
        return np.full_like(out, np.nan) if len(calls) == 2 else out

    monkeypatch.setattr(dynamics, "_spectral_states", nan_on_second_run)
    argv = ["simulate", str(SPINBOSON), "--out", str(tmp_path / "s.csv"), "--mode",
            "static_exact", "--sweep", "qubit.alpha=0.1,0.2"]
    assert cli.main(argv) == cli.EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.out == "" and len(calls) == 2
    assert captured.err.startswith("error: trajectory trace_dev reached nan")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, sweep",
    [
        (["--steps", "10"], "time.steps=100,200"),
        (["--mode", "factored"], 'run.mode="static_exact","rotating_stepped"'),
        (["--mode", "factored"], 'run={"mode":"static_exact"}'),
    ],
    ids=["steps", "mode", "run_section"],
)
def test_simulate_flag_and_sweep_of_one_key_conflict(tmp_path, capsys, flag, sweep):
    # the flag would override every swept value, so each file would hold the
    # flag's run under the name of a value it never ran
    argv = ["simulate", str(CLOSED_QUBIT), "--out", str(tmp_path / "o.csv"), "--sweep", sweep]
    assert cli.main(argv + flag) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"--sweep {sweep.partition('=')[0]}" in captured.err and flag[0] in captured.err
    assert list(tmp_path.iterdir()) == []


def test_simulate_out_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    rc = cli.main(["simulate", str(CLOSED_QUBIT), "--out", str(out), "--steps", "4"])
    assert rc == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_simulate_rejects_schema_violation(tmp_path, capsys):
    doc = minimal_doc()
    doc["qubit"]["gamma"] = 1.0
    rc = cli.main(["simulate", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_SCHEMA
    assert "gamma" in capsys.readouterr().err


def test_simulate_dimension_cap(tmp_path, capsys):
    doc = minimal_doc()
    doc["bath"]["fock_cutoff"] = 64  # dim 65 > 64
    rc = cli.main(["simulate", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_DIMENSION
    assert "64" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, section, key, value",
    [("bath.modes[0]", "bath", "modes", [{"omega": -1.0, "g_re": 0.2}]),
     ("bath", "bath", "fock_cutoff", 0), ("time", "time", "t_max", 0.0)],
    ids=["BathMode", "BathSpec", "Scenario"],
)
def test_simulate_range_error_is_one_line_naming_its_section(
    tmp_path, capsys, path, section, key, value
):
    # one range rule per constructor; tests/test_scenario.py has the others
    doc = minimal_doc()
    doc[section][key] = value
    out = tmp_path / "x.csv"
    rc = cli.main(["simulate", str(write_doc(tmp_path, doc)), "--out", str(out)])
    assert rc == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_invalid_initial_state(tmp_path, capsys):
    doc = minimal_doc()
    n = 4
    bad = np.diag([1.5, -0.5] + [0.0] * (2 * n - 2))
    doc["initial"] = {"kind": "explicit", "matrix": {"re": bad.tolist()}}
    rc = cli.main(["simulate", str(write_doc(tmp_path, doc)), "--out", str(tmp_path / "x.csv")])
    assert rc == cli.EXIT_SCHEMA
    assert "invalid initial state" in capsys.readouterr().err


def test_simulate_overflowing_asymmetry_is_one_stderr_line(tmp_path):
    # a - a^dagger overflows to inf: the state is rejected with no numpy warning
    doc = minimal_doc()
    n = 4
    bad = np.diag([0.5, 0.5] + [0.0] * (2 * n - 2))
    bad[0, 1], bad[1, 0] = 1e308, -1e308
    doc["initial"] = {"kind": "explicit", "matrix": {"re": bad.tolist()}}
    run = subprocess.run(
        [sys.executable, "-m", "bomric.cli", "simulate", str(write_doc(tmp_path, doc)),
         "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert run.returncode == cli.EXIT_SCHEMA
    assert run.stderr.startswith("error: invalid initial state") and run.stderr.count("\n") == 1


def test_simulate_sanity_cap_breach(tmp_path, capsys, monkeypatch):
    # any roundoff in a state's trace breaches a cap of 0
    monkeypatch.setattr(dynamics, "TRACE_DEV_CAP", 0.0)
    out = tmp_path / "x.csv"
    rc = cli.main(["simulate", str(SPINBOSON), "--out", str(out), "--steps", "50"])
    assert rc == cli.EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert err.startswith("error: trajectory trace_dev reached ") and err.count("\n") == 1
    assert "beyond TRACE_DEV_CAP = 0" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_overflowing_drive_breaches_caps(tmp_path, capsys):
    # finite input whose Hamiltonian norm overflows: NaN states leave the caps
    doc = minimal_doc()
    doc["qubit"]["alpha"] = 1e308
    doc["run"]["mode"] = "rotating_stepped"
    out = tmp_path / "x.csv"
    rc = cli.main(["simulate", str(write_doc(tmp_path, doc)), "--out", str(out)])
    assert rc == cli.EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert err.startswith("error: trajectory ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("mode", cli.MODES)
def test_simulate_refuses_a_drive_phase_with_no_digit(tmp_path, capsys, mode):
    # at omega = 1e300 the phase omega t keeps no digit, so the two modes
    # that use omega would write a meaningless trajectory; static_exact
    # does not use omega
    doc = json.loads(SPINBOSON.read_text())
    doc["qubit"]["omega"] = 1e300
    out = tmp_path / "x.csv"
    argv = ["simulate", str(write_doc(tmp_path, doc)), "--out", str(out), "--mode", mode]
    rc = cli.main(argv + ["--steps", "50"])
    err = capsys.readouterr().err
    if mode == "static_exact":
        assert rc == cli.EXIT_OK and err == "" and out.exists()
        return
    assert rc == cli.EXIT_SCHEMA
    assert err.startswith(f"error: {mode} mode: the drive phase omega t keeps no digit ")
    assert err.count("\n") == 1 and "|omega| t_max eps = 2.2e+285" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, mode",
    [("qubit", "beta", "static_exact"), ("qubit", "beta", "factored"),
     ("time", "t_max", "static_exact")],
    ids=["beta_static_exact", "beta_factored", "t_max_static_exact"],
)
def test_simulate_refuses_a_static_phase_with_no_digit(tmp_path, capsys, section, key, mode):
    # at 1e300 the eigenphases w t of the static H reach 2.5e300 rad and keep
    # no digit, so the closed form would write a meaningless trajectory
    doc = json.loads(SPINBOSON.read_text())
    doc[section][key] = 1e300
    out = tmp_path / "x.csv"
    rc = cli.main(["simulate", str(write_doc(tmp_path, doc)), "--out", str(out), "--mode", mode])
    assert rc == cli.EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert err.startswith("error: trajectory eigenphase w t keeps no digit: ")
    assert err.count("\n") == 1 and "beyond PHASE_LOSS_CAP = 1e-05" in err
    assert not out.exists()


# -- riccati ------------------------------------------------------------------

def test_riccati_both_methods_agree(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["riccati", str(RICCATI_SB), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "newton:" in text
    assert "invariant subspace (graph)" in text
    assert "block-diagonalization" in text
    # Newton's correction to the graph X is no comparison of two solvers;
    # that is --method newton's job
    assert "agreement" not in text
    report = json.loads(out.read_text())
    assert report["kind"] == "spinboson"
    assert report["newton"]["residual"] <= 1e-12
    assert report["subspace"]["residual"] <= 1e-9
    assert "agreement" not in report


def test_riccati_newton_only(capsys):
    rc = cli.main(["riccati", str(RICCATI_SB), "--method", "newton"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "newton:" in text
    assert "invariant subspace" not in text


def test_riccati_subspace_graph_branch(capsys):
    rc = cli.main(["riccati", str(RICCATI_SB), "--method", "subspace", "--branch", "graph"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "invariant subspace (graph)" in text
    assert "newton:" not in text


def test_riccati_subspace_defaults_to_graph_branch(capsys):
    rc = cli.main(["riccati", str(RICCATI_SB), "--method", "subspace"])
    assert rc == 0
    assert "invariant subspace (graph)" in capsys.readouterr().out


def test_riccati_weyl_solves_on_graph_branch(tmp_path, capsys):
    # Newton from zero is singular at its first step here; the graph X is
    # not a contraction
    out = tmp_path / "weyl.json"
    rc = cli.main(["riccati", str(WEYL), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["subspace"]["branch"] == "graph"
    assert report["subspace"]["x_norm2"] > 1.0
    assert report["newton"]["start"] == "subspace"
    assert "||X||_2 = " in capsys.readouterr().out


def test_riccati_noncontractive_case_keeps_graph_branch(tmp_path, capsys):
    # two modes (2.3, 1.7) at cutoff 7: Newton from zero lands on another
    # branch than the graph one the default route returns; ||X||_2 tells them apart
    doc = minimal_doc()
    doc["bath"] = {"modes": [{"omega": 2.3, "g_re": 0.2}, {"omega": 1.7, "g_re": 0.2}],
                   "fock_cutoff": 7}
    path = write_doc(tmp_path, doc)
    reports = {}
    for label, extra in (("default", []), ("newton", ["--method", "newton"])):
        out = tmp_path / f"{label}.json"
        assert cli.main(["riccati", str(path), "--out", str(out)] + extra) == 0
        reports[label] = json.loads(out.read_text())
    default, newton = reports["default"], reports["newton"]
    assert default["subspace"]["branch"] == "graph"
    assert default["newton"]["iterations"] == 0
    assert abs(default["newton"]["x_norm"] - 3.371) < 1e-3
    assert abs(default["subspace"]["x_norm2"] - 1.121) < 1e-3
    assert newton["newton"]["start"] == "zero" and newton["newton"]["iterations"] == 8
    assert len(newton["newton"]["trace"]) == 9
    assert abs(newton["newton"]["x_norm"] - 4.352) < 1e-3
    assert abs(newton["newton"]["x_norm2"] - 2.121) < 1e-3
    assert "||X||_F = 4.352148, ||X||_2 = 2.121020\n" in capsys.readouterr().out


def test_riccati_accepts_graph_solution_at_roundoff_floor(tmp_path, capsys):
    # three modes at cutoff 2: the graph X has ||X||_2 = 4.4e3, so its
    # absolute residual (7.1e-10) stays above 1e-12 however long Newton
    # refines it, but its eta is below ETA_TOL, and Newton accepts it as it is
    doc = minimal_doc()
    doc["bath"] = {"modes": [{"omega": w, "g_re": 0.2} for w in (1.0, 1.266667, 1.533333)],
                   "fock_cutoff": 2}
    out = tmp_path / "report.json"
    assert cli.main(["riccati", str(write_doc(tmp_path, doc)), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count(" eta ") == 2
    report = json.loads(out.read_text())
    assert report["env_dim"] == 27
    newton = report["newton"]
    assert newton["iterations"] == 0
    assert newton["eta"] <= riccati.ETA_TOL
    assert newton["eta"] == report["subspace"]["eta"]
    s = load_scenario(tmp_path / "scenario.json").scenario
    h = dynamics.hamiltonian_static(s.qubit, s.bath)
    r_norm = np.linalg.norm(riccati.RiccatiProblem(h).r)
    assert 1e-12 < newton["residual"] <= 1e-9 * max(1.0, r_norm)


def riccati_sb_doc(tmp_path, section, key, value, checks=None):
    """riccati_spinboson.json with doc[section][key] (a qubit or mode entry) set to value."""
    doc = json.loads(RICCATI_SB.read_text())
    (doc["bath"]["modes"][0] if section == "mode" else doc[section])[key] = value
    if checks is not None:
        doc["run"]["checks"] = checks
    return write_doc(tmp_path, doc)


def test_riccati_refines_a_graph_solution_far_above_the_eta_floor(tmp_path):
    # at alpha 1e-12 the graph X has residual 3.2e-15 but eta 1.75e11 u (a
    # relative error of 7.3e-5); one Newton step brings it to the floor
    out = tmp_path / "report.json"
    path = riccati_sb_doc(tmp_path, "qubit", "alpha", 1e-12)
    assert cli.main(["riccati", str(path), "--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert report["subspace"]["eta"] > 1e6 * riccati.ETA_TOL
    assert report["newton"]["iterations"] == 1
    assert report["newton"]["eta"] <= riccati.ETA_TOL


def test_riccati_newton_from_zero_stops_on_eta_alone(tmp_path):
    # at beta 1e6 the first iterate from zero has a residual under 1e-12 at
    # eta 51 u; Newton takes another step before it accepts X
    out = tmp_path / "report.json"
    path = riccati_sb_doc(tmp_path, "qubit", "beta", 1e6)
    assert cli.main(["riccati", str(path), "--method", "newton", "--out", str(out)]) == cli.EXIT_OK
    newton = json.loads(out.read_text())["newton"]
    assert newton["start"] == "zero" and newton["iterations"] == 2
    assert newton["eta"] <= riccati.ETA_TOL


def test_riccati_subspace_cap_failure_states_its_cause(capsys, monkeypatch):
    s = load_scenario(RICCATI_SB).scenario
    p = riccati.RiccatiProblem(dynamics.hamiltonian_static(s.qubit, s.bath))
    ok = riccati.solve_invariant_subspace(p)
    _, vec = linalg.hermitian_eig(p.r)
    y1 = vec[: p.dim, riccati._select_branch(p, vec)]
    monkeypatch.setattr(riccati, "_SUBSPACE_RESIDUAL_CAP", 1e-30)
    rc = cli.main(["riccati", str(RICCATI_SB)])
    assert rc == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("error: selected graph branch ") and err.count("\n") == 1
    assert f"residual {ok.residual:.3e} above " in err
    assert f"eta {ok.eta:.3e}" in err
    assert f"||X||_2 = {np.linalg.norm(ok.x, 2):.3e}" in err
    assert f"cond(Y1) = {np.linalg.cond(y1):.3e}" in err


@pytest.mark.parametrize(
    "section, key, value, default_rc",
    [
        ("qubit", "alpha", 1e-12, 0),
        ("qubit", "beta", 1e12, 0),
        ("qubit", "beta", 1e300, 0),
        ("qubit", "beta", -1e300, 0),
        ("mode", "omega", 1e300, 4),
        ("mode", "g_re", 1e150, 4),
        ("mode", "g_re", 1e300, 4),
    ],
    ids=["alpha_1e-12", "beta_1e12", "beta_1e300", "beta_-1e300", "omega_1e300",
         "g_re_1e150", "g_re_1e300"],
)
def test_riccati_subspace_alone_refuses_eta_above_floor(tmp_path, capsys, section, key,
                                                        value, default_rc):
    # on these edits the graph X passes the absolute cap at eta 1.9e-5 to 1;
    # --method subspace returns X unrefined, so it must stand at ETA_TOL itself
    path = riccati_sb_doc(tmp_path, section, key, value)
    out = tmp_path / "report.json"
    rc = cli.main(["riccati", str(path), "--method", "subspace", "--out", str(out)])
    assert rc == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("error: graph X has eta ") and err.count("\n") == 1
    assert f"above ETA_TOL = {riccati.ETA_TOL:.3e}" in err
    assert err.endswith("; the default route refines the graph X\n")
    assert not out.exists()
    # the default route refines the same X, or fails in Newton as before
    assert cli.main(["riccati", str(path), "--out", str(out)]) == default_rc
    if default_rc == 0:
        assert json.loads(out.read_text())["newton"]["eta"] <= riccati.ETA_TOL


@pytest.mark.parametrize(
    "scenario, extra",
    [
        (RICCATI_SB, ["--branch", "graph", "--method", "newton"]),
        (DEPHASING, ["--branch", "graph"]),
        (DEPHASING, ["--branch", "graph", "--method", "subspace"]),
        (DEPHASING, ["--method", "newton"]),
        (DEPHASING, ["--method", "subspace"]),
    ],
    ids=["newton", "dephasing", "dephasing_subspace", "dephasing_method_newton",
         "dephasing_method_subspace"],
)
def test_riccati_rejects_branch_without_subspace_solver(tmp_path, capsys, scenario, extra):
    # no solver that the option selects runs here, so it would be ignored
    out = tmp_path / "report.json"
    rc = cli.main(["riccati", str(scenario), "--out", str(out)] + extra)
    assert rc == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {extra[0]} ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_riccati_resonant_drive_reports_trace(tmp_path, capsys):
    doc = minimal_doc()
    doc["bath"]["modes"][0]["omega"] = 1.0  # equals 2 beta: singular linearization
    doc["bath"]["fock_cutoff"] = 8
    rc = cli.main(["riccati", str(write_doc(tmp_path, doc)), "--method", "newton"])
    assert rc == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert "residual trace" in err and "best eta " in err and err.count("\n") == 1


def test_riccati_newton_names_a_linear_stall(tmp_path, capsys):
    # one mode at 2 beta, cutoff 7: Newton from zero halves its error each
    # step (residual ratio 1/4), a critical case, and runs out of steps
    doc = minimal_doc()
    doc["bath"]["modes"][0]["omega"] = 1.0
    doc["bath"]["fock_cutoff"] = 7
    rc = cli.main(["riccati", str(write_doc(tmp_path, doc)), "--method", "newton"])
    assert rc == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: newton did not reach")
    assert "; linear convergence: residual ratio 0.25 over " in err
    assert " steps (a critical case); residual trace" in err
    # on weyl.json Newton's first linearization is singular: no run of ratios
    assert cli.main(["riccati", str(WEYL), "--method", "newton"]) == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "linear convergence" not in err


def test_riccati_dephasing_report(tmp_path, capsys):
    out = tmp_path / "deph.json"
    rc = cli.main(["riccati", str(DEPHASING), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "dephasing quadratic" in text
    assert "principal root" in text
    report = json.loads(out.read_text())
    assert report["kind"] == "dephasing"
    # bundled file uses M with roots i(1 -+ sqrt(2))
    assert abs(report["principal_root"][1] - (1.0 - np.sqrt(2.0))) <= 1e-12
    assert abs(report["principal_root"][0]) <= 1e-12
    assert report["residual_principal"] <= 1e-10
    assert report["residual_partner"] <= 1e-10


def dephasing_doc(tmp_path, **entries):
    """dephasing.json with the given entries of its coupling matrix M."""
    doc = json.loads(DEPHASING.read_text())
    doc["dephasing"].update(entries)
    return write_doc(tmp_path, doc)


def finite_numbers(node) -> bool:
    """Whether every number in a JSON document is finite.

    Reports write a non-finite number as the string "nan", "inf" or "-inf",
    so those strings count as non-finite too.
    """
    if isinstance(node, dict):
        return all(map(finite_numbers, node.values()))
    if isinstance(node, list):
        return all(map(finite_numbers, node))
    if isinstance(node, str):
        return node not in ("nan", "inf", "-inf")
    return not isinstance(node, float) or bool(np.isfinite(node))


@pytest.mark.parametrize(
    "entries",
    [
        {"m12_re": 0.0, "m12_im": 0.0},
        {"m11": 1e308, "m22": -1e308, "m12_re": 1e308},
        {"m12_re": 1e-320, "m12_im": 0.0},
        {"m11": 1e300, "m12_re": 1e-300, "m12_im": 0.0},
    ],
    ids=["m12_zero", "m11_m22_m12_1e308", "m12_1e-320", "m11_1e300_m12_1e-300"],
)
def test_dephasing_with_no_finite_root_pair_exits_4(tmp_path, capsys, entries):
    # a diagonal M, m11 - m22 past 1e308, or a partner root past 1e308:
    # one error line and no report
    out = tmp_path / "deph.json"
    rc = cli.main(["riccati", str(dephasing_doc(tmp_path, **entries)), "--out", str(out)])
    assert rc == cli.EXIT_NO_CONVERGENCE
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_dephasing_with_coupling_1e200_reports_finite_roots(tmp_path):
    # |m12| = 1e200 squared would pass 1e308; hypot(delta, 2 |m12|) does not
    out = tmp_path / "deph.json"
    rc = cli.main(["riccati", str(dephasing_doc(tmp_path, m12_im=1e200)), "--out", str(out)])
    assert rc == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert finite_numbers(report)
    assert complex(*report["principal_root"]) == 1j and complex(*report["partner_root"]) == -1j


# the dephasing.json report, which a change to the spin-boson route must not move
DEPHASING_REPORT = {
    "coupling_norm": 0.894427190999916,
    "kind": "dephasing",
    "partner_root": [0.0, 2.414213562373095],
    "principal_abs": 0.4142135623730951,
    "principal_root": [0.0, -0.4142135623730951],
    "residual_partner": 4.710277376051325e-16,
    "residual_principal": 1.1775693440128312e-16,
}


@pytest.mark.parametrize("g_im, m12_im", [(0.0, 0.0), (0.0, 1.0), (-0.3, 0.0), (-0.3, 1.0)],
                         ids=["real_v_real_m", "real_v_complex_m", "complex_v_real_m",
                              "complex_v_complex_m"])
def test_dephasing_residuals_are_those_of_the_dense_operator(tmp_path, capsys, rng, g_im, m12_im):
    # the report takes F(x 1) on the N x N blocks of 1 (x) H_E + M (x) V; the
    # generic residual of the dense 2N x 2N operator gives the same bits
    doc = json.loads(DEPHASING.read_text())
    doc["bath"] = {"modes": [{"omega": 1.0, "g_re": 0.2, "g_im": g_im},
                             {"omega": 2.5, "g_re": -0.4, "g_im": g_im}], "fock_cutoff": 3}
    out = tmp_path / "deph.json"
    for _ in range(8):
        m11, m22, m12_re, m12_scale = rng.uniform(-2.0, 2.0, size=4)
        doc["dephasing"] = {"m11": m11, "m22": m22, "m12_re": m12_re, "m12_im": m12_im * m12_scale}
        path = write_doc(tmp_path, doc)
        assert cli.main(["riccati", str(path), "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        config = load_scenario(path)
        p = riccati.RiccatiProblem(dephasing_operator(config.scenario.bath, config.dephasing_m))
        eye = np.eye(config.scenario.bath.env_dim)
        roots = riccati.solve_dephasing_quadratic(config.dephasing_m)
        assert [report["residual_principal"], report["residual_partner"]] == [
            riccati.residual(p, x * eye) for x in roots]
    capsys.readouterr()


def test_every_riccati_failure_type_exits_4():
    # main's one SolverError entry covers a failure type only if it derives from it
    defined = [cls for cls in vars(riccati).values()
               if isinstance(cls, type) and issubclass(cls, BaseException)
               and cls.__module__ == riccati.__name__ and cls is not riccati.SolverError]
    assert riccati.DephasingRootError in defined and len(defined) >= 3
    assert [cls for cls in defined if not issubclass(cls, riccati.SolverError)] == []
    assert cli._FAILURES[riccati.SolverError] == (cli.EXIT_NO_CONVERGENCE, "")


@pytest.mark.parametrize("scenario", BUNDLED, ids=lambda p: p.stem)
def test_riccati_report_fields_on_bundled_scenarios(tmp_path, scenario):
    out = tmp_path / "report.json"
    assert cli.main(["riccati", str(scenario), "--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    if report["kind"] == "dephasing":
        assert report == DEPHASING_REPORT
        return
    s = load_scenario(scenario).scenario
    p = riccati.RiccatiProblem(dynamics.hamiltonian_static(s.qubit, s.bath))
    cap = riccati._SUBSPACE_RESIDUAL_CAP * max(1.0, linalg.frobenius_norm(p.r))
    assert report["subspace"]["residual"] <= cap
    newton = report["newton"]
    # the graph X is already at the roundoff floor: the refinement takes no
    # step, and its trace holds the one residual it measured
    assert newton["start"] == "subspace" and newton["iterations"] == 0
    assert newton["eta"] == report["subspace"]["eta"] <= riccati.ETA_TOL
    assert newton["trace"] == [newton["residual"]] == [report["subspace"]["residual"]]
    assert newton["x_norm2"] == report["subspace"]["x_norm2"]
    assert report["offdiag_residual"] <= 10.0 * max(newton["residual"], 1e-15) * report["cond_ux"]


# -- verify -------------------------------------------------------------------

def test_verify_passes_bundled_closed_qubit(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = cli.main(["verify", str(CLOSED_QUBIT), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    for name in (
        "covariance",
        "rotating_frame",
        "sandwich",
        "zt_riccati",
        "st_diagonalization",
        "weyl_displacement",
    ):
        assert f"PASS {name}:" in text
    assert "FAIL" not in text
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    assert len(report["results"]) == 6
    assert {r["check"] for r in report["results"]} == set(
        ("covariance", "rotating_frame", "sandwich", "zt_riccati",
         "st_diagonalization", "weyl_displacement")
    )


def test_verify_detects_coarse_integration(capsys):
    rc = cli.main(["verify", str(CLOSED_QUBIT), "--steps", "50"])
    assert rc == cli.EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert "FAIL rotating_frame:" in captured.out
    assert "second order" in captured.out
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: 1 of 6 checks failed: rotating_frame (residual ")


def test_verify_unresolvable_drive_phase_gives_no_step_advice(tmp_path, capsys):
    # at omega = 1e300 the phase omega t keeps no digit, so the residual
    # holds near 1.4 at any step count and halving the step cannot help
    doc = json.loads(SPINBOSON.read_text())
    doc["qubit"]["omega"] = 1e300
    rc = cli.main(["verify", str(write_doc(tmp_path, doc)), "--steps", "50"])
    assert rc == cli.EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "FAIL rotating_frame:" in out
    assert "second order" not in out
    assert "carries no digit" in out and "no step count helps" in out


def test_verify_out_records_the_steps_that_ran(tmp_path):
    out = tmp_path / "v.json"
    rc = cli.main(["verify", str(CLOSED_QUBIT), "--steps", "50", "--out", str(out)])
    assert rc == cli.EXIT_CHECK_FAILED
    report = json.loads(out.read_text())
    ran = next(r for r in report["results"] if r["check"] == "rotating_frame")
    assert report["scenario"]["time"]["steps"] == ran["steps"] == 50



def test_verify_with_no_checks_is_one_error_line(tmp_path, capsys):
    # a scenario that lists no checks has nothing to verify; riccati still reads it
    path = write_doc(tmp_path, minimal_doc())
    out = tmp_path / "v.json"
    assert cli.main(["verify", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: run.checks: ") and captured.err.count("\n") == 1
    assert not out.exists()
    assert cli.main(["riccati", str(path)]) == cli.EXIT_OK


def test_verify_sanity_cap_breach_fails_rotating_frame_and_runs_on(tmp_path, capsys, monkeypatch):
    # any roundoff in a state's trace breaches a cap of 0: the rotating_frame
    # check fails with the cap's text, and the checks after it still run
    monkeypatch.setattr(dynamics, "TRACE_DEV_CAP", 0.0)
    out = tmp_path / "v.json"
    rc = cli.main(["verify", str(SPINBOSON), "--steps", "5", "--out", str(out)])
    assert rc == cli.EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert "FAIL rotating_frame: residual=nan" in captured.out
    assert "     trajectory trace_dev reached " in captured.out
    assert captured.err == ("error: 1 of 5 checks failed: rotating_frame "
                            "(residual nan > 1e-05)\n")
    report = json.loads(out.read_text())
    assert [r["check"] for r in report["results"]] == json.loads(SPINBOSON.read_text())["run"]["checks"]
    (ran,) = [r for r in report["results"] if r["check"] == "rotating_frame"]
    assert ran["residual"] == "nan" and ran["passed"] is False
    assert ran["message"].startswith("trajectory trace_dev reached ")
    assert "beyond TRACE_DEV_CAP = 0" in ran["message"]
    assert report["all_pass"] is False

def reject_constant(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


def test_reports_write_non_finite_numbers_as_strings(tmp_path, capsys):
    # at omega 1e-20 the Weyl factor is NaN, and the check reports NaN measures
    doc = json.loads(WEYL.read_text())
    doc["bath"]["modes"][0]["omega"] = 1e-20
    doc["run"]["checks"] = ["weyl_displacement"]
    out = tmp_path / "v.json"
    rc = cli.main(["verify", str(write_doc(tmp_path, doc)), "--out", str(out)])
    assert rc == cli.EXIT_CHECK_FAILED
    assert "residual=nan, c_fit=nan" in capsys.readouterr().out
    (result,) = json.loads(out.read_text(), parse_constant=reject_constant)["results"]
    assert result["residual"] == result["c_fit"] == result["c_deviation"] == "nan"
    assert result["passed"] is False
    assert not finite_numbers(result)


def test_verify_runs_scenario_check_subset(capsys):
    rc = cli.main(["verify", str(DEPHASING)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "rotating_frame" not in text
    assert "weyl_displacement" not in text
    assert "PASS covariance:" in text


def test_verify_weyl_scenario(capsys):
    rc = cli.main(["verify", str(WEYL)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "PASS weyl_displacement:" in text
    assert "c_deviation" in text


@pytest.mark.parametrize("omega", ["1e-20", "1e-320"])
def test_verify_huge_displacement_is_one_error_line(tmp_path, omega):
    # |g / omega| of 2e19 leaves the Weyl exponential no correct digit, and at
    # 1e-320 it is infinite; either way the factor is NaN and the check fails
    # without a numpy or scipy warning on stderr
    doc = json.loads(WEYL.read_text())
    doc["bath"]["modes"][0]["omega"] = float(omega)
    doc["run"]["checks"] = ["weyl_displacement"]
    run = subprocess.run(
        [sys.executable, "-m", "bomric.cli", "verify", str(write_doc(tmp_path, doc))],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert run.returncode == cli.EXIT_CHECK_FAILED
    assert "FAIL weyl_displacement: residual=nan" in run.stdout
    assert run.stderr.count("\n") == 1 and run.stderr.startswith("error: 1 of 1 checks failed: ")


def huge_mode_doc(tmp_path, omega, cutoff, checks=None):
    """riccati_spinboson.json with its one mode at frequency omega and the given cutoff."""
    doc = json.loads(RICCATI_SB.read_text())
    doc["bath"]["modes"][0]["omega"] = omega
    doc["bath"]["fock_cutoff"] = cutoff
    if checks is not None:
        doc["run"]["checks"] = checks
    return write_doc(tmp_path, doc)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "bomric.cli", *map(str, argv)],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )


@pytest.mark.parametrize("section, key, value", [
    ("qubit", "beta", 1e3), ("qubit", "beta", -1e6), ("mode", "omega", 1e3), ("mode", "omega", 1e4),
])
def test_st_diagonalization_is_relative_to_the_block_norm(tmp_path, section, key, value):
    # the frame's absolute leftover grows with ||H_E|| and |beta| (up to 7e-10
    # at beta -1e6); relative to the periodic blocks it stays near roundoff
    path = riccati_sb_doc(tmp_path, section, key, value, checks=["st_diagonalization"])
    out = tmp_path / "verify.json"
    assert cli.main(["verify", str(path), "--out", str(out)]) == cli.EXIT_OK
    [frame] = json.loads(out.read_text())["results"]
    assert frame["offdiag_residual"] <= 1e-15 and frame["diag_deviation"] <= 1e-15


@pytest.mark.parametrize("omega, cutoff", [(1e306, 8), (1e307, 1)])
def test_offdiag_norm_of_huge_blocks_does_not_overflow(tmp_path, capsys, omega, cutoff):
    # the squared block norms would pass 1e308; the stacked norm does not, and
    # relative to the norm of the periodic blocks the frame still diagonalizes.
    # The graph X solves the equation to no digit (eta 0.12 and 0.5), so
    # --method subspace refuses it on one line; its block-diagonalization
    # leftover is taken in-process
    path = huge_mode_doc(tmp_path, omega, cutoff, checks=["st_diagonalization"])
    out_path = tmp_path / "verify.json"
    assert cli.main(["riccati", str(path), "--method", "subspace"]) == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("error: graph X has eta ") and err.count("\n") == 1
    s = load_scenario(path).scenario
    p = riccati.RiccatiProblem(dynamics.hamiltonian_static(s.qubit, s.bath))
    with np.errstate(all="ignore"):  # as main runs it
        leftover = riccati.diagonalize(p, riccati.solve_invariant_subspace(p))["offdiag_residual"]
    assert np.isfinite(leftover)
    assert cli.main(["verify", str(path), "--out", str(out_path)]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert "PASS st_diagonalization: offdiag_residual=" in out and err == ""
    [frame] = json.loads(out_path.read_text())["results"]
    assert frame["offdiag_residual"] <= 1e-15 and frame["diag_deviation"] <= 1e-15


@pytest.mark.parametrize("command", ["riccati", "verify", "simulate"])
def test_bath_overflowing_float64_is_one_error_line(tmp_path, capsys, command):
    argv = [command, str(huge_mode_doc(tmp_path, 1e308, 8))]
    argv += ["--out", str(tmp_path / "x.csv")] if command == "simulate" else []
    assert cli.main(argv) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: bath: H_E or V overflows float64") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["riccati"], cli.EXIT_NO_CONVERGENCE),
        (["riccati", "--method", "newton"], cli.EXIT_NO_CONVERGENCE),
        (["simulate", "--mode", "static_exact", "--out", "x.csv"], cli.EXIT_CHECK_FAILED),
    ],
    ids=["riccati", "newton", "static_exact"],
)
def test_float64_overflow_prints_no_numpy_warning(tmp_path, argv, code):
    # omega = 1e308 at cutoff 1 runs into inf and NaN: the solver or the
    # sanity caps report it on one line, with no RuntimeWarning before it
    path = huge_mode_doc(tmp_path, 1e308, 1)
    argv = [argv[0], path, *(tmp_path / a if a == "x.csv" else a for a in argv[1:])]
    run = run_cli(*argv)
    assert run.returncode == code
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr


# -- any input ends in a documented exit ---------------------------------------

def _leaf_paths(node, path=()):
    """Key paths (tuples) of the scalar and empty-list leaves of a document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        for k, value in enumerate(node):
            yield from _leaf_paths(value, path + (k,))
    else:
        yield path


# env_dim 4, 20 steps: every run the property can reach stays tiny; the
# second document's dephasing section sends riccati down the dephasing route
TINY_DOC = minimal_doc(time={"t_max": 2.0, "steps": 20, "substeps_per_step": 1})
TINY_DEPHASING_DOC = dict(
    TINY_DOC, dephasing={"m11": 1.0, "m22": -1.0, "m12_re": 0.0, "m12_im": 1.0}
)

ODD_VALUES = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.sampled_from([10**15, 10**400]),
    st.sampled_from([0, 0.0]),
    st.integers(-(10**6), -1),
    st.floats(-1e300, -1e-300),
    st.sampled_from([1e308, -1e308]),
    st.text("ab+-01", max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.booleans(),
    st.none(),
)


def _document_with_edits(doc):
    """The document, a mutation of one of its leaves and a sweep over one."""
    leaves = st.sampled_from(list(_leaf_paths(doc)))
    return st.tuples(
        st.just(doc),
        st.one_of(st.none(), st.tuples(leaves, ODD_VALUES)),
        st.one_of(st.none(), st.tuples(leaves, st.lists(ODD_VALUES, min_size=1, max_size=2))),
    )


@settings(max_examples=100, deadline=5000, database=None, derandomize=True)
@given(
    case=st.sampled_from([TINY_DOC, TINY_DEPHASING_DOC]).flatmap(_document_with_edits),
    command=st.sampled_from(["simulate", "verify", "riccati"]),
    steps=st.one_of(
        st.none(), st.sampled_from([-1, 0, 1, 50]), st.sampled_from([10**15, 10**400])
    ),
    mode=st.one_of(st.none(), st.sampled_from(cli.MODES)),
    method=st.sampled_from([None, "newton", "subspace"]),
    branch=st.sampled_from([None, "lower", "upper", "graph"]),
)
def test_any_input_ends_in_a_documented_exit(case, command, steps, mode, method, branch):
    doc, mutation, sweep = case
    doc = json.loads(json.dumps(doc))
    if mutation is not None:
        leaf, value = mutation
        node = doc
        for part in leaf[:-1]:
            node = node[part]
        node[leaf[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if command != "riccati" and steps is not None:
            argv += ["--steps", str(steps)]
        if command == "simulate":
            argv += ["--out", str(Path(tmp) / "x.csv")]
            if mode is not None:
                argv += ["--mode", mode]
            if sweep is not None:
                key, values = sweep
                dotted = ".".join(map(str, key))
                argv += ["--sweep", f"{dotted}={','.join(map(json.dumps, values))}"]
        if command == "riccati":
            argv += ["--out", str(Path(tmp) / "report.json")]
            argv += ["--method", method] if method else []
            argv += ["--branch", branch] if branch else []
        # capsys is per test function, not per example
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if command == "riccati" and rc == 0:
            assert finite_numbers(json.loads((Path(tmp) / "report.json").read_text()))
    assert rc in (0, 2, 3, 4, 5)
    if rc in (2, 3, 4):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "command, scenario, edits, extra, code, message",
    [
        *(("verify", path, {"bath.modes.0.g_re": 1e200}, [], cli.EXIT_CHECK_FAILED,
           "weyl_displacement (residual nan > 1e-06, c_deviation nan > 1e-06)")
          for path in (WEYL, CLOSED_QUBIT, RICCATI_SB)),
        ("riccati", WEYL, {"qubit.alpha": 1.7e308, "qubit.beta": 1.7e308}, [],
         cli.EXIT_NO_CONVERGENCE, "sylvester operands are not finite"),
        ("simulate", SPINBOSON, {}, ["--mode", "static_exact", "--sweep", "qubit.beta=0.5,1e300"],
         cli.EXIT_CHECK_FAILED, "eigenphase w t keeps no digit"),
        ("simulate", SPINBOSON, {}, ["--mode", "rotating_stepped", "--steps", "20",
                                     "--sweep", "qubit.alpha=1e308"],
         cli.EXIT_CHECK_FAILED, "trajectory trace_dev reached nan"),
        ("verify", CLOSED_QUBIT, {"bath.modes.0.g_re": 1e308}, ["--steps", "20"],
         cli.EXIT_CHECK_FAILED, "rotating_frame (residual nan > 1e-05)"),
    ],
    ids=["verify_weyl_g", "verify_closed_qubit_g", "verify_riccati_spinboson_g",
         "riccati_weyl_alpha_beta", "sweep_static_phase", "sweep_stepped_alpha_1e308",
         "verify_closed_qubit_g_1e308"],
)
def test_inputs_the_property_missed_end_in_a_documented_exit(
    tmp_path, capsys, command, scenario, edits, extra, code, message
):
    # |g|^2 past float64 once raised OverflowError, a non-finite Newton operand
    # numpy's LinAlgError, and the sweep wrote its first value's CSV; a step
    # norm near 1e308 raised OverflowError in the Taylor plan's 2.0**k
    doc = json.loads(scenario.read_text())
    for key, value in edits.items():
        cli._apply_override(doc, key, value)
    path = write_doc(tmp_path, doc)
    out = ["--out", str(tmp_path / "sw.csv")] if command == "simulate" else []
    assert cli.main([command, str(path), *out, *extra]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert list(tmp_path.iterdir()) == [path]


# finite entries only: a non-number is the schema's, and the property above covers it
DEPHASING_ENTRY = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-320, 1e-300, 1e200, 1e308, -1e308]),
)


@settings(max_examples=100, deadline=5000, database=None, derandomize=True)
@given(entries=st.fixed_dictionaries(
    {}, optional={key: DEPHASING_ENTRY for key in TINY_DEPHASING_DOC["dephasing"]}
))
def test_any_dephasing_matrix_ends_in_a_documented_exit(entries):
    # the general property above seldom edits the dephasing section: here
    # every example does, and riccati takes the dephasing route
    doc = dict(TINY_DEPHASING_DOC, dephasing={**TINY_DEPHASING_DOC["dephasing"], **entries})
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["riccati", str(write_doc(Path(tmp), doc)), "--out", str(out)])
        if rc == 0:
            assert finite_numbers(json.loads(out.read_text()))
    assert rc in (0, 4)
    if rc != 0:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["riccati", str(RICCATI_SB), "--method", "bogus"],
        ["riccati", str(RICCATI_SB), "--branch", "lower"],
        ["riccati", str(RICCATI_SB), "--steps", "3"],
        ["simulate", str(CLOSED_QUBIT)],
        ["verify", str(CLOSED_QUBIT), "--steps", "many"],
        [],
    ],
    ids=["invalid_choice", "removed_branch", "unrecognized_flag", "missing_out",
         "non_integer_steps", "no_command"],
)
def test_argument_errors_give_one_line_and_exit_2(capsys, argv):
    rc = cli.main(argv)
    assert rc == cli.EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bomric") and captured.err.count("\n") == 1
    assert "usage:" not in captured.err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["riccati", "-h"])
    assert exc.value.code == 0
    assert "--branch {graph}" in capsys.readouterr().out


def test_parser_is_built_once_and_keeps_no_state():
    # main parses every call with one parser; each parse starts a fresh --sweep list
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    argv = ["simulate", "a.json", "--out", "a.csv"]
    swept = parser.parse_args(argv + ["--sweep", "qubit.alpha=1", "--sweep", "qubit.beta=2"])
    assert swept.sweep == ["qubit.alpha=1", "qubit.beta=2"]
    assert parser.parse_args(argv).sweep is None
    assert parser.parse_args(argv + ["--sweep", "qubit.alpha=3"]).sweep == ["qubit.alpha=3"]


# -- the README's CLI examples ---------------------------------------------------

def readme_cli_lines():
    text = (SCENARIO_DIR.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("bomric ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every documented command line runs as written, from a directory
    # holding the bundled scenarios/
    lines = readme_cli_lines()
    assert len(lines) >= 7
    (tmp_path / "scenarios").symlink_to(SCENARIO_DIR)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        rc = cli.main(shlex.split(line)[1:])
        assert rc == 0, f"{line}: exit {rc}, {capsys.readouterr().err}"
