import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from bomric.bath import STEP_CAP
from bomric.scenario import (
    CHECK_NAMES,
    RunConfig,
    ScenarioError,
    load_scenario,
    scenario_from_dict,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def base_doc():
    return {
        "qubit": {"alpha": 0.3, "beta": 0.5, "omega": 1.0},
        "bath": {"modes": [{"omega": 2.0, "g_re": 0.2}], "fock_cutoff": 4},
        "initial": {"kind": "product", "qubit_state": "+", "env_state": {"fock": 0}},
        "time": {"t_max": 10.0, "steps": 100},
        "run": {"mode": "rotating_stepped"},
    }


@pytest.mark.parametrize(
    "path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem
)
def test_bundled_scenarios_load(path):
    cfg = load_scenario(path)
    assert isinstance(cfg, RunConfig)
    assert cfg.mode in ("rotating_stepped", "static_exact", "factored")
    assert set(cfg.checks) <= set(CHECK_NAMES)
    assert cfg.scenario.steps >= 1


def test_minimal_document_parses():
    cfg = scenario_from_dict(base_doc())
    assert cfg.scenario.qubit.alpha == 0.3
    assert cfg.scenario.bath.env_dim == 5
    assert cfg.scenario.t_max == 10.0
    assert cfg.scenario.substeps_per_step == 1
    # checks default to the full registry
    assert cfg.checks == CHECK_NAMES
    assert cfg.dephasing_m is None


def test_product_state_assembly_matches_kron():
    doc = base_doc()
    cfg = scenario_from_dict(doc)
    n = cfg.scenario.bath.env_dim
    env = np.zeros((n, n))
    env[0, 0] = 1.0
    oracle = np.kron(np.full((2, 2), 0.5), env)
    assert np.allclose(cfg.scenario.initial_state, oracle)


def test_named_qubit_states():
    expectations = {
        "0": np.diag([1.0, 0.0]),
        "1": np.diag([0.0, 1.0]),
        "-": np.array([[0.5, -0.5], [-0.5, 0.5]]),
        "+i": np.array([[0.5, -0.5j], [0.5j, 0.5]]),
    }
    for name, rho in expectations.items():
        doc = base_doc()
        doc["initial"]["qubit_state"] = name
        cfg = scenario_from_dict(doc)
        n = cfg.scenario.bath.env_dim
        top = cfg.scenario.initial_state[:2 * n:n, :2 * n:n]
        # sampling the (i n, j n) grid recovers rho times env[0, 0]
        assert np.allclose(top, rho)


def test_matrix_encoded_states():
    doc = base_doc()
    doc["initial"]["qubit_state"] = {"re": [[0.5, 0.0], [0.0, 0.5]]}
    doc["initial"]["env_state"] = {"re": (np.eye(5) / 5.0).tolist()}
    cfg = scenario_from_dict(doc)
    assert abs(np.trace(cfg.scenario.initial_state) - 1.0) <= 1e-12


def test_explicit_initial_state():
    doc = base_doc()
    n = 5
    rho = np.zeros((2 * n, 2 * n))
    rho[0, 0] = 1.0
    doc["initial"] = {"kind": "explicit", "matrix": {"re": rho.tolist()}}
    cfg = scenario_from_dict(doc)
    assert np.allclose(cfg.scenario.initial_state, rho)


def test_complex_mode_coupling():
    doc = base_doc()
    doc["bath"]["modes"][0]["g_im"] = -0.1
    cfg = scenario_from_dict(doc)
    assert cfg.scenario.bath.modes[0].g == 0.2 - 0.1j


def test_dephasing_section_builds_hermitian_matrix():
    doc = base_doc()
    doc["dephasing"] = {"m11": 1.0, "m22": -1.0, "m12_re": 0.0, "m12_im": 1.0}
    cfg = scenario_from_dict(doc)
    m = cfg.dephasing_m
    assert np.allclose(m, m.conj().T)
    assert m[0, 1] == 1.0j
    assert m[1, 0] == -1.0j


def reject(doc, path=""):
    """The document raises a ScenarioError whose message starts with path."""
    with pytest.raises(ScenarioError, match="^" + re.escape(path)):
        scenario_from_dict(doc)


def test_unknown_keys_rejected_everywhere():
    for section, key in (
        (None, "extra"),
        ("qubit", "gamma"),
        ("bath", "temperature"),
        ("initial", "phase"),
        ("time", "dt"),
        ("run", "verbose"),
    ):
        doc = base_doc()
        if section is None:
            doc["extra"] = 1
        else:
            doc[section][key] = 1
        reject(doc)
    doc = base_doc()
    doc["bath"]["modes"][0]["label"] = "x"
    reject(doc)


def test_missing_sections_rejected():
    for section in ("qubit", "bath", "initial", "time", "run"):
        doc = base_doc()
        del doc[section]
        reject(doc)


def test_booleans_are_not_numbers():
    doc = base_doc()
    doc["qubit"]["alpha"] = True
    reject(doc)
    doc = base_doc()
    doc["time"]["steps"] = True
    reject(doc)


def test_non_integer_steps_rejected():
    doc = base_doc()
    doc["time"]["steps"] = 10.5
    reject(doc)


def test_fock_level_out_of_range():
    doc = base_doc()
    doc["initial"]["env_state"] = {"fock": 5}
    reject(doc)
    doc["initial"]["env_state"] = {"fock": -1}
    reject(doc)


def test_wrong_matrix_shape():
    doc = base_doc()
    doc["initial"]["qubit_state"] = {"re": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
    reject(doc)


def test_ragged_matrix_rejected():
    doc = base_doc()
    doc["initial"]["qubit_state"] = {"re": [[1.0], [0.0, 0.0]]}
    reject(doc)


def test_unknown_state_name():
    doc = base_doc()
    doc["initial"]["qubit_state"] = "left"
    reject(doc)


def test_unknown_mode_and_checks():
    doc = base_doc()
    doc["run"]["mode"] = "euler"
    reject(doc)
    doc = base_doc()
    doc["run"]["checks"] = ["covariance", "parity"]
    reject(doc)
    doc = base_doc()
    doc["run"]["checks"] = "covariance"
    reject(doc)


# The range rules below live in the BathMode, BathSpec and Scenario
# constructors; the parser reports each under the section of the bad value.

def test_empty_modes_rejected():
    doc = base_doc()
    doc["bath"]["modes"] = []
    reject(doc, "bath: ")


def test_negative_mode_frequency_rejected():
    for omega in (-2.0, -1.0, 0.0):
        doc = base_doc()
        doc["bath"]["modes"][0]["omega"] = omega
        reject(doc, "bath.modes[0]: ")


def test_sub_one_cutoff_and_empty_time_grid_rejected():
    for section, key, value in (
        ("bath", "fock_cutoff", 0),
        ("time", "t_max", 0.0),
        ("time", "steps", 0),
        ("time", "substeps_per_step", 0),
    ):
        doc = base_doc()
        doc[section][key] = value
        reject(doc, f"{section}: ")


def test_checks_subset_preserved_in_order():
    doc = base_doc()
    doc["run"]["checks"] = ["sandwich", "covariance"]
    cfg = scenario_from_dict(doc)
    assert cfg.checks == ("sandwich", "covariance")


def test_load_scenario_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(p)


def test_load_scenario_rejects_overlong_integer(tmp_path):
    # json parses the digits, then int() refuses more than 4300 of them
    p = tmp_path / "long.json"
    p.write_text(json.dumps(base_doc()).replace('"steps": 100', '"steps": ' + "1" * 5000))
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(p)


@pytest.mark.parametrize(
    "steps, substeps, ok",
    [(STEP_CAP, 1, True), (1000, STEP_CAP // 1000, True), (STEP_CAP + 1, 1, False),
     (1000, STEP_CAP // 1000 + 1, False), (1, 10**9, False)],
)
def test_step_cap_on_steps_times_substeps(steps, substeps, ok):
    # the grid is never built here, so the cap itself costs nothing to test
    doc = base_doc()
    doc["time"].update(steps=steps, substeps_per_step=substeps)
    if ok:
        assert scenario_from_dict(doc).scenario.steps == steps
    else:
        with pytest.raises(ScenarioError, match=f"exceeds STEP_CAP = {STEP_CAP}"):
            scenario_from_dict(doc)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "nope.json")


def test_non_finite_matrix_entry_rejected():
    doc = base_doc()
    doc["initial"]["qubit_state"] = {"re": [[0.5, 0.5], [0.5, 0.5]], "im": [[0.0, float("nan")], [0.0, 0.0]]}
    with pytest.raises(ScenarioError, match="finite"):
        scenario_from_dict(doc)


def test_documents_are_not_mutated():
    doc = base_doc()
    snapshot = copy.deepcopy(doc)
    scenario_from_dict(doc)
    assert doc == snapshot


def test_bundled_scenarios_are_valid_json_documents():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        assert isinstance(data, dict)
