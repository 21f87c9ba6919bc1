import json
import os
import subprocess
import sys
from pathlib import Path

from bomric import linalg
from bomric.blockop import flatten
from bomric.dynamics import hamiltonian_static
from bomric.scenario import load_scenario

REPO = Path(__file__).resolve().parents[1]


def test_convergence_sweep_script_on_action_path(tmp_path):
    # a pure state on a 13-level bath (2N = 26): its stepped run takes the Taylor action
    doc = {
        "qubit": {"alpha": 0.3, "beta": 0.5, "omega": 1.0},
        "bath": {"modes": [{"omega": 1.0, "g_re": 0.2}], "fock_cutoff": 12},
        "initial": {"kind": "product", "qubit_state": "+", "env_state": {"fock": 0}},
        "time": {"t_max": 5.0, "steps": 250},
        "run": {"mode": "rotating_stepped", "checks": ["rotating_frame"]},
    }
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(doc))
    s = load_scenario(path).scenario
    h = flatten(hamiltonian_static(s.qubit, s.bath))
    assert linalg.action_plan(h, -1j * s.t_max / s.steps, 1) is not None

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "convergence_sweep.py"), str(path),
         "--steps", "250", "500"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    steps, residual, ratio = run.stdout.splitlines()[-1].split()
    assert steps == "500" and float(residual) > 0.0
    assert 3.9 <= float(ratio) <= 4.1
