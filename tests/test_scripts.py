import json
import os
import subprocess
import sys
from pathlib import Path

from bomric import linalg, riccati
from bomric.dynamics import hamiltonian_static
from bomric.scenario import load_scenario

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


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
    h = hamiltonian_static(s.qubit, s.bath)
    assert linalg.action_plan(h, -1j * s.t_max / s.steps, 1) is not None

    lines = run_script("convergence_sweep.py", str(path), "--steps", "250", "500", cwd=tmp_path)
    steps, residual, ratio = lines[-1].split()
    assert steps == "500" and float(residual) > 0.0
    assert 3.9 <= float(ratio) <= 4.1


def test_weyl_cutoff_sweep_script(tmp_path):
    lines = run_script("weyl_cutoff_sweep.py", "--cutoffs", "4", "6", cwd=tmp_path)
    assert "expected shift -0.040000" in lines[0]
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [["4", "2"], ["6", "3"]]
    residuals = [float(row[2]) for row in rows]
    assert 0.0 < residuals[1] < residuals[0] < 1e-5
    assert all(abs(float(row[3]) + 0.04) < 1e-5 for row in rows)


def test_riccati_branch_scan_script(tmp_path):
    # omega0 = 1.0 = 2 beta is the resonance; at cutoff 7 Newton stalls there
    lines = run_script(
        "riccati_branch_scan.py", "--n-max", "7", "--omega0", "1.0", "2.0", cwd=tmp_path
    )
    assert "resonance at omega0 = 1.0" in lines[0]
    resonant, off = lines[2].split(), lines[3].split()
    assert resonant[0] == "1.00" and "NO CONVERGENCE" in lines[2]
    assert off[0] == "2.00" and int(off[1]) <= 10
    assert float(off[3]) <= 1e-8 and float(off[4]) <= 1e-10
    assert float(off[7]) <= riccati.ETA_TOL / 2.0**-53  # Newton's last eta, in u
