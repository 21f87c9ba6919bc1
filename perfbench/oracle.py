"""The benchmark's own correctness oracle for bomric's CLI outputs.

Independent of the program's operator code: the joint Hamiltonian is built
here from plain numpy Kronecker ladders, and reference states come from
dense scipy.linalg.expm.  Only the sanity caps the program declares
(TRACE_DEV_CAP, HERM_DEV_CAP, POSITIVITY_FLOOR) are read from bomric, since
they are the bounds its trajectories promise to stay inside.

Each check returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import csv
import json
from functools import reduce
from pathlib import Path

import numpy as np
import scipy.linalg

from bomric.dynamics import HERM_DEV_CAP, POSITIVITY_FLOOR, TRACE_DEV_CAP

CSV_COLUMNS = [
    "t", "rho00_re", "rho00_im", "rho01_re", "rho01_im",
    "rho10_re", "rho10_im", "rho11_re", "rho11_im",
    "bloch_x", "bloch_y", "bloch_z", "purity", "trace_dev", "pos_floor",
]

# Exact modes must match the dense reference to near roundoff.  The stepped
# mode must match the same midpoint rule to near roundoff, and the exact
# driven evolution to within verify's rotating_frame tolerance wherever the
# scenario claims that check (i.e. declares its grid resolved).
EXACT_TOL = 1e-10
MIDPOINT_TOL = 1e-9
ROTATING_FRAME_TOL = 1e-5
# Columns derived from the state (Bloch vector, purity) must agree with it.
DERIVED_TOL = 1e-12
# Residual bound for a Riccati solution, relative to max(1, ||R||_F).
RICCATI_TOL = 1e-9
# Grid points compared against the dense reference (evenly spaced, ends included).
SAMPLES = 9

_QUBIT_STATES = {
    "0": [[1, 0], [0, 0]],
    "1": [[0, 0], [0, 1]],
    "+": [[0.5, 0.5], [0.5, 0.5]],
    "-": [[0.5, -0.5], [-0.5, 0.5]],
    "+i": [[0.5, -0.5j], [0.5j, 0.5]],
    "-i": [[0.5, 0.5j], [-0.5j, 0.5]],
}
_E00 = np.array([[1, 0], [0, 0]], dtype=complex)
_E01 = np.array([[0, 1], [0, 0]], dtype=complex)
_E10 = np.array([[0, 0], [1, 0]], dtype=complex)
_E11 = np.array([[0, 0], [0, 1]], dtype=complex)


def _matrix(obj) -> np.ndarray:
    re = np.array(obj["re"], dtype=float)
    return re + 1j * np.array(obj.get("im", np.zeros_like(re)), dtype=float)


class Model:
    """Joint operators of one scenario document, built from scratch."""

    def __init__(self, doc: dict):
        q = doc["qubit"]
        self.alpha, self.beta, self.omega = q["alpha"], q["beta"], q["omega"]
        bath = doc["bath"]
        d = bath["fock_cutoff"] + 1
        modes = bath["modes"]
        a = np.diag(np.sqrt(np.arange(1.0, d)), k=1).astype(complex)
        eye = np.eye(d, dtype=complex)
        n = d ** len(modes)
        self.n = n
        he = np.zeros((n, n), dtype=complex)
        v = np.zeros((n, n), dtype=complex)
        for k, mode in enumerate(modes):
            ak = reduce(np.kron, [a if j == k else eye for j in range(len(modes))])
            g = mode["g_re"] + 1j * mode.get("g_im", 0.0)
            he += mode["omega"] * (ak.conj().T @ ak)
            v += np.conj(g) * ak + g * ak.conj().T
        self.he, self.v = he, v
        self.eye = np.eye(n, dtype=complex)
        self.t_max = float(doc["time"]["t_max"])
        self.steps = int(doc["time"]["steps"])
        self.substeps = int(doc["time"].get("substeps_per_step", 1))
        self.checks = doc["run"].get("checks", [])
        self.rho0 = self._initial(doc["initial"])
        self.dephasing = doc.get("dephasing")

    def _initial(self, init: dict) -> np.ndarray:
        if init["kind"] == "explicit":
            return _matrix(init["matrix"])
        qs = init["qubit_state"]
        rq = np.array(_QUBIT_STATES[qs], dtype=complex) if isinstance(qs, str) else _matrix(qs)
        es = init["env_state"]
        if "fock" in es:
            re = np.zeros((self.n, self.n), dtype=complex)
            re[es["fock"], es["fock"]] = 1.0
        else:
            re = _matrix(es)
        return np.kron(rq, re)

    def hamiltonian(self, beta: float, phase: complex = 1.0) -> np.ndarray:
        """[[H_E + V + beta, alpha phase], [alpha phase*, H_E - V - beta]]."""
        return (
            np.kron(_E00, self.he + self.v + beta * self.eye)
            + np.kron(_E11, self.he - self.v - beta * self.eye)
            + self.alpha * (phase * np.kron(_E01, self.eye) + np.conj(phase) * np.kron(_E10, self.eye))
        )

    def riccati_operator(self) -> np.ndarray:
        if self.dephasing is None:
            return self.hamiltonian(self.beta)
        m = self.dephasing
        m12 = m["m12_re"] + 1j * m.get("m12_im", 0.0)
        return (
            np.kron(_E00, self.he + m["m11"] * self.v)
            + np.kron(_E11, self.he + m["m22"] * self.v)
            + np.kron(m12 * _E01 + np.conj(m12) * _E10, self.v)
        )

    def reduce(self, u: np.ndarray) -> np.ndarray:
        rho = (u @ self.rho0 @ u.conj().T).reshape(2, self.n, 2, self.n)
        return np.einsum("ajbj->ab", rho)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps + 1)

    def static_state(self, t: float, beta: float) -> np.ndarray:
        return self.reduce(scipy.linalg.expm(-1j * t * self.hamiltonian(beta)))

    def driven_state(self, t: float) -> np.ndarray:
        """Exact driven evolution: rotation exp(iKt) after the static H(beta - omega/2)."""
        rot = np.diag([np.exp(-0.5j * self.omega * t), np.exp(0.5j * self.omega * t)])
        u = np.kron(rot, self.eye) @ scipy.linalg.expm(
            -1j * t * self.hamiltonian(self.beta - self.omega / 2.0)
        )
        return self.reduce(u)

    def midpoint_states(self, indices) -> dict[int, np.ndarray]:
        """Reduced states of the midpoint-exponential product at grid indices."""
        wanted = set(int(k) for k in indices)
        dt = self.t_max / (self.steps * self.substeps)
        u = np.eye(2 * self.n, dtype=complex)
        out = {0: self.reduce(u)} if 0 in wanted else {}
        for k in range(max(wanted)):
            for j in range(self.substeps):
                tm = (k * self.substeps + j + 0.5) * dt
                h = self.hamiltonian(self.beta, np.exp(-1j * self.omega * tm))
                u = scipy.linalg.expm(-1j * dt * h) @ u
            if k + 1 in wanted:
                out[k + 1] = self.reduce(u)
        return out


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def sample_indices(steps: int) -> np.ndarray:
    return np.unique(np.linspace(0, steps, SAMPLES).round().astype(int))


def check_trajectory(model: Model, mode: str, header, data: np.ndarray) -> list[str]:
    """Check a simulate CSV (as parsed by read_csv) against the model."""
    if list(header) != CSV_COLUMNS:
        return [f"unexpected CSV header {header}"]
    if data.shape != (model.steps + 1, len(CSV_COLUMNS)):
        return [f"expected {model.steps + 1} rows, got {data.shape[0]}"]
    if not np.all(np.isfinite(data)):
        return ["non-finite values in the CSV"]
    problems = []
    col = {name: data[:, k] for k, name in enumerate(CSV_COLUMNS)}
    if not np.max(np.abs(col["t"] - model.times)) <= 1e-12 * model.t_max:
        problems.append("time column does not match the grid")
    rho = np.empty((len(data), 2, 2), dtype=complex)
    rho[:, 0, 0] = col["rho00_re"] + 1j * col["rho00_im"]
    rho[:, 0, 1] = col["rho01_re"] + 1j * col["rho01_im"]
    rho[:, 1, 0] = col["rho10_re"] + 1j * col["rho10_im"]
    rho[:, 1, 1] = col["rho11_re"] + 1j * col["rho11_im"]

    trace_dev = np.abs(rho[:, 0, 0] + rho[:, 1, 1] - 1.0)
    herm_dev = np.linalg.norm(rho - rho.conj().transpose(0, 2, 1), axis=(1, 2))
    floor = np.linalg.eigvalsh((rho + rho.conj().transpose(0, 2, 1)) / 2.0)[:, 0]
    for name, bad in (
        ("trace deviation above TRACE_DEV_CAP", ~((trace_dev <= TRACE_DEV_CAP) & (col["trace_dev"] <= TRACE_DEV_CAP))),
        ("hermiticity deviation above HERM_DEV_CAP", ~(herm_dev <= HERM_DEV_CAP)),
        ("eigenvalue below POSITIVITY_FLOOR", ~((floor >= POSITIVITY_FLOOR) & (col["pos_floor"] >= POSITIVITY_FLOOR))),
    ):
        if np.any(bad):
            problems.append(f"{name} at {int(np.count_nonzero(bad))} rows")

    bloch = np.stack([
        (rho[:, 0, 1] + rho[:, 1, 0]).real,
        (1j * (rho[:, 0, 1] - rho[:, 1, 0])).real,
        (rho[:, 0, 0] - rho[:, 1, 1]).real,
    ], axis=1)
    purity = np.einsum("kab,kba->k", rho, rho).real
    derived = np.max(np.abs(np.column_stack([bloch, purity])
                            - np.column_stack([col["bloch_x"], col["bloch_y"], col["bloch_z"], col["purity"]])))
    if not derived <= DERIVED_TOL:
        problems.append(f"Bloch/purity columns disagree with the state by {derived:.3e}")

    idx = sample_indices(model.steps)
    times = model.times
    if mode == "static_exact":
        refs = [("dense expm", EXACT_TOL, {k: model.static_state(times[k], model.beta) for k in idx})]
    elif mode == "factored":
        refs = [("dense expm", EXACT_TOL, {k: model.driven_state(times[k]) for k in idx})]
    else:
        refs = [("midpoint reference", MIDPOINT_TOL, model.midpoint_states(idx))]
        if "rotating_frame" in model.checks:
            refs.append(("exact driven evolution", ROTATING_FRAME_TOL,
                         {k: model.driven_state(times[k]) for k in idx}))
    for label, tol, ref in refs:
        dev = max(float(np.linalg.norm(rho[k] - ref[k])) for k in idx)
        if not dev <= tol:
            problems.append(f"{mode} deviates from the {label} by {dev:.3e} > {tol:.0e}")
    return problems


def check_simulate(model: Model, mode: str, path: Path) -> list[str]:
    header, data = read_csv(path)
    return check_trajectory(model, mode, header, data)


def check_riccati(model: Model, path: Path) -> list[str]:
    report = json.loads(Path(path).read_text())
    limit = RICCATI_TOL * max(1.0, float(np.linalg.norm(model.riccati_operator())))
    if report.get("kind") == "dephasing":
        residuals = {k: report[k] for k in ("residual_principal", "residual_partner")}
    else:
        residuals = {k: report[k]["residual"] for k in ("newton", "subspace") if k in report}
    if not residuals:
        return ["riccati report holds no residual"]
    return [
        f"{k} residual {r:.3e} above {limit:.3e}"
        for k, r in residuals.items() if not r <= limit
    ]


def check_verify(path: Path) -> list[str]:
    report = json.loads(Path(path).read_text())
    if report.get("all_pass") is True:
        return []
    failed = [r["check"] for r in report.get("results", []) if not r.get("passed")]
    return [f"verify checks failed: {failed}"]
