"""Scenario files: a closed JSON schema for runnable problems.

Unknown keys are rejected everywhere, so a typo fails loudly instead of
silently running defaults.  Complex matrices are encoded as
{"re": [[...]], "im": [[...]]} with "im" optional; bath mode couplings as
g_re / g_im pairs.

The parser checks only what JSON can get wrong (keys, types, finiteness,
matrix shapes); range rules live in the BathMode, BathSpec and Scenario
constructors, whose errors _build prefixes with the section path.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bath import BathMode, BathSpec, DimensionCapError
from .checks import CHECKS
from .dynamics import MODES, InvalidStateError, QubitParams, Scenario

CHECK_NAMES = tuple(CHECKS)

_QUBIT_STATES = {
    "0": np.array([[1, 0], [0, 0]], dtype=complex),
    "1": np.array([[0, 0], [0, 1]], dtype=complex),
    "+": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "-": np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex),
    "+i": np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
    "-i": np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex),
}


class ScenarioError(ValueError):
    """The scenario file violates the schema."""


@dataclass(frozen=True)
class RunConfig:
    """A validated scenario plus the run section of the file."""

    scenario: Scenario
    mode: str
    checks: tuple[str, ...]
    dephasing_m: np.ndarray | None


def _require_dict(obj, path: str, allowed: set[str], required: set[str]) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {unknown}")
    missing = sorted(required - set(obj))
    if missing:
        raise ScenarioError(f"{path}: missing required keys {missing}")
    return obj


def _num(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {obj!r}")
    try:
        x = float(obj)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError(f"{path}: expected a finite number, got {x}")
    return x


def _int(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ScenarioError(f"{path}: expected an integer, got {obj!r}")
    return obj


def _build(cls, path: str, *args, **fields):
    """cls(*args, **fields) (cls may be dataclasses.replace), with its ValueError
    raised as a ScenarioError prefixed by path; DimensionCapError and
    InvalidStateError keep their own exit codes."""
    try:
        return cls(*args, **fields)
    except (DimensionCapError, InvalidStateError):
        raise
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _matrix(obj, path: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    _require_dict(obj, path, {"re", "im"}, {"re"})
    try:
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj.get("im", np.zeros_like(re)), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{path}: entries must be numeric: {exc}") from None
    if re.ndim != 2 or re.shape != im.shape:
        raise ScenarioError(
            f"{path}: 're' and 'im' must be equal-shape 2-d arrays, "
            f"got {re.shape} and {im.shape}"
        )
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ScenarioError(f"{path}: entries must be finite numbers")
    m = re + 1j * im
    if shape is not None and m.shape != shape:
        raise ScenarioError(f"{path}: expected shape {shape}, got {m.shape}")
    return m


def _parse_qubit(obj) -> QubitParams:
    _require_dict(obj, "qubit", {"alpha", "beta", "omega"}, {"alpha", "beta", "omega"})
    return QubitParams(
        alpha=_num(obj["alpha"], "qubit.alpha"),
        beta=_num(obj["beta"], "qubit.beta"),
        omega=_num(obj["omega"], "qubit.omega"),
    )


def _parse_bath(obj) -> BathSpec:
    _require_dict(obj, "bath", {"modes", "fock_cutoff"}, {"modes", "fock_cutoff"})
    if not isinstance(obj["modes"], list):
        raise ScenarioError("bath.modes: expected a list")
    modes = []
    for k, mode in enumerate(obj["modes"]):
        path = f"bath.modes[{k}]"
        _require_dict(mode, path, {"omega", "g_re", "g_im"}, {"omega", "g_re"})
        omega = _num(mode["omega"], f"{path}.omega")
        g = _num(mode["g_re"], f"{path}.g_re") + 1j * _num(
            mode.get("g_im", 0.0), f"{path}.g_im"
        )
        modes.append(_build(BathMode, path, omega=omega, g=g))
    cutoff = _int(obj["fock_cutoff"], "bath.fock_cutoff")
    return _build(BathSpec, "bath", modes=tuple(modes), fock_cutoff=cutoff)


def _parse_initial(obj, bath: BathSpec) -> np.ndarray:
    _require_dict(obj, "initial", {"kind", "qubit_state", "env_state", "matrix"}, {"kind"})
    kind = obj["kind"]
    if kind == "product":
        _require_dict(
            obj, "initial", {"kind", "qubit_state", "env_state"},
            {"kind", "qubit_state", "env_state"},
        )
        qs = obj["qubit_state"]
        if isinstance(qs, str):
            if qs not in _QUBIT_STATES:
                raise ScenarioError(
                    f"initial.qubit_state: unknown name {qs!r}; "
                    f"expected one of {sorted(_QUBIT_STATES)} or a matrix"
                )
            rho_q = _QUBIT_STATES[qs]
        else:
            rho_q = _matrix(qs, "initial.qubit_state", (2, 2))
        es = obj["env_state"]
        n = bath.env_dim
        if isinstance(es, dict) and set(es) == {"fock"}:
            level = _int(es["fock"], "initial.env_state.fock")
            if not 0 <= level < n:
                raise ScenarioError(
                    f"initial.env_state.fock: level {level} outside [0, {n})"
                )
            rho_e = np.zeros((n, n), dtype=complex)
            rho_e[level, level] = 1.0
        else:
            rho_e = _matrix(es, "initial.env_state", (n, n))
        return np.kron(rho_q, rho_e)
    if kind == "explicit":
        _require_dict(obj, "initial", {"kind", "matrix"}, {"kind", "matrix"})
        n = bath.env_dim
        return _matrix(obj["matrix"], "initial.matrix", (2 * n, 2 * n))
    raise ScenarioError(f"initial.kind: expected 'product' or 'explicit', got {kind!r}")


def _parse_time(obj) -> tuple[float, int, int]:
    _require_dict(
        obj, "time", {"t_max", "steps", "substeps_per_step"}, {"t_max", "steps"}
    )
    t_max = _num(obj["t_max"], "time.t_max")
    steps = _int(obj["steps"], "time.steps")
    substeps = _int(obj.get("substeps_per_step", 1), "time.substeps_per_step")
    return t_max, steps, substeps


def _parse_run(obj) -> tuple[str, tuple[str, ...]]:
    _require_dict(obj, "run", {"mode", "checks"}, {"mode"})
    mode = obj["mode"]
    if mode not in MODES:
        raise ScenarioError(f"run.mode: expected one of {MODES}, got {mode!r}")
    checks = obj.get("checks", list(CHECK_NAMES))
    if not isinstance(checks, list):
        raise ScenarioError("run.checks: expected a list of check names")
    for name in checks:
        if name not in CHECK_NAMES:
            raise ScenarioError(
                f"run.checks: unknown check {name!r}; expected from {CHECK_NAMES}"
            )
    return mode, tuple(checks)


def _parse_dephasing(obj) -> np.ndarray:
    _require_dict(
        obj, "dephasing", {"m11", "m22", "m12_re", "m12_im"}, {"m11", "m22", "m12_re"}
    )
    m11 = _num(obj["m11"], "dephasing.m11")
    m22 = _num(obj["m22"], "dephasing.m22")
    m12 = _num(obj["m12_re"], "dephasing.m12_re") + 1j * _num(
        obj.get("m12_im", 0.0), "dephasing.m12_im"
    )
    return np.array([[m11, m12], [np.conj(m12), m22]], dtype=complex)


def scenario_from_dict(data) -> RunConfig:
    """Validate a parsed scenario document and build the run configuration."""
    top_allowed = {"qubit", "bath", "initial", "time", "run", "dephasing"}
    top_required = {"qubit", "bath", "initial", "time", "run"}
    _require_dict(data, "scenario", top_allowed, top_required)
    qubit = _parse_qubit(data["qubit"])
    bath = _parse_bath(data["bath"])
    initial = _parse_initial(data["initial"], bath)
    t_max, steps, substeps = _parse_time(data["time"])
    mode, checks = _parse_run(data["run"])
    dephasing_m = _parse_dephasing(data["dephasing"]) if "dephasing" in data else None
    scenario = _build(
        Scenario,
        "time",
        qubit=qubit,
        bath=bath,
        initial_state=initial,
        t_max=t_max,
        steps=steps,
        substeps_per_step=substeps,
    )
    return RunConfig(scenario=scenario, mode=mode, checks=checks, dephasing_m=dephasing_m)


def read_document(path) -> dict:
    """Parse a scenario JSON file without validating it against the schema."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from None


def load_scenario(path) -> RunConfig:
    """Read and validate a scenario JSON file."""
    return scenario_from_dict(read_document(path))
