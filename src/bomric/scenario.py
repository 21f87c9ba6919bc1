"""Scenario files: a closed JSON schema for runnable problems.

Unknown keys are rejected everywhere, so a typo fails loudly instead of
silently running defaults.  Complex matrices are encoded as
{"re": [[...]], "im": [[...]]} with "im" optional; bath mode couplings as
g_re / g_im pairs.

The parser checks only what JSON can get wrong (keys, types, finiteness,
matrix shapes) and gives each value its one type: a float, an int, or a
tuple of BathMode with complex g.  Range rules live in the BathMode,
BathSpec and Scenario constructors, whose errors _build prefixes with the
section path; they take those types as given.
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


def _fields(obj, path: str, spec: dict) -> dict:
    """obj's keys, read in spec's order: spec maps each key to (reader, default),
    reader(value, dotted path), and a default of None marks a required key."""
    _require_dict(obj, path, set(spec), {k for k, (_, d) in spec.items() if d is None})
    return {key: read(obj.get(key, default), f"{path}.{key}")
            for key, (read, default) in spec.items()}


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


def _build(cls, path: str, **fields):
    """cls(**fields), with its ValueError raised as a ScenarioError prefixed by
    path; DimensionCapError and InvalidStateError keep their own exit codes."""
    try:
        return cls(**fields)
    except (DimensionCapError, InvalidStateError):
        raise
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _matrix(obj, path: str, shape: tuple[int, int]) -> np.ndarray:
    _require_dict(obj, path, {"re", "im"}, {"re"})
    try:
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj.get("im", np.zeros_like(re)), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{path}: entries must be numeric: {exc}") from None
    if re.shape != shape or im.shape != shape:
        raise ScenarioError(f"{path}: 're' and 'im' must have shape {shape}, "
                            f"got {re.shape} and {im.shape}")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ScenarioError(f"{path}: entries must be finite numbers")
    return re + 1j * im


def _bath_mode(obj, path: str) -> BathMode:
    f = _fields(obj, path, {"omega": (_num, None), "g_re": (_num, None), "g_im": (_num, 0.0)})
    return _build(BathMode, path, omega=f["omega"], g=f["g_re"] + 1j * f["g_im"])


def _bath_modes(obj, path: str) -> tuple[BathMode, ...]:
    if not isinstance(obj, list):
        raise ScenarioError(f"{path}: expected a list")
    return tuple(_bath_mode(mode, f"{path}[{k}]") for k, mode in enumerate(obj))


def _parse_initial(obj, bath: BathSpec) -> np.ndarray:
    _require_dict(obj, "initial", {"kind", "qubit_state", "env_state", "matrix"}, {"kind"})
    kind, n = obj["kind"], bath.env_dim
    if kind == "product":
        keys = {"kind", "qubit_state", "env_state"}
        _require_dict(obj, "initial", keys, keys)
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
        return _matrix(obj["matrix"], "initial.matrix", (2 * n, 2 * n))
    raise ScenarioError(f"initial.kind: expected 'product' or 'explicit', got {kind!r}")


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
    f = _fields(obj, "dephasing", {"m11": (_num, None), "m22": (_num, None),
                                   "m12_re": (_num, None), "m12_im": (_num, 0.0)})
    m12 = f["m12_re"] + 1j * f["m12_im"]
    return np.array([[f["m11"], m12], [np.conj(m12), f["m22"]]], dtype=complex)


def scenario_from_dict(data) -> RunConfig:
    """Validate a parsed scenario document and build the run configuration."""
    top_allowed = {"qubit", "bath", "initial", "time", "run", "dephasing"}
    top_required = {"qubit", "bath", "initial", "time", "run"}
    _require_dict(data, "scenario", top_allowed, top_required)
    qubit = QubitParams(**_fields(data["qubit"], "qubit", {
        "alpha": (_num, None), "beta": (_num, None), "omega": (_num, None)}))
    bath = _build(BathSpec, "bath", **_fields(data["bath"], "bath", {
        "modes": (_bath_modes, None), "fock_cutoff": (_int, None)}))
    initial = _parse_initial(data["initial"], bath)
    time = _fields(data["time"], "time", {
        "t_max": (_num, None), "steps": (_int, None), "substeps_per_step": (_int, 1)})
    mode, checks = _parse_run(data["run"])
    dephasing_m = _parse_dephasing(data["dephasing"]) if "dephasing" in data else None
    scenario = _build(Scenario, "time", qubit=qubit, bath=bath, initial_state=initial, **time)
    return RunConfig(scenario=scenario, mode=mode, checks=checks, dephasing_m=dephasing_m)


def read_document(path) -> dict:
    """Parse a scenario JSON file without validating it against the schema."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except (ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deep
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from None


def load_scenario(path) -> RunConfig:
    """Read and validate a scenario JSON file."""
    return scenario_from_dict(read_document(path))
