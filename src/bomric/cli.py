"""Command line front end: simulate, riccati, verify.

Exit codes: 0 success, 2 schema, state or command-line input error (including
a file that cannot be opened), 3 environment dimension over the cap, 4 solver
non-convergence, 5 a verification check failed or a trajectory left a sanity
cap (TRACE_DEV_CAP, HERM_DEV_CAP, POSITIVITY_FLOOR; no CSV is written).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import linalg, riccati
from .bath import DimensionCapError, bath_hamiltonian, coupling_operator, displaced_check
from .blockop import BlockOp, flatten, sandwich_lemma_check
from .dynamics import (
    MODES,
    InvalidStateError,
    QubitParams,
    Scenario,
    TrajectorySanityError,
    bloch_vector,
    covariance_residual,
    hamiltonian_from_blocks,
    hamiltonian_static,
    reduced_dynamics,
    rotating_frame_check,
)
from .scenario import (
    CHECK_NAMES,
    RunConfig,
    ScenarioError,
    load_scenario,
    read_document,
    scenario_from_dict,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DIMENSION = 3
EXIT_NO_CONVERGENCE = 4
EXIT_CHECK_FAILED = 5

CSV_COLUMNS = (
    "t",
    "rho00_re", "rho00_im", "rho01_re", "rho01_im",
    "rho10_re", "rho10_im", "rho11_re", "rho11_im",
    "bloch_x", "bloch_y", "bloch_z",
    "purity", "trace_dev", "pos_floor",
)

_VERIFY_SEED = 20240817


def _apply_override(data: dict, dotted: str, value) -> None:
    *parents, leaf = dotted.split(".")
    node = data
    for part in parents:
        node = node[_entry(node, part, dotted)]
    node[_entry(node, leaf, dotted)] = value


def _entry(node, part: str, dotted: str):
    """The key or list index that `part` names in node."""
    if isinstance(node, dict) and part in node:
        return part
    if isinstance(node, list) and part.isdecimal() and int(part) < len(node):
        return int(part)
    raise ScenarioError(f"sweep key {dotted!r}: no entry {part!r} in scenario")


def _with_steps(s: Scenario, steps: int | None) -> Scenario:
    """The scenario with its grid step count overridden by --steps."""
    if steps is None:
        return s
    try:
        return replace(s, steps=steps)
    except ValueError as exc:
        raise ScenarioError(f"--steps {steps}: {exc}") from None


def _parse_sweep(arg: str) -> tuple[str, list]:
    if "=" not in arg:
        raise ScenarioError(f"--sweep expects KEY=V1,V2,..., got {arg!r}")
    key, _, tail = arg.partition("=")
    values = []
    for piece in tail.split(","):
        try:
            values.append(json.loads(piece))
        except json.JSONDecodeError:
            raise ScenarioError(f"--sweep value {piece!r} is not a number") from None
    if not values:
        raise ScenarioError(f"--sweep {key!r} has no values")
    return key, values


def _write_csv(path: Path, traj) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for k, t in enumerate(traj.times):
            rho = traj.states[k]
            bloch = bloch_vector(rho)
            purity = float(np.trace(rho @ rho).real)
            row = [
                float(t),
                rho[0, 0].real, rho[0, 0].imag, rho[0, 1].real, rho[0, 1].imag,
                rho[1, 0].real, rho[1, 0].imag, rho[1, 1].real, rho[1, 1].imag,
                bloch[0], bloch[1], bloch[2],
                purity, traj.trace_dev[k], traj.positivity_floor[k],
            ]
            writer.writerow([repr(float(x)) for x in row])


def cmd_simulate(args) -> int:
    raw = read_document(args.scenario)
    sweeps = [_parse_sweep(s) for s in (args.sweep or [])]
    if len(sweeps) > 1:
        raise ScenarioError("only one --sweep key is supported per run")

    jobs: list[tuple[dict, Path]] = []
    out = Path(args.out)
    if sweeps:
        key, values = sweeps[0]
        for value in values:
            doc = json.loads(json.dumps(raw))
            _apply_override(doc, key, value)
            name = f"{out.stem}_{key.replace('.', '_')}_{value}{out.suffix or '.csv'}"
            jobs.append((doc, out.with_name(name)))
    else:
        jobs.append((raw, out))

    for doc, target in jobs:
        config = scenario_from_dict(doc)
        s = _with_steps(config.scenario, args.steps)
        mode = args.mode or config.mode
        traj = reduced_dynamics(s, mode)
        _write_csv(target, traj)
        print(f"wrote {target} ({len(traj)} rows, mode={mode})")
    return EXIT_OK


def _riccati_spinboson_report(config: RunConfig, method: str | None, branch: str | None) -> dict:
    s = config.scenario
    h = hamiltonian_static(s.qubit, s.bath)
    p = riccati.problem_from_blockop(h)
    report: dict = {"kind": "spinboson", "env_dim": s.bath.env_dim}

    newton_sol = None
    subspace_sol = None
    if method in (None, "newton"):
        newton_sol = riccati.solve_newton(p)
        report["newton"] = {
            "iterations": newton_sol.iterations,
            "residual": newton_sol.residual,
            "x_norm": linalg.frobenius_norm(newton_sol.x),
        }
    if method in (None, "subspace"):
        if branch is not None:
            which = branch
        elif newton_sol is not None:
            # follow the branch newton landed on so the agreement line
            # compares like with like
            which = riccati.matching_branch(p, newton_sol.x)
        else:
            which = "lower"
        subspace_sol = riccati.solve_invariant_subspace(p, which)
        report["subspace"] = {
            "branch": branch or ("matched-to-newton" if newton_sol else "lower"),
            "residual": subspace_sol.residual,
            "x_norm": linalg.frobenius_norm(subspace_sol.x),
        }
    if newton_sol is not None and subspace_sol is not None:
        report["agreement"] = linalg.frobenius_norm(newton_sol.x - subspace_sol.x)

    best = newton_sol or subspace_sol
    diag = riccati.diagonalize(h, best)
    report["offdiag_residual"] = diag.offdiag_residual
    report["cond_ux"] = diag.cond_ux
    return report


def _riccati_dephasing_report(config: RunConfig) -> dict:
    from .bath import dephasing_hamiltonian

    m = config.dephasing_m
    roots = riccati.solve_dephasing_quadratic(m)
    h = dephasing_hamiltonian(config.scenario.bath, m)
    p = riccati.problem_from_blockop(h)
    eye = np.eye(config.scenario.bath.env_dim)
    v_norm = linalg.frobenius_norm(coupling_operator(config.scenario.bath))
    return {
        "kind": "dephasing",
        "principal_root": [roots.principal.real, roots.principal.imag],
        "partner_root": [roots.partner.real, roots.partner.imag],
        "principal_abs": abs(roots.principal),
        "residual_principal": riccati.residual(p, roots.principal * eye),
        "residual_partner": riccati.residual(p, roots.partner * eye),
        "coupling_norm": v_norm,
    }


def cmd_riccati(args) -> int:
    config = load_scenario(args.scenario)
    if config.dephasing_m is not None:
        report = _riccati_dephasing_report(config)
        print(
            "dephasing quadratic: principal root "
            f"{complex(*report['principal_root']):.12g} (|x| = {report['principal_abs']:.6f}), "
            f"partner {complex(*report['partner_root']):.12g}"
        )
        print(
            f"operator residuals: principal {report['residual_principal']:.3e}, "
            f"partner {report['residual_partner']:.3e} "
            f"(coupling norm {report['coupling_norm']:.3e})"
        )
    else:
        report = _riccati_spinboson_report(config, args.method, args.branch)
        if "newton" in report:
            n = report["newton"]
            print(
                f"newton: iterations {n['iterations']}, residual {n['residual']:.3e}, "
                f"||X||_F = {n['x_norm']:.6f}"
            )
        if "subspace" in report:
            s = report["subspace"]
            print(
                f"invariant subspace ({s['branch']}): residual {s['residual']:.3e}, "
                f"||X||_F = {s['x_norm']:.6f}"
            )
        if "agreement" in report:
            print(f"solver agreement ||X_newton - X_subspace||_F = {report['agreement']:.3e}")
        print(
            f"block-diagonalization off-diagonal residual {report['offdiag_residual']:.3e} "
            f"(cond U_X = {report['cond_ux']:.3e})"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def _check_covariance(s: Scenario) -> dict:
    rng = np.random.default_rng(_VERIFY_SEED)
    he, v = bath_hamiltonian(s.bath), coupling_operator(s.bath)
    worst = 0.0
    for _ in range(100):
        q = QubitParams(
            alpha=rng.uniform(-2, 2),
            beta=rng.uniform(-2, 2),
            omega=rng.uniform(0.1, 5.0),
        )
        t = rng.uniform(0.0, 20.0)
        h = hamiltonian_from_blocks(q, he, v)
        scale = linalg.frobenius_norm(flatten(h))
        worst = max(worst, covariance_residual(q, h, t) / scale)
    return {"residual": worst, "tolerance": 1e-12, "passed": worst <= 1e-12}


def _check_rotating_frame(s: Scenario) -> dict:
    resid = float(np.max(rotating_frame_check(s)))
    tol = 1e-5
    out = {"residual": resid, "tolerance": tol, "passed": resid <= tol, "steps": s.steps}
    if not out["passed"]:
        out["message"] = (
            f"stepped integration at {s.steps} steps leaves residual {resid:.3e} > {tol:.0e}; "
            "the midpoint integrator converges at second order, so doubling the step "
            "count divides the residual by about four"
        )
    return out


def _check_sandwich(s: Scenario) -> dict:
    rng = np.random.default_rng(_VERIFY_SEED + 1)
    n = s.bath.env_dim
    worst = 0.0
    for _ in range(1000):
        blocks = [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(4)
        ]
        b = BlockOp(*blocks)
        scale = linalg.frobenius_norm(flatten(b))
        a1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        worst = max(worst, sandwich_lemma_check(a1, b, a2) / scale)
    return {"residual": worst, "tolerance": 1e-12, "passed": worst <= 1e-12}


def _check_zt_riccati(s: Scenario) -> dict:
    he = bath_hamiltonian(s.bath)
    w = coupling_operator(s.bath) + s.qubit.beta * np.eye(s.bath.env_dim)
    scale = max(linalg.frobenius_norm(w), 1e-300)
    alpha = s.qubit.alpha
    worst = 0.0
    for t in np.linspace(0.0, s.t_max, 100):
        h = riccati.periodic_from_blocks(he, w, alpha, t)
        worst = max(worst, riccati.time_dependent_residual(h, alpha, t) / scale)
    return {"residual": worst, "tolerance": 1e-13, "passed": worst <= 1e-13}


def _check_st_diagonalization(s: Scenario) -> dict:
    he = bath_hamiltonian(s.bath)
    w = coupling_operator(s.bath) + s.qubit.beta * np.eye(s.bath.env_dim)
    alpha = s.qubit.alpha
    worst_off = 0.0
    worst_diag = 0.0
    for t in np.linspace(0.0, s.t_max, 20):
        h = riccati.periodic_from_blocks(he, w, alpha, t)
        transformed = riccati.s_frame_transform(h, alpha, t)
        off = np.sqrt(
            linalg.frobenius_norm(transformed.a12) ** 2
            + linalg.frobenius_norm(transformed.a21) ** 2
        )
        dev = max(
            float(np.max(np.abs(transformed.a11 - (he + w)))),
            float(np.max(np.abs(transformed.a22 - (he - w)))),
        )
        worst_off = max(worst_off, off)
        worst_diag = max(worst_diag, dev)
    passed = worst_off <= 1e-13 and worst_diag <= 1e-13
    return {
        "offdiag_residual": worst_off,
        "diag_deviation": worst_diag,
        "tolerance": 1e-13,
        "passed": passed,
    }


def _check_weyl_displacement(s: Scenario) -> dict:
    check = displaced_check(s.bath)
    resid = max(check.residual_plus, check.residual_minus)
    c_dev = abs(check.c_fit - check.c_expected)
    return {
        "residual": resid,
        "c_fit": check.c_fit,
        "c_expected": check.c_expected,
        "c_deviation": c_dev,
        "levels": check.levels,
        "tolerance": 1e-6,
        "passed": resid <= 1e-6 and c_dev <= 1e-6,
    }


_CHECKS = {
    "covariance": _check_covariance,
    "rotating_frame": _check_rotating_frame,
    "sandwich": _check_sandwich,
    "zt_riccati": _check_zt_riccati,
    "st_diagonalization": _check_st_diagonalization,
    "weyl_displacement": _check_weyl_displacement,
}

assert set(_CHECKS) == set(CHECK_NAMES)


def cmd_verify(args) -> int:
    raw = read_document(args.scenario)
    config = scenario_from_dict(raw)
    s = _with_steps(config.scenario, args.steps)

    results = []
    all_pass = True
    for name in config.checks:
        start = time.perf_counter()
        result = _CHECKS[name](s)
        result["check"] = name
        result["seconds"] = time.perf_counter() - start
        results.append(result)
        all_pass &= result["passed"]
        status = "PASS" if result["passed"] else "FAIL"
        detail = ", ".join(
            f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
            for k, v in result.items()
            if k not in ("check", "passed", "seconds", "message")
        )
        print(f"{status} {name}: {detail} ({result['seconds']:.2f}s)")
        if "message" in result:
            print(f"     {result['message']}")

    if args.out:
        report = {"scenario": raw, "results": results, "all_pass": all_pass}
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bomric",
        description="Block operator matrices, Riccati solvers, and reduced qubit dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="propagate a scenario and write a CSV trajectory")
    sim.add_argument("scenario", type=Path, help="scenario JSON file")
    sim.add_argument("--out", type=Path, required=True, help="output CSV path")
    sim.add_argument("--mode", choices=MODES, help="override the scenario run mode")
    sim.add_argument("--steps", type=int, help="override the grid step count")
    sim.add_argument(
        "--sweep",
        action="append",
        metavar="KEY=V1,V2,...",
        help="run once per value of a dotted scenario key (one CSV per value)",
    )

    ric = sub.add_parser("riccati", help="solve the scenario's Riccati problem")
    ric.add_argument("scenario", type=Path)
    ric.add_argument("--method", choices=("newton", "subspace"))
    ric.add_argument(
        "--branch",
        choices=("lower", "upper", "graph"),
        help="spectral branch for the invariant-subspace solver "
        "(default: lower, or the Newton branch when both methods run)",
    )
    ric.add_argument("--out", type=Path, help="write a JSON report")

    ver = sub.add_parser("verify", help="run the scenario's verification checks")
    ver.add_argument("scenario", type=Path)
    ver.add_argument("--steps", type=int, help="override the grid step count")
    ver.add_argument("--out", type=Path, help="write a JSON report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"simulate": cmd_simulate, "riccati": cmd_riccati, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except DimensionCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except TrajectorySanityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except InvalidStateError as exc:
        print(f"error: invalid initial state: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (
        riccati.RiccatiConvergenceError,
        riccati.NoGraphError,
        riccati.AmbiguousSubspaceError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, riccati.RiccatiConvergenceError):
            tail = ", ".join(f"{r:.3e}" for r in exc.trace[-5:])
            print(f"residual trace (last 5): {tail}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
