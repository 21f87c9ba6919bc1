"""Command line front end: simulate, riccati, verify.

`riccati` solves a spin-boson scenario by the invariant subspace's graph
branch and refines that X by Newton; --method runs one solver alone, Newton
from zero or the graph branch.  --branch has the one value `graph`.

Exit codes: 0 success, 2 schema, state or command-line input error (including
any argument the parser rejects, a file that cannot be opened, a grid over
STEP_CAP, a --branch that no solver would use and a simulate mode that needs
a drive phase omega t with no digit left, see checks.drive_phase_lost), 3
environment dimension over the cap, 4 solver non-convergence (or a dephasing
M whose m12 is 0, or whose roots or their residuals float64 cannot hold), 5
a verification check failed or a trajectory left a sanity cap (TRACE_DEV_CAP,
HERM_DEV_CAP, POSITIVITY_FLOOR; no CSV is written).  A --sweep checks every
value before it runs any, so an exit 2 or 3 writes no file.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import checks, linalg, riccati
from .bath import DimensionCapError, dephasing_hamiltonian
from .dynamics import (
    MODES,
    InvalidStateError,
    Scenario,
    TrajectorySanityError,
    chunk_size,
    hamiltonian_static,
    reduced_dynamics,
)
from .scenario import (RunConfig, ScenarioError, _build, load_scenario, read_document,
                       scenario_from_dict)

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
    return s if steps is None else _build(replace, f"--steps {steps}", s, steps=steps)


def _parse_sweep(arg: str) -> tuple[str, list]:
    if "=" not in arg:
        raise ScenarioError(f"--sweep expects KEY=V1,V2,..., got {arg!r}")
    key, _, tail = arg.partition("=")
    values = []
    for piece in tail.split(","):
        try:
            values.append(json.loads(piece))
        except ValueError:  # JSONDecodeError, or an integer too long to convert
            raise ScenarioError(f"--sweep value {piece!r} is not a number") from None
    if not values:
        raise ScenarioError(f"--sweep {key!r} has no values")
    return key, values


def _write_csv(path: Path, traj) -> None:
    rho = traj.states
    r00, r01, r10, r11 = rho[:, 0, 0], rho[:, 0, 1], rho[:, 1, 0], rho[:, 1, 1]
    # bloch_i = Tr(rho sigma_i) and purity = Tr(rho^2), in forms whose bits
    # equal the per-row 2 x 2 products
    table = np.column_stack(
        [
            traj.times,
            r00.real, r00.imag, r01.real, r01.imag,
            r10.real, r10.imag, r11.real, r11.imag,
            (r01 + r10).real, (r10 - r01).imag, (r00 - r11).real,
            np.trace(rho @ rho, axis1=1, axis2=2).real,
            traj.trace_dev, traj.positivity_floor,
        ]
    )
    # the bytes csv.writer would write, as a float's repr never needs quoting;
    # a block of rows at a time is converted to Python floats and written
    rows = chunk_size(len(CSV_COLUMNS))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for lo in range(0, len(table), rows):
            block = table[lo : lo + rows].tolist()
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in block)


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
            try:
                target = out.with_name(name)
            except ValueError:  # a value holding a path separator
                raise ScenarioError(f"--sweep {key}: value {value!r} gives no file name") from None
            if any(t == target for _, t in jobs):
                raise ScenarioError(f"--sweep {key}: two values both write {target}")
            jobs.append((doc, target))
    else:
        jobs.append((raw, out))

    # every value is parsed and checked before the first run, so an input
    # error on any of them writes no file
    runs = []
    for doc, target in jobs:
        config = scenario_from_dict(doc)
        s = _with_steps(config.scenario, args.steps)
        mode = args.mode or config.mode
        lost = None if mode == "static_exact" else checks.drive_phase_lost(s)
        if lost is not None:
            raise ScenarioError(
                f"{mode} mode: the drive phase omega t keeps no digit at the rotating_frame "
                f"tolerance {checks.ROTATING_FRAME_TOL:.0e} (|omega| t_max eps = {lost:.1e}); "
                "static_exact does not use omega"
            )
        runs.append((s, mode, target))

    for s, mode, target in runs:
        traj = reduced_dynamics(s, mode)
        _write_csv(target, traj)
        print(f"wrote {target} ({len(traj)} rows, mode={mode})")
    return EXIT_OK


def _riccati_spinboson_report(config: RunConfig, method: str | None) -> dict:
    s = config.scenario
    p = riccati.RiccatiProblem(hamiltonian_static(s.qubit, s.bath))
    report: dict = {"kind": "spinboson", "env_dim": s.bath.env_dim}

    # by default the subspace X is the start that Newton refines;
    # --method newton alone starts from zero
    subspace_sol = None
    if method in (None, "subspace"):
        subspace_sol = riccati.solve_invariant_subspace(p)
        report["subspace"] = {
            "branch": "graph",
            "residual": subspace_sol.residual,
            "eta": subspace_sol.eta,
            "x_norm": linalg.frobenius_norm(subspace_sol.x),
            "x_norm2": subspace_sol.x_norm2,
        }
    sol = subspace_sol
    if method in (None, "newton"):
        sol = riccati.solve_newton(p, None if subspace_sol is None else subspace_sol.x)
        report["newton"] = {
            "start": "zero" if subspace_sol is None else "subspace",
            "iterations": sol.iterations,
            "residual": sol.residual,
            "eta": sol.eta,
            "x_norm": linalg.frobenius_norm(sol.x),
            "trace": sol.trace,
        }
    diag = riccati.diagonalize(p, sol)
    report["offdiag_residual"] = diag.offdiag_residual
    report["cond_ux"] = diag.cond_ux
    return report


def _riccati_dephasing_report(config: RunConfig) -> dict:
    m, bath = config.dephasing_m, config.scenario.bath
    roots = riccati.solve_dephasing_quadratic(m)
    p = riccati.RiccatiProblem(dephasing_hamiltonian(bath, m))
    res = [riccati.residual(p, x * np.eye(bath.env_dim)) for x in (roots.principal, roots.partner)]
    if not np.all(np.isfinite(res)):
        raise riccati.DephasingRootError("dephasing root residuals not finite in float64: "
                                         f"principal {res[0]:.3e}, partner {res[1]:.3e}")
    return {
        "kind": "dephasing",
        "principal_root": [roots.principal.real, roots.principal.imag],
        "partner_root": [roots.partner.real, roots.partner.imag],
        "principal_abs": abs(roots.principal),
        "residual_principal": res[0],
        "residual_partner": res[1],
        "coupling_norm": linalg.frobenius_norm(bath.v),
    }


def cmd_riccati(args) -> int:
    config = load_scenario(args.scenario)
    if args.branch is not None and (args.method == "newton" or config.dephasing_m is not None):
        raise ScenarioError(
            "--branch selects the invariant-subspace solver's branch, which runs neither "
            "with --method newton nor on a scenario with a dephasing section"
        )
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
        report = _riccati_spinboson_report(config, args.method)
        if "subspace" in report:
            s = report["subspace"]
            print(
                f"invariant subspace ({s['branch']}): residual {s['residual']:.3e}, "
                f"eta {s['eta']:.3e}, ||X||_F = {s['x_norm']:.6f}, ||X||_2 = {s['x_norm2']:.6f}"
            )
        if "newton" in report:
            n = report["newton"]
            print(
                f"newton: from {n['start']}, iterations {n['iterations']}, "
                f"residual {n['residual']:.3e}, eta {n['eta']:.3e}, ||X||_F = {n['x_norm']:.6f}"
            )
        print(
            f"block-diagonalization off-diagonal residual {report['offdiag_residual']:.3e} "
            f"(cond U_X = {report['cond_ux']:.3e})"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    raw = read_document(args.scenario)
    config = scenario_from_dict(raw)
    s = _with_steps(config.scenario, args.steps)

    results = []
    all_pass = True
    for name in config.checks:
        start = time.perf_counter()
        result = checks.CHECKS[name](s)
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
    if all_pass:
        return EXIT_OK
    failed = [r for r in results if not r["passed"]]
    named = ", ".join(f"{r['check']} ({_over_tolerance(r)})" for r in failed)
    print(f"error: {len(failed)} of {len(results)} checks failed: {named}", file=sys.stderr)
    return EXIT_CHECK_FAILED


def _over_tolerance(result: dict) -> str:
    """The measured values of a failed check that are not within its tolerance."""
    tol = result["tolerance"]
    return ", ".join(
        f"{key} {result[key]:.3e} > {tol:.0e}"
        for key in ("residual", "offdiag_residual", "diag_deviation", "c_deviation")
        if key in result and not result[key] <= tol
    )


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors become main's one `error:` line and exit 2;
    its subparsers are of the same class."""

    def error(self, message):
        raise ScenarioError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        choices=("graph",),
        help="the invariant-subspace solver's branch; graph is the only one",
    )
    ric.add_argument("--out", type=Path, help="write a JSON report")

    ver = sub.add_parser("verify", help="run the scenario's verification checks")
    ver.add_argument("scenario", type=Path)
    ver.add_argument("--steps", type=int, help="override the grid step count")
    ver.add_argument("--out", type=Path, help="write a JSON report")
    return parser


# the failures main reports on one `error:` line: each type, matched in
# order, with its exit code and the prefix of its message
_FAILURES = {
    DimensionCapError: (EXIT_DIMENSION, ""),
    TrajectorySanityError: (EXIT_CHECK_FAILED, ""),
    InvalidStateError: (EXIT_SCHEMA, "invalid initial state: "),
    ScenarioError: (EXIT_SCHEMA, ""),
    OSError: (EXIT_SCHEMA, ""),
    riccati.RiccatiConvergenceError: (EXIT_NO_CONVERGENCE, ""),
    riccati.NoGraphError: (EXIT_NO_CONVERGENCE, ""),
    riccati.AmbiguousSubspaceError: (EXIT_NO_CONVERGENCE, ""),
    riccati.DephasingRootError: (EXIT_NO_CONVERGENCE, ""),
}


def main(argv=None) -> int:
    handlers = {"simulate": cmd_simulate, "riccati": cmd_riccati, "verify": cmd_verify}
    try:
        args = build_parser().parse_args(argv)
        # a float64 overflow or invalid operation shows in the result, where
        # the sanity caps, the checks and the solvers report it; numpy's
        # RuntimeWarnings would only add lines to stderr
        with np.errstate(all="ignore"):
            return handlers[args.command](args)
    except tuple(_FAILURES) as exc:
        code, prefix = next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))
        # Newton's last residuals go on the one error line
        trace = ", ".join(f"{r:.3e}" for r in getattr(exc, "trace", [])[-5:])
        tail = f"; residual trace (last 5): {trace}" if trace else ""
        print(f"error: {prefix}{exc}{tail}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
