"""Command line front end: simulate, riccati, verify.

`riccati` prints and writes the solutions of riccati.solve's route, which
decides whether an X counts as a solution: by default the invariant
subspace's graph branch refined by Newton; --method runs one solver alone,
Newton from zero or the graph branch.  --branch has the one value `graph`.
`simulate` and `verify` write --steps and --mode into the document they parse.

Exit codes: 0 success, 2 schema, state or command-line input error (including
any argument the parser rejects, a file that cannot be opened, a grid over
STEP_CAP, a --sweep of the key --steps or --mode sets or of its section, a
--branch that no solver would use, a --method on a dephasing scenario, a
verify of a scenario that lists no checks and a simulate mode that needs a
drive phase omega t with no digit left, see dynamics.phase_lost), 3
environment dimension over the cap, 4 solver non-convergence (or a --method
subspace X with eta over ETA_TOL, a Newton step with non-finite Sylvester
operands, or a dephasing M whose m12 is 0, or whose roots or their residuals
float64 cannot hold), 5 a verification check failed (a weyl_displacement
whose |g|^2 overflows among them) or a trajectory left a sanity cap
(TRACE_DEV_CAP, HERM_DEV_CAP, POSITIVITY_FLOOR, or PHASE_LOSS_CAP on a static
eigenphase w t; no CSV is written).  A --sweep checks every value before it
runs any, and runs every value before it writes any, so an exit 2, 3 or 5
writes no file.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import checks, linalg, riccati
from .bath import DimensionCapError
from .dynamics import (MODES, InvalidStateError, TrajectorySanityError, chunk_size,
                       hamiltonian_static, phase_lost, reduced_dynamics)
from .scenario import ScenarioError, load_scenario, read_document, scenario_from_dict

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


_FLAG_KEYS = {"steps": "time.steps", "mode": "run.mode"}


def _apply_flags(doc, args) -> None:
    """Write each given flag of _FLAG_KEYS into doc, after any --sweep value.  An
    edit whose section or key doc lacks is skipped: the keys are required, so
    the parse then names the fault."""
    for flag, dotted in _FLAG_KEYS.items():
        if (value := getattr(args, flag, None)) is not None:
            with contextlib.suppress(ScenarioError):
                _apply_override(doc, dotted, value)


def _parse_sweep(arg: str) -> tuple[str, list]:
    if "=" not in arg:
        raise ScenarioError(f"--sweep expects KEY=V1,V2,..., got {arg!r}")
    key, _, tail = arg.partition("=")
    try:  # the tail is read as one JSON array, so list and object values keep their commas
        values = json.loads(f"[{tail}]")
    except (ValueError, RecursionError):  # bad JSON, an overlong integer, deep nesting
        raise ScenarioError(f"--sweep value {tail!r} does not parse as JSON; a "
                            'string value needs its double quotes, as in "text"') from None
    if not values:
        raise ScenarioError(f"--sweep {key!r} has no values")
    return key, values


# orjson writes a float's shortest round-trip digits, as repr does, in its own
# layout; these passes rewrite it into repr's.  Each pattern starts with a
# literal, which re scans for, rather than trying a match at every byte.
_EXP_SIGN = re.compile(rb"e(\d)")  # 1e16 -> 1e+16
_EXP_ONE_DIGIT = re.compile(rb"e-(\d)(?=[,\]])")  # 1e-7 -> 1e-07
# [1e-5, 1e-4), which orjson writes as 0.0000ddd: 0.000015 -> 1.5e-05
_FIXED_E05 = re.compile(rb"0\.0000(?<=[,\[-]0\.0000)(\d)(\d*)")


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a C-contiguous 2-d float block, each cell the float's repr
    and each row ended by CRLF, as csv.writer writes them.  A NaN or an infinity
    would come out as `null`."""
    import orjson  # imported on first use, so importing the CLI does not pay for it

    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    text = _EXP_SIGN.sub(rb"e+\1", text)
    text = _EXP_ONE_DIGIT.sub(rb"e-0\1", text)
    text = _FIXED_E05.sub(lambda m: m[1] + (b"." + m[2] if m[2] else b"") + b"e-05", text)
    return text[2:-2].replace(b"],[", b"\r\n") + b"\r\n"


def _write_csv(path: Path, traj) -> None:
    """Write the trajectory's CSV table.  Its cells are finite: reduced_dynamics'
    sanity caps reject any trajectory with a non-finite state, which _csv_rows
    would write as `null`."""
    rho = traj.states
    r00, r01, r10, r11 = rho[:, 0, 0], rho[:, 0, 1], rho[:, 1, 0], rho[:, 1, 1]
    # bloch_i = Tr(rho sigma_i) and purity = Tr(rho^2), in forms whose bits
    # equal the per-row 2 x 2 products.  Purity comes first: on an AVX-512
    # CPU, after OpenBLAS's complex product orjson and re ran 3-4 times slower
    # until a numpy SIMD loop, such as the complex sums below, had run.
    purity = np.trace(rho @ rho, axis1=1, axis2=2).real
    table = np.column_stack(
        [
            traj.times,
            r00.real, r00.imag, r01.real, r01.imag,
            r10.real, r10.imag, r11.real, r11.imag,
            (r01 + r10).real, (r10 - r01).imag, (r00 - r11).real,
            purity, traj.trace_dev, traj.positivity_floor,
        ]
    )
    # a block of rows at a time, so the text buffers stay within CHUNK_ENTRIES
    rows = chunk_size(len(CSV_COLUMNS))
    with open(path, "wb") as fh:
        fh.write(",".join(CSV_COLUMNS).encode() + b"\r\n")
        for lo in range(0, len(table), rows):
            fh.write(_csv_rows(table[lo : lo + rows]))


def cmd_simulate(args) -> int:
    raw = read_document(args.scenario)
    sweeps = [_parse_sweep(s) for s in (args.sweep or [])]
    if len(sweeps) > 1:
        raise ScenarioError("only one --sweep key is supported per run")

    jobs: list[tuple[dict, Path]] = []
    out = Path(args.out)
    if sweeps:
        key, values = sweeps[0]
        # a flag would override the key it sets in every swept value
        for flag, dotted in _FLAG_KEYS.items():
            if f"{dotted}.".startswith(f"{key}.") and getattr(args, flag) is not None:
                raise ScenarioError(f"--sweep {key} and --{flag} both set {dotted}; give one")
        for value in values:
            doc = json.loads(json.dumps(raw))
            _apply_override(doc, key, value)
            name = f"{out.stem}_{key.replace('.', '_')}_{value}{out.suffix or '.csv'}"
            try:
                target = out.with_name(name)
                if len(name.encode()) > 255:  # the longest name common filesystems take
                    raise ValueError(name)
            except ValueError:  # a path separator, a lone surrogate or an overlong name
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
        _apply_flags(doc, args)
        config = scenario_from_dict(doc)
        s = config.scenario
        lost = None if config.mode == "static_exact" else phase_lost(s.qubit.omega, s.t_max)
        if lost is not None:
            raise ScenarioError(
                f"{config.mode} mode: the drive phase omega t keeps no digit at the rotating_frame "
                f"tolerance {checks.ROTATING_FRAME_TOL:.0e} (|omega| t_max eps = {lost:.1e}); "
                "static_exact does not use omega"
            )
        runs.append((s, config.mode, target))

    # every value runs before the first write, so a sanity cap on any of them
    # writes no file either
    trajs = [reduced_dynamics(s, mode) for s, mode, _ in runs]
    for (_, mode, target), traj in zip(runs, trajs):
        _write_csv(target, traj)
        print(f"wrote {target} ({len(traj)} rows, mode={mode})")
    return EXIT_OK


def _write_report(path: Path, report: dict) -> None:
    # JSON (RFC 8259) has no NaN or Infinity: a non-finite float is written as
    # the string stdout prints for it
    texts = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}
    report = json.loads(json.dumps(report), parse_constant=texts.get)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


# riccati's stdout line for each solver section of the report, in print order
_SECTION_LINES = {
    "subspace": "invariant subspace ({branch}): residual {residual:.3e}, eta {eta:.3e}, "
                "||X||_F = {x_norm:.6f}, ||X||_2 = {x_norm2:.6f}",
    "newton": "newton: from {start}, iterations {iterations}, residual {residual:.3e}, "
              "eta {eta:.3e}, ||X||_F = {x_norm:.6f}, ||X||_2 = {x_norm2:.6f}",
}


def cmd_riccati(args) -> int:
    config = load_scenario(args.scenario)
    if config.dephasing_m is not None and (args.branch or args.method):
        raise ScenarioError(
            f"--{'branch' if args.branch else 'method'} selects a spin-boson solver; a "
            "scenario with a dephasing section is answered by its quadratic roots"
        )
    if args.branch is not None and args.method == "newton":
        raise ScenarioError(
            "--branch selects the invariant-subspace solver's branch, which does not run "
            "with --method newton"
        )
    m, s = config.dephasing_m, config.scenario
    if m is not None:
        roots = riccati.solve_dephasing_quadratic(m)
        res = riccati.dephasing_residuals(m, s.bath.he, s.bath.v, roots)
        report = {
            "kind": "dephasing",
            "principal_root": [roots[0].real, roots[0].imag],
            "partner_root": [roots[1].real, roots[1].imag],
            "principal_abs": abs(roots[0]),
            "residual_principal": res[0],
            "residual_partner": res[1],
            "coupling_norm": linalg.frobenius_norm(s.bath.v),
        }
        print(f"dephasing quadratic: principal root {roots[0]:.12g} (|x| = {abs(roots[0]):.6f}), "
              f"partner {roots[1]:.12g}")
        print(f"operator residuals: principal {res[0]:.3e}, partner {res[1]:.3e} "
              f"(coupling norm {report['coupling_norm']:.3e})")
    else:
        p = riccati.RiccatiProblem(hamiltonian_static(s.qubit, s.bath))
        sols = riccati.solve(p, args.method)
        report = {"kind": "spinboson", "env_dim": s.bath.env_dim}
        for name, sol in sols.items():
            report[name] = {"residual": sol.residual, "eta": sol.eta, "x_norm": sol.x_norm,
                            "x_norm2": sol.x_norm2}
            if name == "subspace":
                report[name]["branch"] = "graph"
            else:  # by default Newton refines the graph X; --method newton starts at zero
                report[name] |= {"start": "subspace" if "subspace" in sols else "zero",
                                 "iterations": sol.iterations, "trace": sol.trace}
        report |= riccati.diagonalize(p, sol)  # the route's X, solve's last solution
        for name in sols:
            print(_SECTION_LINES[name].format(**report[name]))
        print(
            f"block-diagonalization off-diagonal residual {report['offdiag_residual']:.3e} "
            f"(cond U_X = {report['cond_ux']:.3e})"
        )
    if args.out:
        _write_report(args.out, report)
    return EXIT_OK


def cmd_verify(args) -> int:
    raw = read_document(args.scenario)
    _apply_flags(raw, args)  # the report's scenario is then the one that runs
    config = scenario_from_dict(raw)
    if not config.checks:  # riccati reads such a file; verify would pass with nothing run
        raise ScenarioError("run.checks: no check listed; verify needs at least one")

    results = []
    for name in config.checks:
        start = time.perf_counter()
        result = checks.CHECKS[name](config.scenario)
        result["check"] = name
        result["seconds"] = time.perf_counter() - start
        results.append(result)
        status = "PASS" if result["passed"] else "FAIL"
        detail = ", ".join(
            f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
            for k, v in result.items()
            if k not in ("check", "passed", "seconds", "message")
        )
        print(f"{status} {name}: {detail} ({result['seconds']:.2f}s)")
        if "message" in result:
            print(f"     {result['message']}")

    failed = [r for r in results if not r["passed"]]
    if args.out:
        _write_report(args.out, {"scenario": raw, "results": results, "all_pass": not failed})
    if not failed:
        return EXIT_OK
    named = []
    for r in failed:
        over = (f"{key} {r[key]:.3e} > {r['tolerance']:.0e}" for key in checks.over_tolerance(r))
        named.append(f"{r['check']} ({', '.join(over)})")
    print(f"error: {len(failed)} of {len(results)} checks failed: {', '.join(named)}",
          file=sys.stderr)
    return EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors become main's one `error:` line and exit 2;
    its subparsers are of the same class."""

    def error(self, message):
        raise ScenarioError(f"{self.prog}: {message}")


@functools.cache  # one parser per process; parse_args keeps no state in it
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
    riccati.SolverError: (EXIT_NO_CONVERGENCE, ""),
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
