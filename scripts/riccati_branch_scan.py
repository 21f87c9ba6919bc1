#!/usr/bin/env python3
"""Scan the Riccati solvers across a range of bath mode frequencies.

For each frequency the script solves the static block operator by the
graph branch of the invariant subspace and by Newton iteration from zero,
and reports how many Newton steps were needed, the graph solution's norms
and residual, the distance between the two solutions, and the normalized
residual eta, in units of u = 2^-53, of the graph X and of Newton's last
iterate; Newton accepts an iterate at eta <= ETA_TOL = 4u.  At the
resonance, where the mode frequency equals twice the splitting, the
spectra of the diagonal blocks coincide up to truncation, and whether
Newton breaks down there depends on the Fock cutoff.  With the default
alpha, beta and g at omega0 = 1.0, Newton converges at --n-max 4, 5 and 6
(23, 27 and 38 iterations), stalls at 7 (41 residuals) and meets a singular
linearization at its first step at 8.  Rows where Newton fails show NO
CONVERGENCE in place of its columns and keep the graph branch's.

Usage, from the repository root (drop PYTHONPATH once bomric is installed):
    PYTHONPATH=src python scripts/riccati_branch_scan.py [--alpha 0.3] [--beta 0.5] [--g 0.2]
        [--n-max 8] [--omega0 0.6 0.8 ... 3.0]
"""
import argparse
import sys

import numpy as np

from bomric.bath import BathMode, BathSpec
from bomric.dynamics import QubitParams, hamiltonian_static
from bomric.linalg import frobenius_norm
from bomric.riccati import (
    ETA_TOL,
    NoGraphError,
    RiccatiConvergenceError,
    RiccatiProblem,
    solve_invariant_subspace,
    solve_newton,
)


U = 2.0**-53  # unit roundoff, the unit of the eta columns


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.3)
    ap.add_argument("--beta", type=float, default=0.5)
    ap.add_argument("--g", type=float, default=0.2)
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument(
        "--omega0", type=float, nargs="+",
        default=[round(x, 2) for x in np.arange(0.6, 3.01, 0.2)],
    )
    args = ap.parse_args()

    q = QubitParams(alpha=args.alpha, beta=args.beta, omega=1.0)
    print(
        f"qubit alpha={args.alpha} beta={args.beta}, coupling g={args.g}, "
        f"cutoff n_max={args.n_max}  (resonance at omega0 = {2 * args.beta})"
    )
    print(
        f"{'omega0':>7} {'iters':>6} {'||X||_F':>9} {'agreement':>11} "
        f"{'residual':>10} {'||X||_2':>9} {'eta/u':>8} {'newton':>8}   (X, residual, eta/u: "
        f"graph branch; iters, newton: Newton from 0, which stops at eta/u <= {ETA_TOL / U:g})"
    )
    for w0 in args.omega0:
        bath = BathSpec((BathMode(float(w0), args.g),), fock_cutoff=args.n_max)
        p = RiccatiProblem(hamiltonian_static(q, bath))
        try:
            newton = solve_newton(p)
            iters, note = newton.iterations, ""
        except RiccatiConvergenceError as exc:
            newton, iters, note = None, "-", f"  NO CONVERGENCE ({len(exc.trace)} residuals)"
        try:
            graph = solve_invariant_subspace(p)
        except NoGraphError as exc:
            print(f"{w0:>7.2f} {iters:>6} {'NO GRAPH':>9}  ({exc}){note}")
            continue
        agree = "-" if newton is None else f"{frobenius_norm(newton.x - graph.x):.3e}"
        newton_eta = "-" if newton is None else f"{newton.eta / U:.3f}"
        print(
            f"{w0:>7.2f} {iters:>6} {graph.x_norm:>9.5f} {agree:>11} "
            f"{graph.residual:>10.3e} {graph.x_norm2:>9.5f} {graph.eta / U:>8.3f} "
            f"{newton_eta:>8}{note}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
