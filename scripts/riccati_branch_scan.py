#!/usr/bin/env python3
"""Scan the Riccati solvers across a range of bath mode frequencies.

For each frequency the script solves the static block operator by Newton
iteration and by the matched invariant subspace, and reports the solution
norm, the agreement between the two, and how many Newton steps were
needed.  At the resonance, where the mode frequency equals twice the
splitting, the spectra of the diagonal blocks coincide up to truncation,
and whether Newton breaks down there depends on the Fock cutoff.  With the
default alpha, beta and g at omega0 = 1.0, Newton converges at --n-max 4
and 5 (23 and 27 iterations), stalls at 6 (41 residuals) and meets a
singular linearization at its first step at 8.  Rows where Newton fails
show up as NO CONVERGENCE.

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
    RiccatiConvergenceError,
    matching_branch,
    problem_from_blockop,
    solve_invariant_subspace,
    solve_newton,
)


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
    print(f"{'omega0':>7} {'iters':>6} {'||X||_F':>9} {'agreement':>11} {'residual':>10}")
    for w0 in args.omega0:
        bath = BathSpec((BathMode(float(w0), args.g),), fock_cutoff=args.n_max)
        p = problem_from_blockop(hamiltonian_static(q, bath))
        try:
            newton = solve_newton(p)
        except RiccatiConvergenceError as exc:
            print(f"{w0:>7.2f} {'NO CONVERGENCE':>38}  ({len(exc.trace)} residuals)")
            continue
        sub = solve_invariant_subspace(p, which=matching_branch(p, newton.x))
        agree = frobenius_norm(newton.x - sub.x)
        print(
            f"{w0:>7.2f} {newton.iterations:>6} {frobenius_norm(newton.x):>9.5f} "
            f"{agree:>11.3e} {newton.residual:>10.3e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
