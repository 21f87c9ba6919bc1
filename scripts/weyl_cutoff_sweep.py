#!/usr/bin/env python3
"""Truncation quality of the displaced-bath identity versus Fock cutoff.

Conjugating the bath Hamiltonian by the Weyl displacement should
reproduce the coupled blocks up to the constant shift -sum |g_k|^2/w_k.
On a truncated ladder the identity only holds on the low Fock levels;
this script sweeps the cutoff and prints the residual, the fitted shift,
and the unitarity defect of the truncated displacement on the compared
subspace.

Usage, from the repository root (drop PYTHONPATH once bomric is installed):
    PYTHONPATH=src python scripts/weyl_cutoff_sweep.py [--omega0 1.0] [--g 0.2]
        [--cutoffs 2 4 ... 16]
"""
import argparse
import sys

from bomric.bath import BathMode, BathSpec, displaced_check, weyl_unitarity_defect


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--omega0", type=float, default=1.0)
    ap.add_argument("--g", type=float, default=0.2)
    ap.add_argument(
        "--cutoffs", type=int, nargs="+", default=[2, 4, 6, 8, 10, 12, 14, 16]
    )
    args = ap.parse_args()

    shift = -abs(args.g) ** 2 / args.omega0
    print(f"mode omega0={args.omega0} g={args.g}; expected shift {shift:.6f}")
    print(f"{'n_max':>6} {'levels':>7} {'residual':>11} {'fitted shift':>13} {'W defect':>11}")
    for n_max in args.cutoffs:
        spec = BathSpec((BathMode(args.omega0, args.g),), fock_cutoff=n_max)
        chk = displaced_check(spec)
        defect = weyl_unitarity_defect(spec)
        print(
            f"{n_max:>6} {chk['levels']:>7} {chk['residual']:>11.3e} {chk['c_fit']:>13.9f} "
            f"{defect:>11.3e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
