#!/usr/bin/env python3
"""Step-size convergence of the lab-frame integrator.

Runs a scenario's stepped lab-frame dynamics against the dressed static
trajectory at the shifted splitting and prints the worst residual for a
ladder of step counts.  A second-order integrator shows ratios near 4.

Usage, from the repository root (drop PYTHONPATH once bomric is installed):
    PYTHONPATH=src python scripts/convergence_sweep.py SCENARIO
        [--steps 250 500 1000 2000] [--out CSV]
"""
import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from bomric.dynamics import rotating_frame_check
from bomric.scenario import load_scenario


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scenario", type=Path)
    ap.add_argument(
        "--steps", type=int, nargs="+", default=[250, 500, 1000, 2000, 4000]
    )
    ap.add_argument("--out", type=Path, help="write the sweep as CSV")
    args = ap.parse_args()

    config = load_scenario(args.scenario)
    rows = []
    prev = None
    print(f"{'steps':>8} {'max residual':>14} {'ratio':>7}")
    for steps in sorted(args.steps):
        s = replace(config.scenario, steps=steps)
        resid = float(np.max(rotating_frame_check(s)))
        ratio = prev / resid if prev else float("nan")
        print(f"{steps:>8} {resid:>14.4e} {ratio:>7.2f}")
        rows.append((steps, resid, ratio))
        prev = resid

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["steps", "max_residual", "ratio"])
            w.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
