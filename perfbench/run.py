#!/usr/bin/env python3
"""bomric benchmark: CLI time-to-solution per workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of bundled, bath64, bath64_mixed, riccati_scan (see
workloads.py for why each exists), or all to run the four in turn, with
metric names prefixed by the workload in the final line.  The seed generates
the workload's scenario files under .perfbench_work/; the program only sees
those files.

One run:
  1. times set-up (import bomric and parse the workload's scenarios) in
     several fresh interpreters and takes the median (setup_s);
  2. starts one worker interpreter with BLAS pinned to one thread, which
     drives bomric.cli.main in-process as a closed loop with one client:
     a warm-up, then passes over the workload's operations until the timed
     work reaches S seconds.  Every output is checked against the
     benchmark's own oracle outside the timed region;
  3. with --trace 1, adds one pass with outside-in layer spans.

It prints a table of every metric with its unit and sample count, a run
record line, and as its last line one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  The full record,
and the spans of a traced run, are written under .perfbench_results/.

`failed` counts operations that exited nonzero or failed the oracle; the
known solver failures (the resonant Newton case on weyl.json, the singular
Newton case in riccati_scan) are counted there as measured.  `correct` is
false when an output that the program reported as a success fails the
oracle, or an operation exits with an undocumented code.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

# Set-up probes before and after the worker, so slow drift of the machine
# during a run shows in neither half alone.
SETUP_PROBES = (3, 2)
BLAS_THREADS = "1"
# The contract allows 180 s per run; leave a margin for start-up and output.
RUN_BUDGET_S = 170.0

# name -> (unit, how it is sampled).  All are printed; only
# CONTRACT_END_TO_END (BENCHMARK.json's end_to_end) reach the final JSON
# line.  The per-command times are absent on workloads that run no such
# command and failed_frac is 0 on two workloads, so they cannot carry a
# bound; failures reach the final line as `failed` of `attempted`.
END_TO_END = {
    "setup_s": ("s", "median over fresh interpreters"),
    "wall_s": ("s", "median over warmed passes"),
    "simulate_s": ("s", "median over passes of the pass's simulate time"),
    "riccati_s": ("s", "median over passes of the pass's riccati time"),
    "verify_s": ("s", "median over passes of the pass's verify time"),
    "peak_rss_mb": ("MB", "worker's peak resident memory"),
    "failed_frac": ("ratio", "failed / attempted operations"),
}
CONTRACT_END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


class BenchError(RuntimeError):
    """A run could not finish; reported on stderr with exit 1."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in worker.THREAD_VARS})
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time budget")
    return left


def measure_setup(paths, count: int, deadline: float) -> list[float]:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), *map(str, paths)]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_worker(plan: dict, work: Path, deadline: float) -> dict:
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                          capture_output=True, text=True, env=child_env(),
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr.strip()[-3000:]}")
    return json.loads(Path(plan["result"]).read_text())


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _scenario_shapes(workload) -> dict:
    shapes = {}
    for name, text in workload.scenarios.items():
        if name == workloads.WARMUP:
            continue
        doc = json.loads(text)
        bath = doc["bath"]
        shapes[name] = {
            "env_dim": (bath["fock_cutoff"] + 1) ** len(bath["modes"]),
            "grid_points": doc["time"]["steps"] + 1,
        }
    return shapes


def end_to_end(result: dict, setup: list[float]) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count); a command the workload never runs is absent."""
    passes = result["passes"]
    out = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), len(passes)),
    }
    for cmd in ("simulate_s", "riccati_s", "verify_s"):
        if cmd in passes[0]:
            out[cmd] = (statistics.median(p[cmd] for p in passes), len(passes))
    out["peak_rss_mb"] = (result["peak_rss_mb"], 1)
    out["failed_frac"] = (result["failed"] / result["attempted"], result["attempted"])
    return out


def report(workload, result: dict, setup: list[float], trace: bool, record: dict) -> tuple[list[str], dict]:
    """Printed table lines and the final JSON object of one run."""
    e2e = end_to_end(result, setup)
    lines = [
        f"workload {workload.name}  seed {workload.seed}  passes {len(result['passes'])}  "
        f"ops/pass {len(workload.ops)}  attempted {result['attempted']}  failed {result['failed']}",
        f"{'metric':34s} {'value':>14s} {'unit':>6s} {'n':>5s}  sampling",
    ]
    for name, (unit, how) in END_TO_END.items():
        if name in e2e:
            value, n = e2e[name]
            lines.append(f"{name:34s} {value:14.6g} {unit:>6s} {n:5d}  {how}")
        else:
            lines.append(f"{name:34s} {'absent':>14s} {unit:>6s} {0:5d}  workload runs no such command")
    if trace:
        lines.append(f"{'per-layer (traced pass + warm-up)':34s} {'value':>14s} {'unit':>6s} {'n':>5s}  predicted to move")
        for name, (unit, _better, moves) in spans.LAYER_METRICS.items():
            lines.append(f"{name:34s} {result['layers'][name]:14.6g} {unit:>6s} {1:5d}  {moves}")
    for f in result["failures"][:10]:
        lines.append(f"failed op {f['op']} (pass {f['pass']}"
                     f"{', INCORRECT' if f['incorrect'] else ''}): {f['reason'][:160]}")
    lines.append("run record: " + json.dumps(record, sort_keys=True))

    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, (unit, _b, _m) in spans.LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": END_TO_END[name][0]}
                   for name in CONTRACT_END_TO_END}
    incorrect = result["incorrect"] + result.get("traced_incorrect", 0)
    final = {
        "correct": incorrect == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return lines, final


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict]:
    """One run of one workload; returns its printed lines and final object."""
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = workloads.build(name, seed, ROOT)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = WORK / f"{tag}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        scen_paths = workloads.write(workload, work / "scenarios")
        timed_paths = [p for p in scen_paths if p.stem != workloads.WARMUP]
        setup = measure_setup(timed_paths, SETUP_PROBES[0], deadline)
        plan = {
            "root": str(ROOT),
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "scen_dir": str(work / "scenarios"),
            "out_dir": str(work / "out"),
            "result": str(work / "result.json"),
            "spans": str(RESULTS / f"{tag}.spans.json"),
        }
        result = run_worker(plan, work, deadline)
        setup += measure_setup(timed_paths, SETUP_PROBES[1], deadline)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {exc}") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        **result["versions"],
        "thread_env": result["thread_env"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_digest": _src_digest(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scenarios": _scenario_shapes(workload),
    }
    lines, final = report(workload, result, setup, trace, record)
    full = {"record": record, "setup_times": setup, "result": result, "final": final}
    (RESULTS / f"{tag}.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    return lines, final


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bomric" / "__init__.py").is_file():
        print(f"error: no bomric sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    finals = {}
    try:
        for name in names:
            lines, finals[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
    except FileNotFoundError as exc:  # bundled needs the repository's scenarios/
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(finals[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(f["correct"] for f in finals.values()),
        "attempted": sum(f["attempted"] for f in finals.values()),
        "failed": sum(f["failed"] for f in finals.values()),
        "metrics": {f"{w}.{k}": v for w, f in finals.items() for k, v in f["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
