"""Benchmark worker: runs one workload's passes in-process through bomric.cli.main.

Started by run.py in a fresh interpreter whose environment pins BLAS to one
thread before numpy is imported.  Reads the plan run.py wrote, runs a
warm-up, then untraced passes until the timed work reaches the requested
seconds, checks every output against the oracle outside the timed region,
and, when tracing, one more pass with layer spans (followed by the warm-up
operations, so every layer shows up on every workload).  Writes its results as
JSON next to the plan.

Usage: worker.py PLAN_JSON
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import spans
import workloads

# Nonzero exit codes the CLI documents: 2 schema/state, 3 dimension cap,
# 4 no convergence, 5 a verification check failed.
DOCUMENTED_EXITS = {2, 3, 4, 5}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import bomric
    from bomric import cli

    src = (root / "src").resolve()
    if src not in Path(bomric.__file__).resolve().parents:
        raise RuntimeError(f"bomric imported from {bomric.__file__}, not from {src}")
    return bomric, cli


def run_op(cli, argv: list[str]) -> tuple[int | None, float, str]:
    """One timed CLI call; returns (exit code, seconds, stderr text).

    The exit code is None when an exception escapes main(), which the CLI
    promises never happens.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects argv
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        rc = None
        err.write(f"uncaught {type(exc).__name__}: {exc}\n")
    return rc, time.perf_counter() - start, err.getvalue()


class Checker:
    """Oracle verdicts per operation, cached on the output's content hash."""

    def __init__(self, scen_dir: Path):
        import oracle  # imports bomric, so only once src/ is on the path

        self.oracle = oracle
        self.scen_dir = scen_dir
        self.models = {}
        self.verdicts = {}

    def model(self, scenario: str):
        if scenario not in self.models:
            doc = json.loads((self.scen_dir / f"{scenario}.json").read_text())
            self.models[scenario] = self.oracle.Model(doc)
        return self.models[scenario]

    def check(self, op, out_path: Path) -> list[str]:
        if not out_path.exists():
            return [f"no output written at {out_path.name}"]
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        key = (op.key, digest)
        if key not in self.verdicts:
            o = self.oracle
            if op.command == "simulate":
                problems = o.check_simulate(self.model(op.scenario), op.variant, out_path)
            elif op.command == "riccati":
                problems = o.check_riccati(self.model(op.scenario), out_path)
            else:
                problems = o.check_verify(out_path)
            self.verdicts[key] = problems
        return self.verdicts[key]


def classify(rc, stderr: str, problems: list[str]) -> tuple[bool, bool, str]:
    """(failed, incorrect, reason) for one operation.

    An operation fails when it exits nonzero or its output fails the oracle,
    so a riccati or verify call counts as failed whenever it exits nonzero.
    It is incorrect (the program misbehaved, rather than failed the way the
    CLI documents) when its output fails the oracle or it exits with an
    undocumented code.
    """
    if rc == 0:
        return bool(problems), bool(problems), "; ".join(problems)
    errors = [ln for ln in stderr.splitlines() if ln.startswith(("error:", "uncaught"))]
    reason = f"exit {rc}: {errors[0] if errors else '(no error line on stderr)'}"
    return True, rc not in DOCUMENTED_EXITS, reason


def run_pass(cli, ops, scen_dir, out_dir, tracer=None) -> list[dict]:
    results = []
    for i, op in enumerate(ops):
        argv = op.argv(scen_dir, out_dir)
        out = op.out_path(out_dir)
        out.unlink(missing_ok=True)  # never judge a failed call on a stale file
        close = tracer.op_span(i, op.key) if tracer else None
        rc, elapsed, err = run_op(cli, argv)
        if close:
            close()
        results.append({"op": op, "rc": rc, "seconds": elapsed, "stderr": err, "out": out})
    return results


def judge(results, checker: Checker) -> None:
    """Attach the oracle verdict to each result (outside the timed region)."""
    for r in results:
        problems = checker.check(r["op"], r["out"]) if r["rc"] == 0 else []
        r["failed"], r["incorrect"], r["reason"] = classify(r["rc"], r["stderr"], problems)


def pass_summary(results) -> dict:
    per_cmd = defaultdict(float)
    for r in results:
        per_cmd[r["op"].command] += r["seconds"]
    return {
        "wall_s": sum(r["seconds"] for r in results),
        **{f"{c}_s": v for c, v in per_cmd.items()},
        "op_seconds": [r["seconds"] for r in results],
    }


def traced_extras(results) -> dict:
    """Per-layer metrics read from the outputs of the traced pass."""
    csv_bytes = 0
    verify_s = {c: 0.0 for c in spans.VERIFY_CHECKS}
    for r in results:
        if not r["out"].exists():
            continue
        if r["op"].command == "simulate":
            csv_bytes += r["out"].stat().st_size
        elif r["op"].command == "verify":
            for check in json.loads(r["out"].read_text())["results"]:
                verify_s[check["check"]] += check["seconds"]
    return {"cli.csv.bytes": csv_bytes, **{f"cli.verify.{c}.s": v for c, v in verify_s.items()}}


def run(plan: dict, workload: workloads.Workload) -> dict:
    """Warm up, run timed passes (and a traced one), return the results."""
    root = Path(plan["root"])
    scen_dir, out_dir = Path(plan["scen_dir"]), Path(plan["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    bomric, cli = _import_program(root)
    import numpy
    import scipy

    checker = Checker(scen_dir)
    run_pass(cli, workload.warmup, scen_dir, out_dir)

    # Passes until the timed work is as close as whole passes get to the
    # requested seconds.
    passes, failures = [], []
    attempted = failed = incorrect = 0
    timed = 0.0
    while not passes or timed + timed / len(passes) / 2 < plan["seconds"]:
        results = run_pass(cli, workload.ops, scen_dir, out_dir)
        judge(results, checker)
        passes.append(pass_summary(results))
        timed += passes[-1]["wall_s"]
        for r in results:
            attempted += 1
            failed += r["failed"]
            incorrect += r["incorrect"]
            if r["failed"] and len(failures) < 50:
                failures.append({"op": r["op"].key, "pass": len(passes) - 1,
                                 "incorrect": r["incorrect"], "reason": r["reason"]})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "incorrect": incorrect,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "ops": [op.key for op in workload.ops],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "bomric": bomric.__version__,
            "blas": _blas(numpy),
        },
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    if plan["trace"]:
        # The traced pass ends with the warm-up operations (every command on
        # an env_dim 2 scenario), so every layer is exercised on every
        # workload and no per-layer time is a structural zero.
        tracer = spans.Tracer()
        tracer.install()
        try:
            results = run_pass(cli, workload.ops + workload.warmup, scen_dir, out_dir, tracer)
        finally:
            tracer.uninstall()
        judge(results, checker)
        traced_wall = sum(r["seconds"] for r in results[:len(workload.ops)])
        untraced = statistics.median(p["wall_s"] for p in passes)
        layers = spans.layer_metrics(tracer.spans)
        layers.update(traced_extras(results))
        layers["trace.overhead_ratio"] = traced_wall / untraced
        out["layers"] = layers
        out["traced_incorrect"] = sum(r["incorrect"] for r in results)
        Path(plan["spans"]).write_text(json.dumps(tracer.export()))
    return out


def _blas(numpy) -> str:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv) -> int:
    plan_path = Path(argv[1])
    plan = json.loads(plan_path.read_text())
    workload = workloads.build(plan["workload"], plan["seed"], Path(plan["root"]))
    result = run(plan, workload)
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
