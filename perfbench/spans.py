"""Outside-in layer spans for the traced benchmark run.

The tracer wraps public bomric functions from the outside: each target is
rebound, in every loaded ``bomric.*`` namespace that holds it, to a wrapper
that records a span (name, start, end, parent span, operation id).  Spans
stay in memory and are written out when the run ends.  Nothing under src/
changes.

LAYER_METRICS lists every per-layer metric with the end-to-end metric and
workload it is predicted to move, so later performance changes can cite the
prediction they were measured against.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) -> span name.  Two functions may share a span name.
TARGETS = {
    ("bomric.scenario", "scenario_from_dict"): "scenario.parse",
    ("bomric.bath", "bath_hamiltonian"): "bath.assembly",
    ("bomric.bath", "coupling_operator"): "bath.assembly",
    ("bomric.bath", "weyl_operator"): "bath.weyl",
    ("bomric.blockop", "flatten"): "blockop.flatten",
    ("bomric.blockop", "partial_trace_env"): "blockop.partial_trace",
    ("bomric.blockop", "sandwich_lemma_check"): "blockop.sandwich",
    ("bomric.linalg", "expm"): "linalg.expm",
    ("bomric.linalg", "hermitian_eig"): "linalg.eigh",
    ("bomric.linalg", "solve_sylvester"): "linalg.sylvester",
    ("bomric.dynamics", "hamiltonian_static"): "dynamics.hamiltonian",
    ("bomric.dynamics", "hamiltonian_rotating"): "dynamics.hamiltonian",
    ("bomric.dynamics", "reduced_dynamics"): "dynamics.reduced_dynamics",
    ("bomric.dynamics", "rotating_frame_check"): "dynamics.rotating_frame_check",
    ("bomric.riccati", "solve_newton"): "riccati.newton",
    ("bomric.riccati", "solve_invariant_subspace"): "riccati.subspace",
    ("bomric.riccati", "diagonalize"): "riccati.diagonalize",
    ("bomric.cli", "cmd_simulate"): "cli.simulate",
    ("bomric.cli", "cmd_riccati"): "cli.riccati",
    ("bomric.cli", "cmd_verify"): "cli.verify",
}

VERIFY_CHECKS = (
    "covariance", "rotating_frame", "sandwich",
    "zt_riccati", "st_diagonalization", "weyl_displacement",
)

# name -> (unit, better, prediction).  A prediction names the end-to-end
# metric and the workload the layer metric should move.
LAYER_METRICS = {
    "scenario.parse.calls": ("count", "lower", "setup_s and wall_s on bath64_mixed (64x64 matrices in JSON)"),
    "scenario.parse.s": ("s", "lower", "setup_s and wall_s on bath64_mixed (64x64 matrices in JSON)"),
    "bath.assembly.calls": ("count", "lower", "simulate_s on bath64 (stepped path rebuilds H_E and V every substep)"),
    "bath.assembly.s": ("s", "lower", "simulate_s on bath64"),
    "bath.weyl.s": ("s", "lower", "simulate_s on bath64"),
    "blockop.flatten.calls": ("count", "lower", "simulate_s on bundled"),
    "blockop.partial_trace.calls": ("count", "lower", "simulate_s on bundled"),
    "blockop.partial_trace.s": ("s", "lower", "simulate_s on bundled"),
    "blockop.sandwich.s": ("s", "lower", "verify_s on bundled and bath64"),
    "linalg.expm.calls": ("count", "lower", "simulate_s on bath64; no move on bath64_mixed"),
    "linalg.expm.s": ("s", "lower", "simulate_s on bath64; no move on bath64_mixed"),
    "linalg.eigh.calls": ("count", "lower", "simulate_s on bath64; no move on bath64_mixed"),
    "linalg.eigh.s": ("s", "lower", "simulate_s on bath64; no move on bath64_mixed"),
    "linalg.sylvester.calls": ("count", "lower", "riccati_s and failed_frac on riccati_scan"),
    "linalg.sylvester.s": ("s", "lower", "riccati_s and failed_frac on riccati_scan"),
    "linalg.sylvester.failed": ("count", "lower", "riccati_s and failed_frac on riccati_scan"),
    "dynamics.hamiltonian.calls": ("count", "lower", "simulate_s on bath64, and on bundled via per-point overhead"),
    "dynamics.hamiltonian.s": ("s", "lower", "simulate_s on bath64, and on bundled via per-point overhead"),
    "dynamics.reduced_dynamics.s": ("s", "lower", "simulate_s on bath64, and on bundled via per-point overhead"),
    "dynamics.reduced_dynamics.self_s": ("s", "lower", "simulate_s on bath64, and on bundled via per-point overhead"),
    "dynamics.rotating_frame_check.s": ("s", "lower", "verify_s on bundled and bath64"),
    "dynamics.grid_points": ("count", "higher", "work done: grid points propagated per pass"),
    "riccati.newton.s": ("s", "lower", "riccati_s on riccati_scan; no move on bundled"),
    "riccati.newton.iterations": ("count", "lower", "riccati_s on riccati_scan; no move on bundled"),
    "riccati.newton.failed": ("count", "lower", "riccati_s on riccati_scan; no move on bundled"),
    "riccati.subspace.s": ("s", "lower", "riccati_s on riccati_scan; no move on bundled"),
    "riccati.subspace.failed": ("count", "lower", "riccati_s on riccati_scan; no move on bundled"),
    "riccati.diagonalize.s": ("s", "lower", "riccati_s on riccati_scan; no move on bundled"),
    "riccati.converged_frac": ("ratio", "higher", "failed_frac on riccati_scan"),
    "cli.simulate.self_s": ("s", "lower", "simulate_s on bundled (CSV formatting and writing)"),
    "cli.csv.bytes": ("bytes", "lower", "simulate_s on bundled"),
    **{
        f"cli.verify.{c}.s": ("s", "lower", "verify_s on bundled and bath64 (from verify --out seconds)")
        for c in VERIFY_CHECKS
    },
    "trace.overhead_ratio": ("ratio", "lower", "traced wall_s / untraced wall_s"),
}


class Tracer:
    """Records spans around wrapped bomric functions; one instance per run."""

    def __init__(self):
        # [name, start, end, parent index, op id, failed, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op_id: int | None = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else None, self.op_id, False, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = True
                rec[6] = _info(name, None, exc)
                raise
            else:
                rec[6] = _info(name, result, None)
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Rebind every target in each loaded bomric namespace that imported it."""
        modules = [m for k, m in sys.modules.items() if k == "bomric" or k.startswith("bomric.")]
        for (mod_name, attr), span_name in TARGETS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def op_span(self, op_id: int, name: str):
        """Root span of one operation; returns a closer to call when it ends."""
        self.op_id = op_id
        rec = [name, time.perf_counter(), 0.0, None, op_id, False, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)

        def close():
            rec[2] = time.perf_counter()
            self._stack.pop()
            self.op_id = None

        return close

    def export(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "op", "failed", "info"],
                "spans": self.spans}


def _info(name, result, exc):
    """Per-span facts read from a call's result or exception."""
    if name == "riccati.newton":
        if exc is not None:
            trace = getattr(exc, "trace", None)
            return {"iterations": len(trace) - 1} if trace else None
        return {"iterations": result.iterations}
    if name == "dynamics.reduced_dynamics" and exc is None:
        return {"points": len(result)}
    return None


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Aggregate one traced pass into the span-derived per-layer metrics."""
    calls = defaultdict(int)
    total = defaultdict(float)
    failed = defaultdict(int)
    child = defaultdict(float)
    iterations = 0
    points = 0
    for name, start, end, parent, _op, bad, info in spans:
        calls[name] += 1
        total[name] += end - start
        failed[name] += bad
        if parent is not None:
            child[parent] += end - start
        if info:
            iterations += info.get("iterations", 0)
            points += info.get("points", 0)
    self_s = defaultdict(float)
    for idx, rec in enumerate(spans):
        self_s[rec[0]] += (rec[2] - rec[1]) - child[idx]

    solves = calls["riccati.newton"] + calls["riccati.subspace"]
    converged = solves - failed["riccati.newton"] - failed["riccati.subspace"]
    out = {
        "scenario.parse.calls": calls["scenario.parse"],
        "scenario.parse.s": total["scenario.parse"],
        "bath.assembly.calls": calls["bath.assembly"],
        "bath.assembly.s": total["bath.assembly"],
        "bath.weyl.s": total["bath.weyl"],
        "blockop.flatten.calls": calls["blockop.flatten"],
        "blockop.partial_trace.calls": calls["blockop.partial_trace"],
        "blockop.partial_trace.s": total["blockop.partial_trace"],
        "blockop.sandwich.s": total["blockop.sandwich"],
        "linalg.expm.calls": calls["linalg.expm"],
        "linalg.expm.s": total["linalg.expm"],
        "linalg.eigh.calls": calls["linalg.eigh"],
        "linalg.eigh.s": total["linalg.eigh"],
        "linalg.sylvester.calls": calls["linalg.sylvester"],
        "linalg.sylvester.s": total["linalg.sylvester"],
        "linalg.sylvester.failed": failed["linalg.sylvester"],
        "dynamics.hamiltonian.calls": calls["dynamics.hamiltonian"],
        "dynamics.hamiltonian.s": total["dynamics.hamiltonian"],
        "dynamics.reduced_dynamics.s": total["dynamics.reduced_dynamics"],
        "dynamics.reduced_dynamics.self_s": self_s["dynamics.reduced_dynamics"],
        "dynamics.rotating_frame_check.s": total["dynamics.rotating_frame_check"],
        "dynamics.grid_points": points,
        "riccati.newton.s": total["riccati.newton"],
        "riccati.newton.iterations": iterations,
        "riccati.newton.failed": failed["riccati.newton"],
        "riccati.subspace.s": total["riccati.subspace"],
        "riccati.subspace.failed": failed["riccati.subspace"],
        "riccati.diagonalize.s": total["riccati.diagonalize"],
        "riccati.converged_frac": converged / solves if solves else 0.0,
        "cli.simulate.self_s": self_s["cli.simulate"],
    }
    return out
