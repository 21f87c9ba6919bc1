"""Seeded workload generation for the bomric benchmark.

Pure standard library on purpose: the parent process that writes the
scenario files never imports numpy, so the same seed gives byte-identical
files whatever numpy version is installed.

A workload is a closed loop with one client: a pass is a list of CLI
operations run one after another, each starting when the previous one
returns.  The seed fixes the generated parameters and the order of the
operations in a pass.  The program only ever sees the generated scenario
files.

Why each workload exists is written at its generator below; the per-layer
metric -> end-to-end metric -> workload predictions are in
spans.LAYER_METRICS.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("bundled", "bath64", "bath64_mixed", "riccati_scan")
MODES = ("rotating_stepped", "static_exact", "factored")
ALL_CHECKS = [
    "covariance", "rotating_frame", "sandwich",
    "zt_riccati", "st_diagonalization", "weyl_displacement",
]

# Spin-boson qubit used by every generated scenario (as in the bundled
# spinboson.json): the Riccati resonance sits at mode frequency 2 beta = 1.
QUBIT = {"alpha": 0.3, "beta": 0.5, "omega": 1.0}
COUPLING = 0.2

# bath64 grid.  At t_max = 10 with 200 steps the rotating_frame check fails
# (residual 1.67e-4 against 1e-5): that grid is under-resolved, the code is
# not at fault.  The midpoint integrator's error scales roughly as
# t_max^3 / steps^2; t_max = 5 with 400 steps still leaves 1.03e-5, while
# t_max = 2.5 with 200 steps leaves 6.0e-6, inside the tolerance, with a
# pass short enough that a run holds several.
BATH64_MODES = (2.3, 1.7)
BATH64_CUTOFF = 7
BATH64_TIME = {"t_max": 2.5, "steps": 200}

# riccati_scan: fixed cases, always included, each a known hard spot.
SCAN_FIXED = (
    ("newton_singular", (2.0, 1.5), 7),      # Newton's linearization turns singular
    ("newton_noncontractive", (2.3, 1.7), 7),  # Newton lands off the graph branch
    ("resonance", (2 * QUBIT["beta"],), 31),  # single mode at omega = 2 beta
)
# Scanned multi-mode cases: SCAN_POINTS grid frequencies per (modes,
# fock_cutoff) shape, env_dim 16-64; mode j of an n-mode problem at grid
# point i sits at grid position (i + j / n) mod SCAN_POINTS, so no two modes
# share a frequency.  This grid is not seeded: multi-mode Newton convergence
# is chaotic in the frequencies (jittering each by up to 2% of the grid step
# changed which cases fail, each failure costing 40 iterations), and seeded
# frequencies moved a pass's cost by 16-24% (interquartile range over median,
# 5-8 seeds), which would swamp any bound.
SCAN_GRID_SHAPES = ((2, 3), (2, 5), (2, 7), (3, 2), (3, 3))
SCAN_POINTS = 3
SCAN_OMEGA_RANGE = (0.6, 3.0)
# Seeded single-mode cases: SCAN_DRAWS frequencies per shape, drawn from a
# band where Newton converges in 4-5 iterations at every env_dim, so the seed
# varies the inputs without varying the cost; the resonance itself is a
# fixed case.
SCAN_SEEDED_SHAPES = ((1, 15), (1, 31), (1, 63))
SCAN_DRAWS = 3
SCAN_SEEDED_RANGE = (1.2, 3.0)

# A tiny scenario every command kind runs once before timing starts, so
# lazy imports and first BLAS calls are not timed.
WARMUP = "warmup"


@dataclass(frozen=True)
class Op:
    """One CLI operation of a pass."""

    command: str          # simulate | riccati | verify
    scenario: str         # scenario name (file stem)
    variant: str          # simulate mode, or riccati "default" / "graph"

    @property
    def key(self) -> str:
        return f"{self.scenario}/{self.command}/{self.variant}"

    def argv(self, scen_dir: Path, out_dir: Path) -> list[str]:
        path = str(scen_dir / f"{self.scenario}.json")
        out = str(self.out_path(out_dir))
        if self.command == "simulate":
            return ["simulate", path, "--out", out, "--mode", self.variant]
        if self.command == "riccati" and self.variant == "graph":
            return ["riccati", path, "--method", "subspace", "--branch", "graph", "--out", out]
        return [self.command, path, "--out", out]

    def out_path(self, out_dir: Path) -> Path:
        suffix = "csv" if self.command == "simulate" else "json"
        return out_dir / f"{self.scenario}.{self.command}.{self.variant}.{suffix}"


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    scenarios: dict[str, str]   # name -> JSON text, as written to disk
    ops: list[Op]               # one pass, in order
    warmup: list[Op]


def _doc(modes, cutoff, initial, time, checks, mode="static_exact") -> dict:
    return {
        "qubit": dict(QUBIT),
        "bath": {
            "modes": [{"omega": w, "g_re": COUPLING} for w in modes],
            "fock_cutoff": cutoff,
        },
        "initial": initial,
        "time": dict(time),
        "run": {"mode": mode, "checks": list(checks)},
    }


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _pure_initial() -> dict:
    return {"kind": "product", "qubit_state": "+", "env_state": {"fock": 0}}


def _mixed_initial(rng: random.Random, omegas, cutoff) -> dict:
    """Seeded mixed qubit state (I + r.sigma)/2 times a thermal bath state."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    length = rng.uniform(0.2, 0.8)
    s = math.sqrt(1.0 - z * z)
    rx, ry, rz = length * s * math.cos(phi), length * s * math.sin(phi), length * z
    qubit = {
        "re": [[(1 + rz) / 2, rx / 2], [rx / 2, (1 - rz) / 2]],
        "im": [[0.0, -ry / 2], [ry / 2, 0.0]],
    }
    temperature = rng.uniform(0.5, 2.0)
    pops = [1.0]
    for w in omegas:  # mode 0 is the slowest Kronecker index
        weights = [math.exp(-w * n / temperature) for n in range(cutoff + 1)]
        total = sum(weights)
        pops = [p * q / total for p in pops for q in weights]
    n = len(pops)
    env = [[pops[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
    return {"kind": "product", "qubit_state": qubit, "env_state": {"re": env}}


def _warmup_doc() -> dict:
    return _doc((2.0,), 1, _pure_initial(), {"t_max": 1.0, "steps": 50},
                ALL_CHECKS, mode="rotating_stepped")


def _full_ops(name: str) -> list[Op]:
    return [Op("simulate", name, m) for m in MODES] + [
        Op("riccati", name, "default"), Op("verify", name, "default"),
    ]


def _bundled(rng, repo: Path):
    """The five files in scenarios/, each run through all five operations.

    Why: at env_dim 2-13 and 200-2000 grid points most time goes to Python
    work per grid point (partial trace, per-point eigvalsh diagnostics, CSV
    rows) and to verify's many small checks; dense linear algebra is a small
    share.  The resonant Newton failure on weyl.json (exit 4) is a known
    defect and stays in as a counted failure.
    """
    scen_dir = repo / "scenarios"
    names = sorted(p.stem for p in scen_dir.glob("*.json"))
    if not names:
        raise FileNotFoundError(f"no bundled scenarios under {scen_dir}")
    rng.shuffle(names)
    texts = {n: (scen_dir / f"{n}.json").read_text() for n in names}
    return texts, [op for n in names for op in _full_ops(n)]


def _bath64(rng, repo: Path):
    """Two-mode bath at the env_dim 64 cap, pure product initial state (rank 1).

    Why: 128 x 128 work dominates (per-step expm, eigh, u rho0 u† and
    Kronecker-chain assembly) and per-point Python overhead is a small
    share.  A kernel that propagates a rank-r state factor should show its
    gain here.
    """
    doc = _doc(BATH64_MODES, BATH64_CUTOFF, _pure_initial(), BATH64_TIME,
               ALL_CHECKS, mode="rotating_stepped")
    ops = _full_ops("bath64")
    rng.shuffle(ops)
    return {"bath64": _dump(doc)}, ops


def _bath64_mixed(rng, repo: Path):
    """The bath64 bath with a full-rank initial state; simulate only.

    Why: the same dynamics layer used another way.  A rank-r propagation
    factor saves nothing at r = 2N, so a kernel that speeds up pure states
    at the expense of mixed ones shows here.
    """
    initial = _mixed_initial(rng, BATH64_MODES, BATH64_CUTOFF)
    doc = _doc(BATH64_MODES, BATH64_CUTOFF, initial, BATH64_TIME,
               ALL_CHECKS, mode="rotating_stepped")
    ops = [Op("simulate", "bath64_mixed", m) for m in MODES]
    rng.shuffle(ops)
    return {"bath64_mixed": _dump(doc)}, ops


def _riccati_scan(rng, repo: Path):
    """Static spin-boson Riccati problems, env_dim 16-64, plus the fixed cases.

    Each problem runs riccati with its defaults, then the graph branch of the
    subspace solver.  Why: riccati, linalg.solve_sylvester and eigh do nearly
    all the work here, with no dynamics; elsewhere a Riccati solve costs
    about 3 ms, so a change to it would be invisible.
    """
    problems = list(SCAN_FIXED)
    lo, hi = SCAN_OMEGA_RANGE
    step = (hi - lo) / SCAN_POINTS
    for n_modes, cutoff in SCAN_GRID_SHAPES:
        for i in range(SCAN_POINTS):
            omegas = tuple(round(lo + step * ((i + j / n_modes) % SCAN_POINTS + 0.5), 6)
                           for j in range(n_modes))
            problems.append((f"grid{i}_{n_modes}m{(cutoff + 1) ** n_modes}", omegas, cutoff))
    lo, hi = SCAN_SEEDED_RANGE
    for _n_modes, cutoff in SCAN_SEEDED_SHAPES:
        for i in range(SCAN_DRAWS):
            omega = round(rng.uniform(lo, hi), 6)
            problems.append((f"seeded{i}_1m{cutoff + 1}", (omega,), cutoff))
    rng.shuffle(problems)
    texts = {}
    ops = []
    for name, omegas, cutoff in problems:
        texts[name] = _dump(_doc(omegas, cutoff, _pure_initial(),
                                 {"t_max": 10.0, "steps": 400}, []))
        ops += [Op("riccati", name, "default"), Op("riccati", name, "graph")]
    return texts, ops


_GENERATORS = {
    "bundled": _bundled,
    "bath64": _bath64,
    "bath64_mixed": _bath64_mixed,
    "riccati_scan": _riccati_scan,
}


def build(name: str, seed: int, repo: Path) -> Workload:
    """Generate a workload's scenario texts and its pass of operations."""
    rng = random.Random(f"{name}:{seed}")
    texts, ops = _GENERATORS[name](rng, Path(repo))
    texts[WARMUP] = _dump(_warmup_doc())
    warmup = _full_ops(WARMUP) + [Op("riccati", WARMUP, "graph")]
    return Workload(name=name, seed=seed, scenarios=texts, ops=ops, warmup=warmup)


def write(workload: Workload, scen_dir: Path) -> list[Path]:
    scen_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in workload.scenarios.items():
        path = scen_dir / f"{name}.json"
        path.write_text(text)
        paths.append(path)
    return paths
