"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root:  python3 -m pytest -q perfbench
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from bomric import cli  # noqa: E402

# Every end-to-end metric the benchmark prints, with its unit.
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "simulate_s": "s", "riccati_s": "s",
    "verify_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
}
LAYER_NAMES = [
    "scenario.parse.calls", "scenario.parse.s",
    "bath.assembly.calls", "bath.assembly.s", "bath.weyl.s",
    "blockop.flatten.calls", "blockop.partial_trace.calls",
    "blockop.partial_trace.s", "blockop.sandwich.s",
    "linalg.expm.calls", "linalg.expm.s", "linalg.eigh.calls", "linalg.eigh.s",
    "linalg.sylvester.calls", "linalg.sylvester.s", "linalg.sylvester.failed",
    "dynamics.hamiltonian.calls", "dynamics.hamiltonian.s",
    "dynamics.reduced_dynamics.s", "dynamics.reduced_dynamics.self_s",
    "dynamics.rotating_frame_check.s", "dynamics.grid_points",
    "riccati.newton.s", "riccati.newton.iterations", "riccati.newton.failed",
    "riccati.subspace.s", "riccati.subspace.failed", "riccati.diagonalize.s",
    "riccati.converged_frac", "cli.simulate.self_s", "cli.csv.bytes",
    *[f"cli.verify.{c}.s" for c in spans.VERIFY_CHECKS],
    "trace.overhead_ratio",
]


def _work_dir(name: str) -> Path:
    path = ROOT / ".perfbench_work" / f"test-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_scenarios(name):
    work = _work_dir(f"seed-{name}")
    first = workloads.write(workloads.build(name, 7, ROOT), work / "a")
    second = workloads.write(workloads.build(name, 7, ROOT), work / "b")
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()
    assert workloads.build(name, 7, ROOT).ops == workloads.build(name, 7, ROOT).ops
    if name in ("bath64_mixed", "riccati_scan"):
        assert workloads.build(name, 8, ROOT).scenarios != workloads.build(name, 7, ROOT).scenarios
    shutil.rmtree(work)


def _tiny_workload():
    """The warm-up scenario run as a pass: every command kind on env_dim 2."""
    base = workloads.build("bath64", 0, ROOT)
    ops = base.warmup
    return workloads.Workload(
        name="tiny", seed=0, scenarios={workloads.WARMUP: base.scenarios[workloads.WARMUP]},
        ops=ops, warmup=ops,
    )


def test_tiny_pass_prints_every_metric_with_its_unit():
    work = _work_dir("tiny")
    tiny = _tiny_workload()
    workloads.write(tiny, work / "scenarios")
    plan = {
        "root": str(ROOT), "seconds": 0, "trace": True,
        "scen_dir": str(work / "scenarios"), "out_dir": str(work / "out"),
        "spans": str(work / "spans.json"),
    }
    result = worker.run(plan, tiny)
    assert result["incorrect"] == 0 and result["traced_incorrect"] == 0, result["failures"]
    assert result["attempted"] == len(tiny.ops)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        lines, final = run.report(tiny, result, [0.5, 0.4, 0.6], trace, {"seed": 0})
        text = "\n".join(lines)
        for name, unit in E2E_UNITS.items():
            assert re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+\d+", text, re.M), name
        if trace:
            for name in LAYER_NAMES:
                unit = spans.LAYER_METRICS[name][0]
                assert re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s", text, re.M), name
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        declared = {m["name"]: m["unit"] for m in bench[section]}
        assert {k: v["unit"] for k, v in final["metrics"].items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in final["metrics"].values())
    assert set(LAYER_NAMES) == set(spans.LAYER_METRICS)
    assert {e["name"] for e in bench["workloads"]} == set(workloads.WORKLOADS)
    assert len(json.loads((work / "spans.json").read_text())["spans"]) > 0
    shutil.rmtree(work)


def _simulate(work: Path, doc: dict, mode: str) -> Path:
    scen = work / "scenario.json"
    scen.write_text(json.dumps(doc))
    out = work / f"{mode}.csv"
    assert cli.main(["simulate", str(scen), "--out", str(out), "--mode", mode]) == 0
    return out


@pytest.mark.parametrize("mode", workloads.MODES)
def test_oracle_flags_perturbed_trajectory(mode, capsys):
    work = _work_dir(f"oracle-{mode}")
    doc = workloads._doc((2.0,), 4, workloads._pure_initial(),
                         {"t_max": 2.0, "steps": 200}, ["rotating_frame"])
    model = oracle.Model(doc)
    header, data = oracle.read_csv(_simulate(work, doc, mode))
    assert oracle.check_trajectory(model, mode, header, data) == []

    # a sampled row moved along sigma_z: still a valid state with consistent
    # derived columns, so only the dense reference can catch it
    k = int(oracle.sample_indices(model.steps)[3])
    moved = data.copy()
    moved[k, 1] += 1e-6        # rho00_re
    moved[k, 7] -= 1e-6        # rho11_re
    moved[k, 11] += 2e-6       # bloch_z
    rho00, rho11 = moved[k, 1], moved[k, 7]
    r01 = moved[k, 3] + 1j * moved[k, 4]
    moved[k, 12] = rho00**2 + rho11**2 + 2 * abs(r01) ** 2   # purity
    problems = oracle.check_trajectory(model, mode, header, moved)
    assert any("deviates from the" in p for p in problems), problems

    # an unsampled row losing normalization trips the per-row caps
    broken = data.copy()
    broken[1, 1] += 1e-6
    problems = oracle.check_trajectory(model, mode, header, broken)
    assert any("TRACE_DEV_CAP" in p for p in problems), problems

    assert oracle.check_trajectory(model, mode, header, data[:-1])
    blank = data.copy()
    blank[5, 3] = float("nan")
    assert oracle.check_trajectory(model, mode, header, blank) == ["non-finite values in the CSV"]
    shutil.rmtree(work)


def test_benchmark_refuses_to_run_without_the_program():
    bare = _work_dir("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    shutil.rmtree(bare)
