"""Importing the CLI, and every default route on the bundled scenarios and on a
two-mode bath of the benchmark's shape, loads no scipy; importing the CLI and
parsing a scenario loads no orjson.

scipy.linalg takes most of a CLI call's start-up time; only Newton's
Sylvester step imports it.
orjson, the CSV cell formatter, is imported when simulate writes its first
rows.  Each case runs in a fresh interpreter, since this one has both loaded.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, env=env, capture_output=True, text=True, timeout=120
    )


def assert_not_loaded(code: str, module: str = "scipy") -> None:
    run = run_fresh(code + f"\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == {module!r}))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]", run.stdout


CLI_IMPORT_AND_PARSE = (
    "import bomric.cli\n"
    "from pathlib import Path\n"
    "from bomric.scenario import load_scenario\n"
    "for p in sorted(Path('scenarios').glob('*.json')):\n"
    "    load_scenario(p)"
)


def test_cli_import_and_scenario_parse_load_no_scipy():
    assert_not_loaded(CLI_IMPORT_AND_PARSE)


def test_cli_import_and_scenario_parse_load_no_orjson():
    assert_not_loaded(CLI_IMPORT_AND_PARSE, "orjson")


def test_verify_weyl_loads_no_scipy():
    assert_not_loaded(
        "import bomric.cli\n"
        "assert bomric.cli.main(['verify', 'scenarios/weyl.json']) == 0"
    )


def test_default_routes_on_bundled_scenarios_load_no_scipy(tmp_path):
    assert_not_loaded(
        "import bomric.cli\n"
        "from pathlib import Path\n"
        "for p in sorted(Path('scenarios').glob('*.json')):\n"
        f"    out = str(Path({str(tmp_path)!r}) / (p.stem + '.csv'))\n"
        "    for argv in (['verify', str(p)], ['riccati', str(p)], ['simulate', str(p), '--out', out]):\n"
        "        assert bomric.cli.main(argv) == 0, argv"
    )


def test_default_riccati_on_a_two_mode_bath_loads_no_scipy(tmp_path):
    # modes 1.0 and 1.4 at cutoff 5 (env_dim 36): the graph X has eta 2.18 u,
    # under Newton's ETA_TOL, so the refinement takes no Sylvester step
    doc = json.loads((REPO / "scenarios" / "riccati_spinboson.json").read_text())
    doc["bath"] = {"modes": [{"omega": 1.0, "g_re": 0.2}, {"omega": 1.4, "g_re": 0.2}],
                   "fock_cutoff": 5}
    path = tmp_path / "two_modes.json"
    path.write_text(json.dumps(doc))
    assert_not_loaded(
        "import bomric.cli\n"
        f"assert bomric.cli.main(['riccati', {str(path)!r}]) == 0"
    )


def test_plain_pytest_from_the_root_finds_the_package():
    # pyproject's pythonpath puts src/ on the path, so no PYTHONPATH is needed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--collect-only",
         "tests/test_imports.py"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
