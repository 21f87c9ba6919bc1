"""Importing the CLI, and every default route on the bundled scenarios, loads no scipy.

scipy.linalg takes most of a CLI call's start-up time; only Newton's
Sylvester step (and linalg.expm, kept for the test oracles) imports it.
Each case runs in a fresh interpreter, since this one has scipy loaded.
"""
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


def assert_no_scipy(code: str) -> None:
    run = run_fresh(code + "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]", run.stdout


def test_cli_import_and_scenario_parse_load_no_scipy():
    assert_no_scipy(
        "import bomric.cli\n"
        "from pathlib import Path\n"
        "from bomric.scenario import load_scenario\n"
        "for p in sorted(Path('scenarios').glob('*.json')):\n"
        "    load_scenario(p)"
    )


def test_verify_weyl_loads_no_scipy():
    assert_no_scipy(
        "import bomric.cli\n"
        "assert bomric.cli.main(['verify', 'scenarios/weyl.json']) == 0"
    )


def test_default_routes_on_bundled_scenarios_load_no_scipy(tmp_path):
    assert_no_scipy(
        "import bomric.cli\n"
        "from pathlib import Path\n"
        "for p in sorted(Path('scenarios').glob('*.json')):\n"
        f"    out = str(Path({str(tmp_path)!r}) / (p.stem + '.csv'))\n"
        "    for argv in (['verify', str(p)], ['riccati', str(p)], ['simulate', str(p), '--out', out]):\n"
        "        assert bomric.cli.main(argv) == 0, argv"
    )
