"""Set-up probe: import bomric and parse scenario files in a fresh interpreter.

This is what every CLI call pays before it does any work.  Prints the
elapsed seconds, measured from before the import to after the last parse.

Usage: setup_probe.py SRC_DIR SCENARIO_JSON...
"""
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bomric.cli  # noqa: E402  (the import is what is being timed)

for path in sys.argv[2:]:
    bomric.scenario.load_scenario(path)
print(repr(time.perf_counter() - start))
