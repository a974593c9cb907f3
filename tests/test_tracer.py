"""The benchmark tracer still wraps every name it expects.

perfbench/tracer.py patches acx's layer entry points by name; renaming or
deleting one of them makes it fail.  Running it here catches that in the test
suite rather than only in the benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=120
    )


def test_traced_run_matches_untraced(tmp_path):
    acx_argv = ["nijenhuis", "--model", "kt"]
    trace_path = tmp_path / "trace.json"
    traced = _run(["perfbench/tracer.py", str(trace_path), "--", *acx_argv])
    plain = _run(["-m", "acx.cli", *acx_argv])
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0
    assert traced.stdout == plain.stdout
    trace = json.loads(trace_path.read_text())
    assert trace["exit"] == 0

    def names(span):
        yield span["name"]
        for child in span["children"]:
            yield from names(child)

    seen = list(names(trace["spans"]))
    assert seen.count("lie.nijenhuis") == 1
    assert seen.count("lie.integrability") == 1
