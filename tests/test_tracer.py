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


def _traced_span_names(tmp_path, acx_argv):
    """Run acx traced and untraced; return the traced span names after
    checking that both runs print the same bytes and succeed."""
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

    return list(names(trace["spans"]))


def test_traced_run_matches_untraced(tmp_path):
    seen = _traced_span_names(tmp_path, ["nijenhuis", "--model", "kt"])
    assert seen.count("lie.nijenhuis") == 1
    assert seen.count("lie.integrability") == 1


def test_traced_g2_verify_has_each_check_span(tmp_path):
    seen = _traced_span_names(
        tmp_path, ["g2-verify", "--samples", "2", "--negatives", "1"]
    )
    for span in ("g2.bracket_table", "g2.membership", "g2.projection"):
        assert seen.count(span) == 1, span
