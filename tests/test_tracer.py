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


def _traced(tmp_path, acx_argv):
    """Run acx traced and untraced; return the trace after checking that
    both runs print the same bytes and succeed, with one handler span."""
    trace_path = tmp_path / "trace.json"
    traced = _run(["perfbench/tracer.py", str(trace_path), "--", *acx_argv])
    plain = _run(["-m", "acx.cli", *acx_argv])
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0
    assert traced.stdout == plain.stdout
    trace = json.loads(trace_path.read_text())
    assert trace["exit"] == 0
    # the tracer wraps the entries of cli._HANDLERS; run dispatches through them
    assert list(_span_names(trace["spans"])).count("cli.handler") == 1
    return trace


def _span_names(span):
    yield span["name"]
    for child in span["children"]:
        yield from _span_names(child)


def test_traced_run_matches_untraced(tmp_path):
    seen = list(_span_names(_traced(tmp_path, ["nijenhuis", "--model", "kt"])["spans"]))
    assert seen.count("lie.nijenhuis") == 1
    assert seen.count("lie.integrability") == 1


def test_traced_g2_verify_has_each_check_span(tmp_path):
    trace = _traced(tmp_path, ["g2-verify", "--samples", "2", "--negatives", "1"])
    seen = list(_span_names(trace["spans"]))
    for span in ("g2.bracket_table", "g2.membership", "g2.projection"):
        assert seen.count(span) == 1, span


def test_traced_model_file_hodge_counts_the_forms_layer(tmp_path):
    trace = _traced(tmp_path, [
        "hodge", "--model", "tests/golden/models/heis6.json", "--p", "1", "--q", "1",
    ])
    assert list(_span_names(trace["spans"])).count("hodge.harmonic") == 1
    for name in ("forms.wedge", "hodge.operator_matrix"):
        assert trace["aggregates"][name]["calls"] > 0, name
