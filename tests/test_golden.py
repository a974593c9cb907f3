"""The golden output corpus: stdout bytes and exit code of fixed invocations.

The cases and their recorded outputs live under tests/golden/ (see
tests/golden/record.py, which also runs them).  Any difference is a change of
behaviour, never noise: every report is deterministic.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_record", Path(__file__).parent / "golden" / "record.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CASES = golden.load_cases()


def test_corpus_is_complete():
    names = [case["name"] for case in CASES]
    assert len(names) == len(set(names))
    recorded = {p.stem for p in golden.OUT_DIR.glob("*.txt")}
    assert recorded == set(names)
    assert {0, 1, 2} <= {case["exit"] for case in CASES}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_case(case):
    code, out = golden.run_case(case["argv"])
    assert code == case["exit"]
    assert out == golden.out_path(case["name"]).read_bytes()
