"""The golden output corpus: fixed acx invocations, their stdout and exit codes.

``cases.json`` lists each case as ``{"name", "argv", "exit"}``; the stdout of
case ``name`` is kept byte for byte in ``out/<name>.txt``.  Every case runs
in-process through ``acx.cli.main`` from the repository root (so model-file
paths, which ``--meta`` echoes, are repo-relative).  acx reads no environment
variable, so a case's output depends on its argv and the repository's files
only.  ``tests/test_golden.py`` compares each run with the recorded bytes.

Re-record only in a change that means to alter the output, and review the
diff of ``out/`` and ``cases.json`` before committing:

    python tests/golden/record.py

Run as a script, it imports acx from the checkout's ``src``, as pytest does
through ``pyproject.toml``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
REPO_ROOT = GOLDEN_DIR.parent.parent
CASES_FILE = GOLDEN_DIR / "cases.json"
OUT_DIR = GOLDEN_DIR / "out"


def load_cases():
    return json.loads(CASES_FILE.read_text(encoding="utf-8"))


def out_path(name: str) -> Path:
    return OUT_DIR / f"{name}.txt"


def run_case(argv):
    """Run `acx <argv>` in-process; returns (exit code, stdout bytes)."""
    from acx.cli import main

    saved_cwd = os.getcwd()
    stdout = io.StringIO()
    try:
        os.chdir(REPO_ROOT)
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(saved_cwd)
    return code, stdout.getvalue().encode("utf-8")


def record():
    cases = load_cases()
    OUT_DIR.mkdir(exist_ok=True)
    names = set()
    for case in cases:
        code, out = run_case(case["argv"])
        case["exit"] = code
        out_path(case["name"]).write_bytes(out)
        names.add(case["name"])
    for stale in OUT_DIR.glob("*.txt"):
        if stale.stem not in names:
            stale.unlink()
    lines = ",\n".join(
        "  " + json.dumps(case, ensure_ascii=False) for case in cases
    )
    CASES_FILE.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"recorded {len(cases)} cases", file=sys.stderr)


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    record()
