"""What an invocation loads and builds: the per-subcommand imports and the
one-subparser parser.

Each subcommand imports the library modules it uses when it runs, and the
parser is built with only the subparser that argv names.  The in-process
golden run cannot see a missing import once an earlier case has imported the
module, so the smoke cases here run in fresh processes.  The usage corpus
pins help text and argparse errors to the bytes the full parser prints.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from acx.cli import main

from test_golden import CASES, golden

USAGE_DIR = golden.GOLDEN_DIR / "usage"
SRC = str(golden.REPO_ROOT / "src")

COMMANDS = ("nijenhuis", "structure-eqs", "plurigenera", "irregularity", "hodge",
            "kodaira", "kunneth", "g2-verify", "s6-report", "rr")

# (name, argv, exit): the file usage/<name>.txt holds stdout when the exit
# code is 0 and stderr otherwise; the other stream is empty.  Recorded with
# COLUMNS=80 from the parser that built every subparser on every run.
USAGE_CASES = (
    [("help", ["--help"], 0), ("version", ["--version"], 0)]
    + [(f"help-{cmd}", [cmd, "--help"], 0) for cmd in COMMANDS]
    + [
        ("no-command", [], 2),
        ("unknown-command", ["bogus"], 2),
        ("hodge-missing-p-q", ["hodge", "--model", "kt"], 2),
        ("kodaira-missing-model", ["kodaira"], 2),
        ("rr-unrecognized-argument", ["rr", "--genus", "2", "--bogus"], 2),
        ("hodge-bad-int", ["hodge", "--model", "kt", "--p", "x", "--q", "0"], 2),
        ("rr-bad-format-choice", ["rr", "--genus", "2", "--format", "xml"], 2),
    ]
)
ARGPARSE_ERRORS = [case for case in USAGE_CASES if case[2] == 2]


def _kind(argv):
    if "--model" not in argv:
        return None
    spec = argv[argv.index("--model") + 1]
    return spec if spec in ("kt", "t4", "g2") else "file"


def _smoke_cases():
    """The first golden case of each subcommand and model kind that succeeds,
    every refusal, and the golden argparse error."""
    picked, seen = [], set()
    for case in CASES:
        key = (case["argv"][0], _kind(case["argv"]))
        if case["exit"] == 0 and key not in seen:
            seen.add(key)
            picked.append(case)
        elif case["exit"] == 1 or case["name"] == "input-hodge-missing-p":
            picked.append(case)
    return picked


SMOKE_CASES = _smoke_cases()


def fresh_process(args):
    """Run `python <args>` from the repository root in a new process."""
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    return subprocess.run(
        [sys.executable, *args], cwd=golden.REPO_ROOT, env=env,
        stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
    )


def test_smoke_cases_cover_every_subcommand_and_model_kind():
    kinds = {(case["argv"][0], _kind(case["argv"])) for case in SMOKE_CASES}
    assert {cmd for cmd, _ in kinds} == set(COMMANDS)
    assert {kind for _, kind in kinds} == {None, "kt", "t4", "g2", "file"}
    assert sum(case["exit"] == 1 for case in SMOKE_CASES) == sum(
        case["exit"] == 1 for case in CASES)


@pytest.mark.parametrize("case", SMOKE_CASES, ids=[c["name"] for c in SMOKE_CASES])
def test_golden_case_in_a_fresh_process(case):
    proc = fresh_process(["-m", "acx.cli", *case["argv"]])
    assert proc.returncode == case["exit"]
    assert proc.stdout == golden.out_path(case["name"]).read_bytes()


@pytest.mark.parametrize("name, argv, code", ARGPARSE_ERRORS,
                         ids=[case[0] for case in ARGPARSE_ERRORS])
def test_argparse_error_in_a_fresh_process(name, argv, code):
    proc = fresh_process(["-m", "acx.cli", *argv])
    assert proc.returncode == code
    assert proc.stdout == b""
    assert proc.stderr == (USAGE_DIR / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name, argv, code", USAGE_CASES,
                         ids=[case[0] for case in USAGE_CASES])
def test_usage_output_is_that_of_the_full_parser(monkeypatch, name, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == code
    pinned, empty = (out, err) if code == 0 else (err, out)
    assert pinned.getvalue() == (USAGE_DIR / f"{name}.txt").read_text()
    assert empty.getvalue() == ""


def test_usage_corpus_is_complete():
    recorded = {p.stem for p in USAGE_DIR.glob("*.txt")}
    assert recorded == {name for name, _, _ in USAGE_CASES}


_LOADED = """
import contextlib, io, json, sys
before = set(sys.modules)
from acx.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"exit": code, "loaded": sorted(set(sys.modules) - before)}))
"""


@pytest.mark.parametrize("argv, unused", [
    (["rr", "--genus", "2"],
     {"acx.g2", "acx.hodge", "acx.lie", "acx.models", "random"}),
    (["hodge", "--model", "tests/golden/models/heis6.json", "--p", "1", "--q", "0"],
     {"acx.g2", "random"}),
], ids=["rr", "hodge-file"])
def test_an_invocation_loads_only_what_it_uses(argv, unused):
    # modules the interpreter loaded at start-up are not counted
    proc = fresh_process(["-c", _LOADED, *argv])
    result = json.loads(proc.stdout)
    assert result["exit"] == 0
    assert "acx.cli" in result["loaded"]
    assert unused.isdisjoint(result["loaded"])


def test_every_export_resolves():
    # each export is imported on first access, so a stale _EXPORTS row shows
    # only when its name is used
    import acx

    assert [name for name in acx.__all__ if not hasattr(acx, name)] == []
