"""What an invocation loads and parses, and how its process ends: the
per-subcommand imports, acx's own argv parser and the exit without
interpreter teardown.

Each subcommand imports the library modules it uses when it runs.
cli._parse reads every argv from the subcommand table and writes help and
usage errors itself, so no invocation imports argparse; a differential test
holds _parse to what argparse, built from the same table, reads.  The
in-process golden run cannot see a missing import once an earlier case has
imported the module, so the smoke cases here run in fresh processes.  The
usage corpus pins help text and usage errors byte for byte; they have one
layout, whatever the terminal width or the Python version.  A process ends
with os._exit once its output is flushed, which only a fresh process shows:
every exit code, the help paths, a failing stdout, an interrupt and an
attached profiler are run in one.
"""

import argparse
import ast
import contextlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

from acx import __version__
from acx.cli import _SUBCOMMANDS, _UsageError, _parse, main

from test_golden import CASES, golden

USAGE_DIR = golden.GOLDEN_DIR / "usage"
SRC = str(golden.REPO_ROOT / "src")

COMMANDS = ("nijenhuis", "structure-eqs", "plurigenera", "irregularity", "hodge",
            "kodaira", "kunneth", "g2-verify", "s6-report", "rr")

# (name, argv, exit): the file usage/<name>.txt holds stdout when the exit
# code is 0 and stderr otherwise; the other stream is empty.
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
        ("g2-verify-ambiguous-prefix", ["g2-verify", "--s", "3"], 2),
        ("rr-flag-given-a-value", ["rr", "--genus", "2", "--meta=yes"], 2),
    ]
)
USAGE_ERRORS = [case for case in USAGE_CASES if case[2] == 2]
HELP_AND_VERSION = [case for case in USAGE_CASES if case[2] == 0]


def usage_bytes(name):
    return (USAGE_DIR / f"{name}.txt").read_bytes()


def _kind(argv):
    if "--model" not in argv:
        return None
    spec = argv[argv.index("--model") + 1]
    return spec if spec in ("kt", "t4", "g2") else "file"


def _smoke_cases():
    """The first golden case of each subcommand and model kind that succeeds,
    every refusal, and the golden usage error."""
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


def fresh_process(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env):
    """Run `python <args>` from the repository root in a new process, with
    stdout block-buffered as a user has it unless args pass -u, and `env`
    added to the environment."""
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *args], cwd=golden.REPO_ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
        timeout=120,
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


@pytest.mark.parametrize("name, argv, code", USAGE_ERRORS,
                         ids=[case[0] for case in USAGE_ERRORS])
def test_argparse_error_in_a_fresh_process(name, argv, code):
    # the usage errors argparse refused, which acx now writes itself
    proc = fresh_process(["-m", "acx.cli", *argv])
    assert proc.returncode == code
    assert proc.stdout == b""
    assert proc.stderr == usage_bytes(name)


@pytest.mark.parametrize("name, argv, code", HELP_AND_VERSION,
                         ids=[case[0] for case in HELP_AND_VERSION])
def test_help_and_version_in_a_fresh_process(name, argv, code):
    # the text is written before main flushes stdout, and must still be out
    proc = fresh_process(["-m", "acx.cli", *argv])
    assert proc.returncode == code
    assert proc.stdout == usage_bytes(name)
    assert proc.stderr == b""


@pytest.mark.parametrize("name, argv, code", USAGE_CASES,
                         ids=[case[0] for case in USAGE_CASES])
def test_usage_output_is_that_of_the_full_parser(name, argv, code):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    pinned, empty = (out, err) if code == 0 else (err, out)
    assert pinned.getvalue() == usage_bytes(name).decode()
    assert empty.getvalue() == ""


def test_usage_corpus_is_complete():
    recorded = {p.stem for p in USAGE_DIR.glob("*.txt")}
    assert recorded == {name for name, _, _ in USAGE_CASES}
    assert [p.name for p in USAGE_DIR.iterdir() if p.suffix != ".txt"] == []


@pytest.mark.parametrize("argv", [["--help"], ["hodge", "--help"], ["hodge", "--model", "kt"]],
                         ids=["help", "help-hodge", "hodge-missing-p-q"])
def test_help_and_usage_text_do_not_depend_on_the_terminal_width(argv):
    narrow, wide = (fresh_process(["-m", "acx.cli", *argv], COLUMNS=columns)
                    for columns in ("40", "200"))
    assert (narrow.returncode, narrow.stdout, narrow.stderr) == (
        wide.returncode, wide.stdout, wide.stderr)
    assert max(map(len, (narrow.stdout + narrow.stderr).splitlines())) > 40


_LOADED = """
import contextlib, io, json, sys
before = set(sys.modules)
from acx.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"exit": code, "loaded": sorted(set(sys.modules) - before)}))
"""


# fractions imports decimal and numbers; only scalars._fraction imports
# fractions, for a non-integral Scalar.re or .im, which no invocation reads.
# No invocation loads argparse.
_FRACTIONS = {"fractions", "decimal", "numbers"}
_UNUSED = {"argparse", *_FRACTIONS}


@pytest.mark.parametrize("argv, used, unused", [
    (["rr", "--genus", "2"], set(),
     {"acx.g2", "acx.hodge", "acx.lie", "acx.models", "random", *_UNUSED}),
    (["--version"], set(), _UNUSED),
    (["g2-verify", "--seed", "1"], {"acx.g2"}, _UNUSED),
    (["s6-report"], {"acx.g2", "acx.hodge"}, _UNUSED),
    (["nijenhuis", "--model", "g2"], {"acx.g2", "acx.lie"}, _UNUSED),
    (["structure-eqs", "--model", "g2"], {"acx.g2"}, _UNUSED),
    (["plurigenera", "--model", "kt", "--a", "4*pi", "--m", "1..4"], {"acx.torus"},
     {"acx.g2", "acx.hodge", "random", *_UNUSED}),
    (["hodge", "--model", "tests/golden/models/heis6.json", "--p", "1", "--q", "0"],
     {"acx.models", "acx.hodge"}, {"acx.g2", "random", *_UNUSED}),
    (["plurigenera", "--model", "t4", "--t", "1/2,0"], {"acx.torus"},
     {"acx.g2", "acx.hodge", *_UNUSED}),
    (["kunneth", "--factors", "kt:generic,t4:zero"], {"acx.torus"},
     {"acx.g2", *_UNUSED}),
    (["kodaira", "--model", "kt", "--a", "4*pi,generic"], {"acx.torus"},
     {"acx.g2", *_UNUSED}),
], ids=["rr", "version", "g2-verify", "s6-report", "nijenhuis-g2", "structure-eqs-g2",
        "plurigenera-kt", "hodge-file", "plurigenera-t4", "kunneth-kt-t4", "kodaira-kt"])
def test_an_invocation_loads_only_what_it_uses(argv, used, unused):
    # modules the interpreter loaded at start-up are not counted
    proc = fresh_process(["-c", _LOADED, *argv])
    result = json.loads(proc.stdout)
    assert result["exit"] == 0
    assert {"acx.cli", *used} <= set(result["loaded"])
    assert unused.isdisjoint(result["loaded"])


_USAGE_RUN = """
import contextlib, io, json, sys
before = set(sys.modules)
from acx.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"exit": codes, "loaded": sorted(set(sys.modules) - before)}))
"""


def test_no_help_or_usage_error_loads_argparse():
    # every usage case in turn in one fresh process: help, each subcommand's
    # help and every usage error are written without argparse
    proc = fresh_process(["-c", _USAGE_RUN, json.dumps([argv for _, argv, _ in USAGE_CASES])])
    result = json.loads(proc.stdout)
    assert result["exit"] == [code for _, _, code in USAGE_CASES]
    assert "argparse" not in result["loaded"] and "acx.torus" not in result["loaded"]


_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", golden.REPO_ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _mutants(argv, rng):
    """Seeded mutations of argv around the shape _parse takes: help, --, a
    stray or dash-led token, a bad --format choice, a repeated store_true
    flag, and at one flag an abbreviation, --flag=value, a missing value, a
    dropped flag, a repeat, and -x, -4*pi or x as its value."""
    head, rest = argv[:1], argv[1:]
    k = rng.randrange(len(rest) + 1)
    out = [head + rest[:k] + [token] + rest[k:] for token in ("-h", "--", "stray", "-x", "-4*pi")]
    out += [argv + ["--format", "xml"], argv + ["--meta", "--meta"]]
    flags = [k for k, token in enumerate(rest) if token.startswith("--")]
    if not flags:
        return out
    k = rng.choice(flags)
    flag, before, after = rest[k], head + rest[:k], rest[k + 1:]
    if len(flag) > 3:
        out.append(before + [flag[:rng.randrange(3, len(flag))]] + after)
    out.append(before + [flag, rng.choice(["1", "table", "2*pi"])] + rest[k:])
    if after and not after[0].startswith("--"):
        value, after = after[0], after[1:]
        out += [before + [f"{flag}={value}"] + after, before + [flag] + after, before + after]
        out += [before + [flag, token] + after for token in ("-x", "-4*pi", "x")]
    return out


# argv shapes the parser must read as argparse does, beside the mutants:
# prefixes, --flag=value, -h in argv order, dash-digit values, repeats,
# --version before and after the subcommand, and --
PARSER_CASES = [
    ["rr", "--gen", "2"], ["rr", "--genus=2", "--m=1..3"], ["--vers"], ["--he"],
    ["g2-verify", "--sa", "3", "--se=4"], ["rr", "--genus", "2", "--meta=1"],
    ["rr", "--genus", "x", "-h"], ["rr", "-h", "--genus", "x"], ["g2-verify", "-h", "--s", "3"],
    ["hodge", "--model", "kt", "--a", "-4*pi", "--p", "-1", "--q", "0"],
    ["rr", "--genus", "2", "--genus", "3", "--m", "1", "--m", "2"],
    ["-x", "--version", "rr"], ["-x", "rr", "-h"], ["-x", "rr", "--genus", "2"],
    ["rr", "--genus", "2", "--version"],
    ["--", "rr", "--genus", "2"], ["rr", "--genus", "2", "--"], ["rr", "--genus", "--", "2"],
    ["rr", "--genus", "2", "-hx"], ["hodge", "--model", "kt", "--p", "1", "--q", "1", "--m"],
]

# argv on which argparse releases disagree, with the outcome of Python
# 3.11.7's argparse, which acx keeps (3.10.13 and 3.12.1 agree with it):
# 3.13.13 reads `-- rr ...` as rr and prints help for -h before an ambiguous
# prefix, and 3.13.0 and 3.13.13 print help for -hx
VERSION_DEPENDENT = {
    ("--", "rr", "--genus", "2"): 2,
    ("g2-verify", "-h", "--s", "3"): 2,
    ("rr", "--genus", "2", "-hx"): 2,
}


def reference_parser():
    """argparse's parser of every subcommand, built from the subcommand
    table: the reference of the differential test.  An argument that starts
    with - and a digit is a value (-4*pi), as acx reads it."""
    class Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = re.compile(r"-\d")

    parser = Parser(prog="acx")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, groups, own, _ in _SUBCOMMANDS:
        command = sub.add_parser(name, help=help_text)
        for group in groups + (own,):
            for flag, kwargs in group:
                command.add_argument(flag, **kwargs)
    return parser


def argparse_outcome(parser, argv):
    """vars() of argparse's namespace for argv; else "help" or "version" and
    exit 0, or exit 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code if exc.code else "help" if out.getvalue()[:6] == "usage:" else "version"


def acx_outcome(argv):
    """vars() of _parse's namespace for argv, or the same outcome names."""
    try:
        args = _parse(argv)
    except _UsageError:
        return 2
    if isinstance(args, str):
        return "help" if args[:6] == "usage:" else "version"
    return vars(args)


def differential_corpus():
    """Every golden, usage and benchmark argv, seeded mutations of them, and
    the parser cases."""
    corpus = [case["argv"] for case in CASES] + [argv for _, argv, _ in USAGE_CASES]
    for build, templates in workloads.WORKLOADS.values():
        corpus += build(0, {template: f"{template}.json" for template in templates})
    rng = random.Random(40)
    return corpus + [mutant for argv in corpus for mutant in _mutants(argv, rng)] + PARSER_CASES


def test_parse_reads_argv_as_the_full_parser_does():
    # acx and argparse built from the same table read every argv of the
    # corpus alike: the same namespace, help or the version, or exit 2
    parser = reference_parser()
    outcomes = {}
    for argv in differential_corpus():
        want = VERSION_DEPENDENT.get(tuple(argv)) or argparse_outcome(parser, argv)
        outcomes[tuple(argv)] = got = acx_outcome(argv)
        assert got == want, argv
    assert {"namespace" if isinstance(o, dict) else o for o in outcomes.values()} == {
        "namespace", "help", "version", 2}
    assert set(VERSION_DEPENDENT) <= set(outcomes)


_SMOKE_RUN = """
import contextlib, io, json, sys
from acx.cli import main
for argv, code in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code, argv
print(json.dumps(sorted(set(sys.modules) & set(json.loads(sys.argv[2])))))
"""


def test_no_smoke_case_builds_a_fraction():
    # every smoke case in turn in one process: no literal, kt or t4 path and
    # no report builds a Fraction, so fractions is never loaded
    cases = [[case["argv"], case["exit"]] for case in SMOKE_CASES]
    proc = fresh_process(["-c", _SMOKE_RUN, json.dumps(cases), json.dumps(sorted(_FRACTIONS))])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("value", ["Scalar(0, 1) / 2", "SymScalar.const(Scalar(1) / 3)"])
def test_hashing_a_scalar_builds_no_fraction(value):
    # a Scalar hashes as the Fractions it equals, computed from its ints
    code = (f"import sys; from acx.scalars import Scalar, SymScalar; hash({value}); "
            "print(sorted(m for m in sys.modules if m in ('fractions', 'decimal')))")
    proc = fresh_process(["-c", code])
    assert proc.returncode == 0 and proc.stdout == b"[]\n", proc.stderr


def test_every_export_resolves():
    # each export is imported on first access, so a stale _EXPORTS row shows
    # only when its name is used
    import acx

    assert [name for name in acx.__all__ if not hasattr(acx, name)] == []


# Runs acx.cli as __main__, as `python -m acx.cli` does, after a patch.
_PATCHED_RUN = """
import runpy
{patch}
runpy.run_module("acx.cli", run_name="__main__", alter_sys=True)
"""

# each block asks for ker dbar intersect ker dbar* first: that answer loses a
# vector, fails the certificate, and the Laplacian's elimination finds the
# disagreement (TestCrossChecksFail in test_hodge.py)
_TAMPER_BOTH_KERNEL = """
from acx import hodge
real, calls = hodge.kernel_basis, []
def fake(rows, ncols=None):
    basis = real(rows, ncols=ncols)
    calls.append(rows)
    return basis[:-1] if len(calls) == 1 else basis
hodge.kernel_basis = fake
"""

_INTERRUPT = """
from acx import torus
def interrupted(*args):
    raise KeyboardInterrupt
torus.rr_plurigenus = interrupted
"""


def test_failed_internal_check_in_a_fresh_process():
    proc = fresh_process(["-c", _PATCHED_RUN.format(patch=_TAMPER_BOTH_KERNEL),
                          "hodge", "--model", "kt", "--a", "generic", "--p", "1", "--q", "1"])
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"internal check failed: harmonic kernels: ")
    assert proc.stderr.count(b"\n") == 1


def test_interrupt_in_a_fresh_process():
    proc = fresh_process(["-c", _PATCHED_RUN.format(patch=_INTERRUPT), "rr", "--genus", "2"])
    assert proc.returncode == -2  # ended by SIGINT, as an uncaught interrupt ends Python
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"Traceback (most recent call last):\n")
    assert proc.stderr.endswith(b"\nKeyboardInterrupt\n")


# 20 kB of report, more than a stdout buffer holds, so the write inside run
# fails whether stdout is buffered or not; the small report, the version and
# the help text fit the buffer, so when stdout is buffered only main's flush
# writes them, and unbuffered, run's own write fails
_LARGE_REPORT = ["plurigenera", "--model", "kt", "--a", "pi", "--m", "1..1000"]
_SMALL_REPORT = ["rr", "--genus", "2"]
_REPORTS = [
    pytest.param(unbuffered, report, id=prefix + mode)
    for prefix, report in (("", _LARGE_REPORT), ("small-", _SMALL_REPORT),
                           ("version-", ["--version"]), ("help-rr-", ["rr", "--help"]))
    for mode, unbuffered in (("buffered", []), ("unbuffered", ["-u"]))
]


@pytest.mark.parametrize("unbuffered, report", _REPORTS)
def test_closed_stdout_pipe_is_an_internal_error(unbuffered, report):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = fresh_process([*unbuffered, "-m", "acx.cli", *report], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == b"internal error: BrokenPipeError: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered, report", _REPORTS)
def test_full_device_stdout_is_an_internal_error(unbuffered, report):
    with open("/dev/full", "wb") as full:
        proc = fresh_process([*unbuffered, "-m", "acx.cli", *report], stdout=full)
    assert proc.returncode == 3
    assert proc.stderr == b"internal error: OSError: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, code", [(["bogus"], 2), (["rr", "--genus", "1"], 2)],
                         ids=["usage-error", "input-error"])
def test_full_device_stderr_keeps_the_exit_code_in_the_taxonomy(argv, code):
    # a usage error's or an input error's message is lost, and the code is
    # all that is left of it
    with open("/dev/full", "wb") as full:
        proc = fresh_process(["-m", "acx.cli", *argv], stderr=full)
    assert proc.returncode == code
    assert proc.stdout == b""


# a process started with descriptor 1 closed has sys.stdout None
_CLOSE_STDOUT = "import os, sys; os.close(1); os.execv(sys.executable, sys.argv[1:])"


def test_closed_stdout_is_an_internal_error():
    proc = fresh_process(["-c", _CLOSE_STDOUT, sys.executable, "-m", "acx.cli",
                          "rr", "--genus", "2"])
    assert proc.returncode == 3
    assert proc.stderr == (
        b"internal error: AttributeError: 'NoneType' object has no attribute 'write'\n")


def test_usage_error_with_closed_stdout_keeps_its_exit_code():
    # the usage error is written to stderr, and there is no stdout to flush
    proc = fresh_process(["-c", _CLOSE_STDOUT, sys.executable, "-m", "acx.cli", "bogus"])
    assert proc.returncode == 2
    assert proc.stderr == usage_bytes("unknown-command")


def test_version_with_closed_stdout_is_written_to_stderr():
    # help and the version go to stderr when there is no stdout
    proc = fresh_process(["-c", _CLOSE_STDOUT, sys.executable, "-m", "acx.cli", "--version"])
    assert proc.returncode == 0
    assert proc.stderr == usage_bytes("version")


# a process started with descriptor 2 closed has sys.stderr None
_CLOSE_STDERR = "import os, sys; os.close(2); os.execv(sys.executable, sys.argv[1:])"


@pytest.mark.parametrize("name, argv, code", USAGE_CASES,
                         ids=[case[0] for case in USAGE_CASES])
def test_usage_with_closed_stderr(name, argv, code):
    # a usage error exits 2 with nothing written, as an input error does,
    # and help and version text still goes to stdout
    proc = fresh_process(["-c", _CLOSE_STDERR, sys.executable, "-m", "acx.cli", *argv])
    assert proc.returncode == code
    assert proc.stdout == (usage_bytes(name) if code == 0 else b"")


def test_input_error_with_closed_stderr_exits_2():
    proc = fresh_process(["-c", _CLOSE_STDERR, sys.executable, "-m", "acx.cli",
                          "rr", "--genus", "1"])
    assert proc.returncode == 2
    assert proc.stdout == b""


def test_profiler_reports_in_a_fresh_process():
    proc = fresh_process(["-m", "cProfile", "-s", "tottime", "-m", "acx.cli",
                          "rr", "--genus", "2"])
    assert proc.returncode == 0
    assert b"function calls" in proc.stdout


def test_acx_script_is_the_main_block_entry():
    text = (golden.REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S)
    script = re.search(r'^acx = "acx\.cli:(\w+)"$', scripts.group(1), re.M)
    tree = ast.parse((golden.REPO_ROOT / "src" / "acx" / "cli.py").read_text("utf-8"))
    block = [node for node in tree.body if isinstance(node, ast.If)
             and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in block[0].body] == [f"{script.group(1)}()"]
