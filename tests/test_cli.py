"""Command-line interface: reports, exit codes, and byte determinism."""

import ast
import contextlib
import inspect
import io
import json
import os
import sys

import pytest

from acx import __version__, cli
from acx.cli import main, run
from acx.errors import InputError, RefusalError, echo
from acx.forms import Form


KT_FILE_OBJ = {
    "dim": 4,
    "brackets": [{"i": 2, "j": 3, "out": [[4, "1", "0"]]}],
    "J": [
        ["0", "-1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "0", "-a"],
        ["0", "0", "1/a", "0"],
    ],
    "params": {"a": "4*pi"},
}


def capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


def capture_json(argv):
    code, text = capture(argv)
    return code, json.loads(text)


class TestPlurigenera:
    def test_parameter_jump_table(self):
        code, report = capture_json(
            ["plurigenera", "--model", "kt", "--a", "39/10*pi,4*pi,41/10*pi",
             "--m", "1"]
        )
        assert code == 0
        assert [row["values"][0] for row in report["rows"]] == [0, 1, 0]

    def test_closed_form_table_with_cross_check(self):
        code, report = capture_json(
            ["plurigenera", "--model", "kt", "--a", "4*pi,2*pi", "--m", "1..8",
             "--cross-check"]
        )
        assert code == 0
        by_a = {row["a"]: row for row in report["rows"]}
        assert by_a["4*pi"]["values"] == [1] * 8
        assert by_a["2*pi"]["values"] == [0, 1] * 4
        assert by_a["4*pi"]["first_nonzero"] == 1
        assert by_a["2*pi"]["first_nonzero"] == 2

    def test_cross_check_window_is_a_constant(self, monkeypatch):
        # the window was once read from ACX_MODE_WINDOW; no value of it changes a run
        argv = ["plurigenera", "--model", "kt", "--a", "2*pi", "--m", "1..4", "--cross-check"]
        monkeypatch.delenv("ACX_MODE_WINDOW", raising=False)
        want = capture(argv)
        for value in ("0", "8", "257", "huge"):
            monkeypatch.setenv("ACX_MODE_WINDOW", value)
            assert capture(argv) == want
        code, text = want
        report = json.loads(text)
        assert code == 0 and report["rows"][0]["values"] == [0, 1, 0, 1]
        assert report["cross_check"] == {"window": 32, "agreed": True}

    def test_t4_members(self):
        code, report = capture_json(
            ["plurigenera", "--model", "t4", "--m", "1..4"]
        )
        assert code == 0
        assert report["member"] == "standard"
        assert report["values"] == [0, 0, 0, 0]
        assert "pi^2" in report["obstruction"]
        code, report = capture_json(
            ["plurigenera", "--model", "t4", "--t", "0,0", "--m", "1..4"]
        )
        assert code == 0
        assert report["member"] == "t=(0,0)"
        assert report["values"] == [1, 1, 1, 1]
        assert report["obstruction"] == "0"

    @pytest.mark.parametrize("t_args", [[], ["--t", "0,0"]])
    def test_t4_plurigenera_solves_the_obstruction_twice_at_any_m(self, monkeypatch, t_args):
        # once for the plurigenus, which is the same at every level, and once
        # for the printed obstruction
        from acx import torus

        solves = []
        obstruction = torus.t4_obstruction
        monkeypatch.setattr(
            torus, "t4_obstruction", lambda a, b: solves.append(1) or obstruction(a, b)
        )
        code, report = capture_json(
            ["plurigenera", "--model", "t4", "--m", "1..50"] + t_args
        )
        assert code == 0 and len(solves) == 2
        assert report["values"] == [0 if not t_args else 1] * 50

    def test_m_spec_forms(self):
        code, report = capture_json(
            ["plurigenera", "--model", "kt", "--a", "pi", "--m", "2,4,8"]
        )
        assert code == 0
        assert report["levels"] == [2, 4, 8]
        with pytest.raises(InputError):
            capture(["plurigenera", "--model", "kt", "--a", "pi", "--m", "0"])


class TestModelRouting:
    def test_file_model_matches_preset(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(KT_FILE_OBJ))
        code, report = capture_json(
            ["plurigenera", "--model", str(path), "--m", "1..4"]
        )
        assert code == 0
        assert report["a"] == "4*pi"
        assert report["values"] == [1, 1, 1, 1]

    def test_abelian_file_hodge(self, tmp_path):
        obj = {
            "dim": 4,
            "brackets": [],
            "J": [
                ["0", "-1", "0", "0"],
                ["1", "0", "0", "0"],
                ["0", "0", "0", "-1"],
                ["0", "0", "1", "0"],
            ],
        }
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(obj))
        code, report = capture_json(
            ["hodge", "--model", str(path), "--p", "1", "--q", "1"]
        )
        assert code == 0
        assert report["dimension"] == 4

    def test_conflicting_parameters_are_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(KT_FILE_OBJ))
        with pytest.raises(InputError):
            capture(["nijenhuis", "--model", str(path), "--a", "pi"])


# A model file without params.
ABELIAN_FILE_OBJ = {
    "dim": 4,
    "brackets": [],
    "J": [
        ["0", "-1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "0", "-1"],
        ["0", "0", "1", "0"],
    ],
}

# Every subcommand that takes --model, with the options it needs besides.
MODEL_COMMANDS = {
    "nijenhuis": [],
    "structure-eqs": [],
    "plurigenera": ["--m", "1..2"],
    "irregularity": [],
    "hodge": ["--p", "0", "--q", "0"],
    "kodaira": ["--length", "4"],
}
FRAME_COMMANDS = ("nijenhuis", "structure-eqs", "hodge")
PROFILE_COMMANDS = ("plurigenera", "irregularity", "kodaira")

_A_ON_PRESET = "--a does not apply to the {} preset"
_A_ON_KT_FILE = "--a must be one value, the file's params.a (4*pi)"
_A_ON_PLAIN_FILE = "--a does not apply to a model file without params.a"
_T_OFF_T4 = "--t applies to the t4 preset only"
_CROSS_CHECK_OFF_KT = "--cross-check applies to the kt preset only"

# (subcommand, --model and option arguments, message); KT_FILE and
# PLAIN_FILE stand for a model file with and without params.a.
OPTION_RULE_CASES = (
    [(cmd, ["t4", "--a", "pi"], _A_ON_PRESET.format("t4")) for cmd in MODEL_COMMANDS]
    + [(cmd, ["g2", "--a", "pi"], _A_ON_PRESET.format("g2")) for cmd in MODEL_COMMANDS]
    + [(cmd, ["KT_FILE", "--a", "pi"], _A_ON_KT_FILE) for cmd in MODEL_COMMANDS]
    + [(cmd, ["KT_FILE", "--a", "4*pi,4*pi"], _A_ON_KT_FILE) for cmd in MODEL_COMMANDS]
    + [(cmd, ["PLAIN_FILE", "--a", "4*pi"], _A_ON_PLAIN_FILE) for cmd in MODEL_COMMANDS]
    + [(cmd, ["kt", "--a", "pi", "--t", "0,0"], _T_OFF_T4) for cmd in PROFILE_COMMANDS]
    + [(cmd, ["g2", "--t", "0,0"], _T_OFF_T4) for cmd in PROFILE_COMMANDS]
    + [(cmd, ["KT_FILE", "--t", "0,0"], _T_OFF_T4) for cmd in PROFILE_COMMANDS]
    + [(cmd, ["PLAIN_FILE", "--t", "0,0"], _T_OFF_T4) for cmd in PROFILE_COMMANDS]
    + [(cmd, ["kt", "--a", "4*pi,2*pi"], "this subcommand takes a single --a value")
       for cmd in FRAME_COMMANDS]
    + [(cmd, ["kt"], "the kt preset needs --a (e.g. --a 4*pi,generic)")
       for cmd in PROFILE_COMMANDS]
    + [("plurigenera", [model, "--cross-check"], _CROSS_CHECK_OFF_KT)
       for model in ("t4", "g2", "KT_FILE")]
)


class TestOptionRule:
    """--t applies to t4 only and --a to kt and model files only, where it
    must be one value equal to params.a, and plurigenera's --cross-check to
    kt only; every subcommand that takes --model rejects any other use with
    exit 2, before any work."""

    @staticmethod
    def model_files(tmp_path):
        files = {"KT_FILE": KT_FILE_OBJ, "PLAIN_FILE": ABELIAN_FILE_OBJ}
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        return {name: str(tmp_path / f"{name}.json") for name in files}

    @staticmethod
    def argv(cmd, model_args, files):
        model_args = [files.get(x, x) for x in model_args]
        return [cmd, "--model"] + model_args + MODEL_COMMANDS[cmd]

    @pytest.mark.parametrize(
        "cmd, model_args, message", OPTION_RULE_CASES,
        ids=[f"{cmd}-{'-'.join(args)}" for cmd, args, _ in OPTION_RULE_CASES],
    )
    def test_rejected_before_any_work(self, tmp_path, monkeypatch, capsys,
                                      cmd, model_args, message):
        from acx import g2, hodge, lie, models, torus

        def boom(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        # loading a model file resolves its params.a, which --a is checked
        # against, so the loader keeps the kt_model it builds a kt file with
        kt_model, load_model_file = models.kt_model, models.load_model_file

        def load(path):
            with monkeypatch.context() as loading:
                loading.setattr(models, "kt_model", kt_model)
                return load_model_file(path)

        monkeypatch.setattr(models, "load_model_file", load)
        for module, name in ((hodge, "invariant_harmonic_space"), (lie, "nijenhuis"),
                             (models, "kt_model"), (torus, "kt_plurigenus"),
                             (torus, "kt_irregularity"), (torus, "kt_profile"),
                             (torus, "t4_plurigenus"), (torus, "t4_irregularity"),
                             (torus, "t4_profile")):
            monkeypatch.setattr(module, name, boom)
        monkeypatch.setattr(g2, "s6_plurigenus", boom)
        monkeypatch.setattr(g2, "s6_model", boom)
        assert main(self.argv(cmd, model_args, self.model_files(tmp_path))) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize("cmd", sorted(MODEL_COMMANDS))
    def test_a_equal_to_the_files_params_a_is_accepted(self, tmp_path, cmd):
        files = self.model_files(tmp_path)
        code, with_a = capture(self.argv(cmd, ["KT_FILE", "--a", "4*pi"], files))
        assert code == 0 and json.loads(with_a)["a"] == "4*pi"
        assert capture(self.argv(cmd, ["KT_FILE"], files)) == (0, with_a)

    def test_each_subcommand_loads_a_model_file_once(self, tmp_path, monkeypatch):
        from acx import models

        loads, original = [], models.load_model_file

        def counting(path):
            loads.append(path)
            return original(path)

        monkeypatch.setattr(models, "load_model_file", counting)
        files = self.model_files(tmp_path)
        for cmd in MODEL_COMMANDS:
            loads.clear()
            assert capture(self.argv(cmd, ["KT_FILE"], files))[0] == 0
            assert loads == [files["KT_FILE"]], cmd


class TestStructureCommands:
    def test_nijenhuis_kt(self):
        code, report = capture_json(
            ["nijenhuis", "--model", "kt", "--a", "generic"]
        )
        assert code == 0
        assert report["integrable"] is False
        assert report["entries"]

    def test_structure_eqs_kt(self):
        code, report = capture_json(
            ["structure-eqs", "--model", "kt", "--a", "4*pi"]
        )
        assert code == 0
        rows = {row["i"]: row for row in report["coframe"]}
        assert rows[1]["d"] == "0"
        assert "phibar1^phibar2" in rows[2]["part_02"]
        assert report["integrable"] is False

    def test_t4_frame_commands_refuse(self):
        for sub in ("nijenhuis", "structure-eqs"):
            with pytest.raises(RefusalError):
                capture([sub, "--model", "t4"])
        with pytest.raises(RefusalError):
            capture(["hodge", "--model", "t4", "--p", "0", "--q", "0"])


class TestHodgeAndIrregularity:
    def test_kt_irregularity(self):
        code, report = capture_json(
            ["irregularity", "--model", "kt", "--a", "4*pi,generic"]
        )
        assert code == 0
        assert [row["value"] for row in report["rows"]] == [1, 1]

    def test_t4_irregularity(self):
        code, report = capture_json(["irregularity", "--model", "t4"])
        assert code == 0
        assert report["value"] == 1
        code, report = capture_json(
            ["irregularity", "--model", "t4", "--t", "0,0"]
        )
        assert code == 0
        assert report["value"] == 2
        # a value that starts with - and a digit is read as a value
        for argv in (["--t=-1,0"], ["--t", "-1,0"]):
            code, report = capture_json(["irregularity", "--model", "t4", *argv])
            assert code == 0
            assert (report["member"], report["value"]) == ("t=(-1,0)", 1)

    @pytest.mark.parametrize("spaced, joined", [
        (["plurigenera", "--model", "kt", "--a", "-4*pi", "--m", "1..2"],
         ["plurigenera", "--model", "kt", "--a=-4*pi", "--m", "1..2"]),
        (["irregularity", "--model", "t4", "--t", "-1,0"],
         ["irregularity", "--model", "t4", "--t=-1,0"]),
    ], ids=["a", "t"])
    def test_a_negative_value_needs_no_equals_sign(self, capsys, spaced, joined):
        assert main(joined) == 0
        want = capsys.readouterr()
        assert main(spaced) == 0
        assert capsys.readouterr() == want and want.err == ""

    def test_hodge_blocks(self):
        code, report = capture_json(
            ["hodge", "--model", "kt", "--a", "4*pi", "--p", "0", "--q", "0",
             "--power", "1"]
        )
        assert code == 0
        assert report["dimension"] == 1
        assert sum(b["dimension"] for b in report["blocks"]) == 1
        assert len(report["blocks"]) == 3

    @pytest.mark.parametrize("p", range(4))
    def test_g2_refuses_q_at_least_one(self, capsys, p):
        # Serre duality would pair (3,3) and (0,3) with (0,0) and (3,0), which
        # are 1: the sphere's dbar* at q >= 1 needs the quotient's own star
        for q in (1, 2, 3):
            assert main(["hodge", "--model", "g2", "--p", str(p), "--q", str(q)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("refused: hodge on s6 computes (p,0) only")

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_g2_power_at_00_is_the_plurigenus(self, m):
        from acx import g2

        code, report = capture_json(
            ["hodge", "--model", "g2", "--p", "0", "--q", "0", "--power", str(m)]
        )
        assert code == 0
        assert report["dimension"] == g2.s6_plurigenus(m) == 1


class TestProfiles:
    def test_kodaira_kt(self):
        code, report = capture_json(["kodaira", "--model", "kt", "--a", "4*pi"])
        assert code == 0
        assert report["rows"][0]["kappa"] == 0
        code, report = capture_json(
            ["kodaira", "--model", "kt", "--a", "generic"]
        )
        assert code == 0
        assert report["rows"][0]["kappa"] == "-inf"
        assert report["rows"][0]["kind"] == "all-zero"

    def test_kodaira_kt_bounded_with_a_degree_two_tail(self):
        code, report = capture_json(
            ["kodaira", "--model", "kt", "--a", "4/3*pi", "--length", "6"]
        )
        assert code == 0
        assert report["rows"][0]["values"] == [0, 0, 1, 0, 0, 1]
        assert report["rows"][0]["kappa"] == 0

    def test_kunneth_additivity(self):
        code, report = capture_json(
            ["kunneth", "--factors", "curve:2,curve:2,rr:2", "--length", "12"]
        )
        assert code == 0
        assert report["product"]["kappa"] == 3
        assert report["kappa_additive"] is True
        assert report["product"]["values"][1] == 27

    def test_kunneth_needs_two_factors(self):
        with pytest.raises(InputError):
            capture(["kunneth", "--factors", "torus"])

    @pytest.mark.parametrize("factor, family", [
        ("kt:4*pi", ["--model", "kt", "--a", "4*pi"]),
        ("t4:std", ["--model", "t4"]),
        ("t4:zero", ["--model", "t4", "--t", "0,0"]),
        ("s6", ["--model", "g2"]),
    ])
    def test_kunneth_factor_is_the_kodaira_report(self, factor, family):
        # both go through one profile builder, so they agree field by field
        code, product = capture_json(["kunneth", "--factors", f"{factor},torus",
                                      "--length", "8"])
        assert code == 0
        code, kodaira = capture_json(["kodaira", *family, "--length", "8"])
        assert code == 0
        row = kodaira["rows"][0] if "rows" in kodaira else kodaira
        fields = ("values", "kind", "degree", "kappa")
        assert {k: product["factors"][0][k] for k in fields} == {k: row[k] for k in fields}


class TestSevenDimensional:
    def test_g2_verify_small_sample(self):
        code, report = capture_json(
            ["g2-verify", "--samples", "2", "--negatives", "1"]
        )
        assert code == 0
        assert report["bracket_table"]["checked"] == 76
        assert report["bracket_table"]["ok"] is True
        assert report["cross_product"]["ok"] is True
        assert report["membership"]["members_checked"] == 2
        assert report["projection"]["ok"] is True
        assert report["ok"] is True

    def test_s6_report_minimum_levels(self):
        code, report = capture_json(["s6-report", "--levels", "4"])
        assert code == 0
        assert report["census"]["plurigenera"] == [1, 1, 1, 1]
        assert report["census"]["kodaira_dimension"] == 0
        assert report["structure"]["ok"] is True
        assert report["reduction_brackets"]["mismatches"] == ["[Xb2,Xb7]"]
        assert report["ok"] is True


class TestRiemannRoch:
    def test_exact_counts(self):
        code, report = capture_json(["rr", "--genus", "2", "--m", "1..4"])
        assert code == 0
        assert report["values"] == [[1, 2], 3, 5, 7]
        assert report["kappa"] == 1

    def test_genus_gate(self):
        with pytest.raises(InputError):
            capture(["rr", "--genus", "1", "--m", "1..4"])


class TestRendering:
    def test_reports_are_byte_deterministic(self):
        argv = ["plurigenera", "--model", "kt", "--a", "4*pi,pi", "--m",
                "1..12"]
        _, first = capture(argv)
        _, second = capture(argv)
        assert first == second

    def test_meta_block(self):
        argv = ["irregularity", "--model", "t4", "--meta"]
        code, report = capture_json(argv)
        assert code == 0
        assert report["meta"]["tool"] == "acx"
        assert report["meta"]["version"] == __version__
        assert report["meta"]["subcommand"] == "irregularity"
        assert report["meta"]["argv"] == argv

    def test_table_format(self):
        code, text = capture(
            ["rr", "--genus", "3", "--m", "2", "--format", "table"]
        )
        assert code == 0
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        table = {ln[0]: ln[-1] for ln in lines}
        assert table["kappa"] == "1"
        assert table["values"] == "6"


class TestMainExitCodes:
    def test_success(self, capsys):
        assert main(["rr", "--genus", "2", "--m", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["values"] == [3]

    def test_refusal_exit_one(self, capsys):
        assert main(["nijenhuis", "--model", "t4"]) == 1
        assert "refused:" in capsys.readouterr().err

    def test_input_error_exit_two(self, capsys):
        assert main(["rr", "--genus", "1", "--m", "2"]) == 2
        assert "input error:" in capsys.readouterr().err

    def test_bad_model_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        for content, reason in [
            (b"{not json", "Expecting property name"),
            (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
            # Python 3.10 words it "Exceeds the limit (4300) for ...", 3.11 and
            # later "Exceeds the limit (4300 digits) for ..."
            (b'{"dim": ' + b"9" * 5000 + b', "J": []}', "for integer string conversion"),
            (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        ]:
            bad.write_bytes(content)
            assert main(["nijenhuis", "--model", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"input error: model file {echo(str(bad))} is not valid JSON: ")
            assert reason in err

    def test_bad_json_at_a_long_path_is_not_echoed_whole(self, tmp_path, capsys):
        folder = tmp_path
        for letter in "abcdefghijklmn":
            folder = folder / (letter * 200)
        folder.mkdir(parents=True)
        bad = folder / "broken.json"
        bad.write_bytes(b"{not json")
        assert len(str(bad)) > 2800
        assert main(["nijenhuis", "--model", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: model file {echo(str(bad))} is not valid JSON: ")
        assert len(err.encode()) < 200

    def test_unreadable_model_file_names_its_path_once(self, capsys):
        assert main(["nijenhuis", "--model", "no/such.json"]) == 2
        assert capsys.readouterr().err == (
            "input error: cannot read model file 'no/such.json': No such file or directory\n")

    def test_failed_cross_check_exit_three(self, monkeypatch, capsys):
        # make the (0,2)-parts test contradict the other two: every d(phi^i)
        # reads as zero
        from acx import forms, lie

        monkeypatch.setattr(
            lie.ComplexCoframe, "d_phi", lambda self, i: forms.Form.zero(self.n)
        )
        assert main(["nijenhuis", "--model", "kt", "--a", "4*pi"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal check failed: integrability: ")
        assert "N=0:False (0,2)-parts:True frame-closed:False" in err

    def test_failed_mode_oracle_exit_three(self, monkeypatch, capsys):
        from acx import torus

        monkeypatch.setattr(torus, "kt_mode_oracle", lambda *args, **kwargs: [])
        code = main(["plurigenera", "--model", "kt", "--a", "4*pi", "--m", "1",
                     "--cross-check"])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "internal check failed: mode oracle: disagrees with the closed form"
        )

    @pytest.mark.parametrize("argv", [
        ["hodge", "--model", "kt", "--a", "4*pi", "--p", "0", "--q", "0",
         "--power", "1"],
        ["plurigenera", "--model", "g2", "--m", "1..3"],
    ])
    def test_failed_canonical_bundle_exit_three(self, monkeypatch, capsys, argv):
        # a (0,0) term in dbar of every form: no beta_1 reproduces dbar(vol)
        from acx import g2, lie

        dbar = lie.ComplexCoframe.dbar
        monkeypatch.setattr(lie.ComplexCoframe, "dbar",
                            lambda self, x: dbar(self, x) + Form.monomial(self.n))
        g2._s6_canonical.cache_clear()
        try:
            assert main(argv) == 3
        finally:
            g2._s6_canonical.cache_clear()
        assert capsys.readouterr().err.startswith(
            "internal check failed: canonical bundle: "
        )

    def test_contradicted_kappa_additivity_exit_one(self, monkeypatch, capsys):
        # a curve declared bounded passes its own check (kappa = 0 is never
        # compared), but its product with rr:2 grows quadratically, not linearly
        from acx import torus
        from acx.torus import PlurigeneraProfile

        curve = torus.curve_profile
        monkeypatch.setattr(torus, "curve_profile", lambda g, length: PlurigeneraProfile(
            curve(g, length).values, 0))
        assert main(["kunneth", "--factors", "curve:2,rr:2", "--length", "8"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [f["kappa"] for f in report["factors"]] == [0, 1]
        assert report["product"]["kappa"] == 2
        assert report["kappa_additive"] is False

    def test_undecidable_kappa_additivity_is_true(self, capsys):
        assert main(["kunneth", "--factors", "kt:4/3*pi,curve:2",
                     "--length", "12"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["product"]["values"] == [0, 0, 5, 0, 0, 11, 0, 0, 17, 0, 0, 23]
        assert report["kappa_additive"] is True

    def test_internal_check_error_is_not_an_input_error(self):
        from acx.errors import InternalCheckError

        exc = InternalCheckError("star oracle", "the system is inconsistent")
        assert not isinstance(exc, (ValueError, RefusalError))
        assert exc.check == "star oracle"
        assert str(exc) == "star oracle: the system is inconsistent"


class TestConsoleMain:
    """How `console_main`, the `acx` script, ends the process.  os._exit is
    replaced by a recorder, so the test process survives."""

    @pytest.fixture
    def exits(self, monkeypatch):
        recorded = []

        def fake_exit(code):
            recorded.append(code)
            raise SystemExit("os._exit")

        monkeypatch.setattr(os, "_exit", fake_exit)
        monkeypatch.setattr(cli, "_tool_attached", lambda: False)
        return recorded

    @staticmethod
    def console_main(monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["acx", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.console_main()
        return exc.value.code

    @pytest.mark.parametrize("argv, code", [
        (["rr", "--genus", "2", "--m", "2"], 0),
        (["--version"], 0),
        (["bogus"], 2),
        (["rr", "--genus", "1", "--m", "2"], 2),
    ], ids=["success", "version", "usage-error", "input-error"])
    def test_flushes_then_ends_with_os_exit(self, monkeypatch, exits, argv, code):
        assert self.console_main(monkeypatch, argv) == "os._exit"
        assert exits == [code]

    class Unflushable(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    def test_failed_version_flush_is_an_internal_error(self, monkeypatch, capsys, exits):
        # main flushes the version as it flushes a report
        monkeypatch.setattr(sys, "stdout", self.Unflushable())
        assert self.console_main(monkeypatch, ["--version"]) == "os._exit"
        assert exits == [3]
        assert capsys.readouterr().err == "internal error: BrokenPipeError: [Errno 32] Broken pipe\n"

    def test_failed_report_flush_is_an_internal_error(self, monkeypatch, capsys, exits):
        monkeypatch.setattr(sys, "stdout", self.Unflushable())
        assert self.console_main(monkeypatch, ["rr", "--genus", "2", "--m", "2"]) == "os._exit"
        assert exits == [3]
        assert capsys.readouterr().err == "internal error: BrokenPipeError: [Errno 32] Broken pipe\n"

    def test_attached_tool_ends_through_sys_exit(self, monkeypatch, exits):
        monkeypatch.setattr(cli, "_tool_attached", lambda: True)
        assert self.console_main(monkeypatch, ["bogus"]) == 2
        assert exits == []

    def test_other_exits_pass_through(self, monkeypatch, exits):
        def leave(args):
            raise SystemExit("stopped")

        monkeypatch.setitem(cli._HANDLERS, "rr", leave)
        assert self.console_main(monkeypatch, ["rr", "--genus", "2"]) == "stopped"
        assert exits == []


_LITERAL_OVER = "rational literal over 1000 digits"

_LONG = "z" * 3000
_BIG = int("9" * 3000)

# (argv, or the overrides of a model file, and the long input that the
# refusal quotes first); the cases follow the checks of cli and models
LONG_INPUTS = [
    pytest.param(["rr", "--genus", "2", "--m", f"1..{_LONG}"], f"1..{_LONG}",
                 id="m-bad-range"),
    pytest.param(["rr", "--genus", "2", "--m", f"5..{'0' * 2999}1"], f"5..{'0' * 2999}1",
                 id="m-empty-range"),
    pytest.param(["rr", "--genus", "2", "--m", _LONG], _LONG, id="m-bad-level"),
    pytest.param(["kunneth", "--factors", f"kt:{' ' * 3000},torus"], f"kt:{' ' * 3000}",
                 id="factor-kt-without-a"),
    pytest.param(["kunneth", "--factors", f"kt:{_LONG},torus"], f"kt:{_LONG}",
                 id="factor-kt-bad-a"),
    pytest.param(["kunneth", "--factors", f"t4:{_LONG},torus"], f"t4:{_LONG}",
                 id="factor-t4-bad-member"),
    pytest.param(["kunneth", "--factors", f"rr:{_LONG},torus"], f"rr:{_LONG}",
                 id="factor-genus-not-an-int"),
    pytest.param(["kunneth", "--factors", f"curve:{'9' * 3000},torus"], f"curve:{'9' * 3000}",
                 id="factor-genus-over-limit"),
    pytest.param(["kunneth", "--factors", f"torus:{_LONG},s6"], f"torus:{_LONG}",
                 id="factor-with-argument"),
    pytest.param(["kunneth", "--factors", f"{_LONG},torus"], _LONG, id="unknown-factor"),
    pytest.param(["plurigenera", "--model", "kt", "--a", _LONG], _LONG, id="a-value"),
    pytest.param({"dim": _BIG}, _BIG, id="dim-over-limit"),
    pytest.param({"dim": _LONG}, _LONG, id="dim-not-an-int"),
    pytest.param(["nijenhuis", "--model", _LONG], _LONG, id="model-path"),
    pytest.param({"brackets": [_LONG]}, _LONG, id="bracket-entry"),
    pytest.param({"brackets": [{"i": _LONG, "j": 3, "out": []}]}, _LONG, id="bracket-index"),
    pytest.param({"brackets": [{"i": 2, "j": 3, "out": [_LONG]}]}, _LONG,
                 id="bracket-output-item"),
    pytest.param({"brackets": [{"i": 2, "j": 3, "out": [[_LONG, "1", "0"]]}]}, _LONG,
                 id="bracket-output-index"),
    pytest.param({"brackets": [{"i": 2, "j": 3, "out": [[4, _LONG, "0"]]}]}, [4, _LONG, "0"],
                 id="bracket-output-field"),
    pytest.param({"brackets": [{"i": 2, "j": 3, "out": [[4, _BIG, "0"]]}]}, [4, _BIG, "0"],
                 id="bracket-constant-not-a-string"),
    pytest.param({"J": [["0", _BIG, "0", "0"], *KT_FILE_OBJ["J"][1:]]}, _BIG,
                 id="j-entry-not-a-string"),
    pytest.param({"J": [["0", _LONG + "a", "0", "0"], *KT_FILE_OBJ["J"][1:]], "params": {}},
                 _LONG + "a", id="j-entry-without-params"),
    pytest.param({"J": [["0", _LONG + "a", "0", "0"], *KT_FILE_OBJ["J"][1:]]}, _LONG + "a",
                 id="bad-j-entry"),
    pytest.param({"params": {"a": _BIG}}, _BIG, id="params-a-not-a-string"),
    pytest.param({"params": {"a": _LONG}}, _LONG, id="params-a-bad-literal"),
]


class TestInputLimits:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ("1..1000000000", "at most 1000"),
            ("1001", "at most 1000"),
            ("999..1001", "at most 1000"),
            ("1..600,1..600", "at most 1000 levels"),
            ("-1000000000..3", "positive integers"),
            ("1..x", "bad range '1..x'"),
            ("5..2", "empty range '5..2'"),
            ("x", "bad level 'x'"),
        ],
    )
    def test_m_limit(self, capsys, spec, message):
        assert main(["rr", "--genus", "2", f"--m={spec}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: --m:") and message in err

    def test_a_long_malformed_literal_is_not_echoed_whole(self, capsys):
        assert main(["plurigenera", "--model", "t4", "--t", "9" * 3000 + "x,0"]) == 2
        err = capsys.readouterr().err
        assert err == ("input error: --t: bad rational literal "
                       f"{'9' * 40!r}... (3001 characters)\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("given, long_input", LONG_INPUTS)
    def test_a_long_input_is_quoted_by_its_head_and_length(self, tmp_path, capsys,
                                                           given, long_input):
        if isinstance(given, dict):
            path = tmp_path / "model.json"
            path.write_text(json.dumps(dict(KT_FILE_OBJ, **given)))
            given = ["nijenhuis", "--model", str(path)]
        assert main(given) == 2
        err = capsys.readouterr().err
        text = long_input if isinstance(long_input, str) else repr(long_input)
        assert err.startswith("input error: ") and len(err.encode()) < 200
        assert text[:40] in err and f"({len(text)} characters)" in err

    def test_m_limit_is_inclusive(self):
        code, report = capture_json(["rr", "--genus", "2", "--m", "1000"])
        assert code == 0 and report["levels"] == [1000]

    @pytest.mark.parametrize(
        "argv",
        [
            ["kodaira", "--model", "kt", "--a", "4*pi", "--length", "1001"],
            ["kunneth", "--factors", "curve:2,rr:2", "--length", "1001"],
        ],
    )
    def test_length_limit(self, capsys, argv):
        assert main(argv) == 2
        assert "input error: --length: must be at most 1000" in capsys.readouterr().err

    def test_levels_limit(self, capsys):
        assert main(["s6-report", "--levels", "1001"]) == 2
        assert "input error: --levels: must be at most 1000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["kodaira", "--model", "t4", "--length", "0"], "--length: must be at least 4"),
            (["kunneth", "--factors", "rr:2,torus", "--length", "-1"],
             "--length: must be at least 4"),
            (["s6-report", "--levels", "0"], "--levels: must be at least 4"),
            (["g2-verify", "--samples", "-3"], "--samples: must be at least 0"),
            (["g2-verify", "--negatives", "-1"], "--negatives: must be at least 0"),
            (["g2-verify", "--samples", "1001"], "--samples: must be at most 1000"),
            (["g2-verify", "--negatives", "1001"], "--negatives: must be at most 1000"),
            (["plurigenera", "--model", "t4", "--t", "1e5000,0"], f"--t: {_LITERAL_OVER}"),
            (["plurigenera", "--model", "t4", "--t", "1e3000000,1"], f"--t: {_LITERAL_OVER}"),
            (["plurigenera", "--model", "t4", "--t", "1e999999999,0"], f"--t: {_LITERAL_OVER}"),
            (["plurigenera", "--model", "t4", "--t", "0,1" + "0" * 1000], f"--t: {_LITERAL_OVER}"),
            (["plurigenera", "--model", "t4", "--t", "1/1" + "0" * 1000 + ",0"],
             f"--t: {_LITERAL_OVER}"),
            (["plurigenera", "--model", "kt", "--a", "1e5000*pi"], f"--a: {_LITERAL_OVER}"),
            (["plurigenera", "--model", "kt", "--a", "1.5e-1000*pi"], f"--a: {_LITERAL_OVER}"),
            (["kunneth", "--factors", "kt:1e5000*pi,torus"],
             f"factor 'kt:1e5000*pi': {_LITERAL_OVER}"),
            (["rr", "--genus", "9" * 4299, "--m", "1000"], "--genus must be at most 1000000"),
            (["rr", "--genus", "1000001"], "--genus must be at most 1000000"),
            (["kunneth", "--factors", "rr:1000001,torus"],
             "factor 'rr:1000001': genus must be at most 1000000"),
            (["kunneth", "--factors", "curve:1000001,torus"],
             "factor 'curve:1000001': genus must be at most 1000000"),
            pytest.param(["kunneth", "--factors", f"rr:{'9' * 4299},torus"],
                         f"factor 'rr:{'9' * 37}'... (4302 characters): "
                         "genus must be at most 1000000",
                         id="rr-factor-of-4299-digits"),
            (["plurigenera", "--model", "t4", "--t", "1"],
             "--t: want two comma-separated rationals, e.g. 0,0"),
        ],
    )
    def test_lower_and_sample_limits(self, capsys, argv, message):
        assert main(argv) == 2
        assert f"input error: {message}" in capsys.readouterr().err

    def test_sample_limits_are_checked_before_any_work(self, monkeypatch):
        from acx import g2

        def boom():
            raise AssertionError("work started before the limits were checked")

        monkeypatch.setattr(g2, "verify_bracket_table", boom)
        assert main(["g2-verify", "--samples", "-3"]) == 2
        assert main(["g2-verify", "--negatives", "1001"]) == 2

    def test_sample_limits_are_inclusive(self):
        code, report = capture_json(["g2-verify", "--samples", "0", "--negatives", "0"])
        assert code == 0
        assert report["membership"]["members_checked"] == 0

    @staticmethod
    def abelian_file(tmp_path, dim):
        J = [["0"] * dim for _ in range(dim)]
        for k in range(0, dim, 2):
            J[k][k + 1], J[k + 1][k] = "-1", "1"
        path = tmp_path / f"abelian{dim}.json"
        path.write_text(json.dumps({"dim": dim, "brackets": [], "J": J}))
        return str(path)

    def test_section_limit_is_inclusive(self, tmp_path):
        from acx.cli import MAX_SECTIONS

        # C(6,3) * C(6,3) = 400 section monomials on the 12-torus, all harmonic
        argv = ["hodge", "--model", self.abelian_file(tmp_path, 12), "--p", "3", "--q", "3"]
        code, report = capture_json(argv)
        assert code == 0 and report["dimension"] == MAX_SECTIONS

    def test_section_limit(self, tmp_path, monkeypatch, capsys):
        from acx import cli, hodge

        def boom(*args, **kwargs):
            raise AssertionError("work started before the limit was checked")

        monkeypatch.setattr(hodge, "invariant_harmonic_space", boom)
        dim24 = self.abelian_file(tmp_path, 24)
        assert main(["hodge", "--model", dim24, "--p", "6", "--q", "6"]) == 2
        assert capsys.readouterr().err == (
            "input error: --p/--q section monomials: must be at most 400\n"
        )
        # one over the limit: the 400 monomials of the inclusive case
        monkeypatch.setattr(cli, "MAX_SECTIONS", 399)
        dim12 = self.abelian_file(tmp_path, 12)
        assert main(["hodge", "--model", dim12, "--p", "3", "--q", "3"]) == 2
        assert capsys.readouterr().err == (
            "input error: --p/--q section monomials: must be at most 399\n"
        )

    def test_factor_limit(self, monkeypatch, capsys):
        from acx import cli

        def boom(spec):
            raise AssertionError("a factor was parsed before the limit was checked")

        monkeypatch.setattr(cli, "_parse_factor", boom)
        factors = ",".join(["rr:2"] * (cli.MAX_FACTORS + 1))
        assert main(["kunneth", "--factors", factors]) == 2
        assert capsys.readouterr().err == "input error: --factors: must be at most 8\n"

    def test_factor_limit_is_inclusive(self):
        from acx.cli import MAX_FACTORS

        factors = ",".join(["rr:2"] * MAX_FACTORS)
        code, report = capture_json(["kunneth", "--factors", factors, "--length", "4"])
        assert code == 0 and len(report["factors"]) == MAX_FACTORS == 8

    @staticmethod
    def record_builds(monkeypatch):
        """The names of g2.s6_model and the torus profile builders, in the
        order the invocation calls them (each call builds nothing)."""
        from acx import g2, torus

        built = []
        for module, name in [(g2, "s6_model"), (torus, "kt_profile"), (torus, "t4_profile"),
                             (torus, "rr_profile"), (torus, "curve_profile"),
                             (torus, "torus_profile")]:
            monkeypatch.setattr(module, name, lambda *args, name=name: built.append(name))
        return built

    @pytest.mark.parametrize("argv, option", [
        (["kodaira", "--model", "g2", "--length", "3"], "--length"),
        (["kunneth", "--factors", ",".join(["s6"] * 8), "--length", "3"], "--length"),
        (["s6-report", "--levels", "3"], "--levels"),
    ])
    def test_profile_floor_is_checked_before_any_model_is_built(
        self, monkeypatch, capsys, argv, option
    ):
        built = self.record_builds(monkeypatch)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {option}: must be at least 4\n"
        assert built == []

    def test_a_count_limit(self, capsys):
        from acx.cli import MAX_A_VALUES

        a = ",".join(f"{k}*pi" for k in range(1, MAX_A_VALUES + 1))
        code, report = capture_json(["plurigenera", "--model", "kt", "--a", a, "--m", "1"])
        assert code == 0 and len(report["rows"]) == MAX_A_VALUES == 16
        # one more value is refused, before any literal is parsed
        for text in (f"{a},17*pi", ",".join(["x*pi"] * (MAX_A_VALUES + 1))):
            argv = ["plurigenera", "--model", "kt", "--a", text, "--m", "1"]
            assert main(argv) == 2
            assert capsys.readouterr().err == "input error: --a: at most 16 values\n"

    @pytest.mark.parametrize("bad, message", [
        ("rr:x", "factor 'rr:x': want rr:<genus>"),
        ("rr:1", "fiber genus must be at least 2"),
        ("curve:1", "curve profiles require genus at least 2"),
        ("rr:1000001", "factor 'rr:1000001': genus must be at most 1000000"),
        ("kt:", "factor 'kt:': want kt:<a>, e.g. kt:4*pi"),
        ("kt:x*pi", "factor 'kt:x*pi': bad rational literal 'x'"),
        ("t4:bad", "factor 't4:bad': want t4:std or t4:zero"),
        ("torus:5", "factor 'torus:5': torus takes no argument"),
        ("s6:x", "factor 's6:x': s6 takes no argument"),
        ("nope", "unknown factor 'nope'; want kt:<a>, t4:std, t4:zero, rr:<g>, "
                 "curve:<g>, torus, or s6"),
    ])
    def test_every_factor_is_checked_before_any_profile_is_built(
        self, monkeypatch, capsys, bad, message
    ):
        built = self.record_builds(monkeypatch)
        factors = f"s6,kt:4*pi,t4:std,rr:2,curve:2,torus,s6,{bad}"
        assert main(["kunneth", "--factors", factors]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert built == []

    @pytest.mark.parametrize("option, value", [("--t", "1e999999999,0"), ("--a", "1e999999999*pi")])
    def test_rational_literal_limit_is_checked_before_any_integer(
        self, monkeypatch, option, value
    ):
        from acx import scalars

        def boom(*args):
            raise AssertionError("an integer was built before the limit was checked")

        # _literal_ints builds the literal's ints
        monkeypatch.setattr(scalars, "_literal_ints", boom)
        model = "t4" if option == "--t" else "kt"
        assert main(["plurigenera", "--model", model, option, value]) == 2

    def test_rational_literal_limit_is_inclusive(self):
        big = "9" * 1000
        code, report = capture_json(
            ["plurigenera", "--model", "t4", "--t", f"1e999,{big}/{big[:-1]}7", "--m", "1"]
        )
        assert code == 0 and report["member"] == f"t=(1{'0' * 999},{big}/{big[:-1]}7)"
        code, report = capture_json(
            ["plurigenera", "--model", "kt", f"--a=-{big}/4*pi", "--m", "1"]
        )
        assert code == 0 and report["rows"][0]["a"] == f"-{big}/4*pi"

    def test_genus_limit_is_inclusive(self):
        from acx.cli import MAX_GENUS

        code, report = capture_json(["rr", "--genus", str(MAX_GENUS), "--m", "3"])
        assert code == 0 and report["values"] == [5 * (MAX_GENUS - 1)]
        code, report = capture_json(
            ["kunneth", "--factors", f"rr:{MAX_GENUS},curve:{MAX_GENUS}", "--length", "4"]
        )
        assert code == 0 and report["product"]["kappa"] == 2


class TestInputFaults:
    """Malformed input exits 2 with a message of acx's own, never a traceback
    or a bare standard-library message."""

    def _run_file(self, tmp_path, capsys, **overrides):
        obj = dict(KT_FILE_OBJ, **overrides)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        code = main(["nijenhuis", "--model", str(path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"brackets": 5}, "brackets must be a list"),
            ({"params": 7}, "params must be a JSON object"),
            ({"params": {"a": 5}}, "params.a must be a string"),
            ({"brackets": [{"i": 2, "j": 3, "out": 5}]}, "bracket (2,3): out must be a list"),
            ({"brackets": [{"i": 2, "j": 3, "out": [[4, "1e1001", "0"]]}]},
             "bracket (2,3) output [4, '1e1001', '0']: rational literal over 1000 digits"),
            ({"dim": True}, "model dim must be a positive even integer, got True"),
            ({"brackets": [{"i": True, "j": 3, "out": [[4, "1", "0"]]}]},
             "bracket indices must satisfy 1 <= i < j <= dim, got (True,3)"),
            ({"brackets": [{"i": 1, "j": True, "out": [[4, "1", "0"]]}]},
             "bracket indices must satisfy 1 <= i < j <= dim, got (1,True)"),
            ({"brackets": [{"i": 2, "j": 3, "out": [[True, "1", "0"]]}]},
             "bracket output index True out of range"),
            ({"brackets": [{"i": 2, "j": 3, "out": [[4, "1", "0"], [4, "2", "0"]]}]},
             "bracket (2,3): duplicate output index 4"),
            ({"J": [["0", -1, "0", "0"], *KT_FILE_OBJ["J"][1:]]},
             "J entry (1,2): expected rational string, got -1"),
            ({"J": [["0", False, "0", "0"], *KT_FILE_OBJ["J"][1:]]},
             "J entry (1,2): expected rational string, got False"),
            ({"brackets": [5]}, "bad bracket entry 5"),
            ({"brackets": [{"i": 2, "j": 3, "out": [[4, "1"]]}]},
             "bracket output entries are [k, re, im], got [4, '1']"),
            ({"brackets": [{"i": 2, "j": 3, "out": [[4, "1", "0"]]}] * 2},
             "duplicate bracket entry (2,3)"),
            ({"J": [["0"]]}, "J must be a dim x dim matrix of rational strings"),
        ],
    )
    def test_bad_shapes(self, tmp_path, capsys, overrides, message):
        code, err = self._run_file(tmp_path, capsys, **overrides)
        assert code == 2
        assert err.startswith("input error: ") and message in err

    def test_bad_bracket_rational_names_the_field(self, tmp_path, capsys):
        code, err = self._run_file(
            tmp_path, capsys, brackets=[{"i": 2, "j": 3, "out": [[4, "x", "0"]]}]
        )
        assert code == 2
        assert err == "input error: bracket (2,3) output [4, 'x', '0']: bad rational literal 'x'\n"

    def test_bad_j_rational_names_the_field(self, tmp_path, capsys):
        J = [row[:] for row in KT_FILE_OBJ["J"]]
        J[2][3] = "-1/0*a"
        code, err = self._run_file(tmp_path, capsys, J=J)
        assert code == 2
        assert err == "input error: J entry (3,4): bad rational literal '1/0'\n"

    def test_model_file_size_cap(self, tmp_path, monkeypatch, capsys):
        from acx import models

        path = tmp_path / "model.json"
        path.write_text(json.dumps(KT_FILE_OBJ))
        size = path.stat().st_size
        monkeypatch.setattr(models, "MAX_FILE_BYTES", size)
        assert capture_json(["nijenhuis", "--model", str(path)])[0] == 0
        monkeypatch.setattr(models, "MAX_FILE_BYTES", size - 1)
        assert main(["nijenhuis", "--model", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"input error: model file {echo(str(path))} is over {size - 1} bytes\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_model_stream_is_refused(self, monkeypatch, capsys):
        from acx import models

        monkeypatch.setattr(models, "MAX_FILE_BYTES", 1000)
        assert main(["nijenhuis", "--model", "/dev/zero"]) == 2
        assert capsys.readouterr().err == "input error: model file '/dev/zero' is over 1000 bytes\n"

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    def test_negative_degree_rejected(self, capsys, flag):
        argv = ["hodge", "--model", "kt", "--a", "4*pi", "--p", "0", "--q", "0"]
        argv[argv.index(flag) + 1] = "-1"
        assert main(argv) == 2
        assert capsys.readouterr().err == "input error: --p and --q must be non-negative\n"

    def test_factor_errors_are_not_masked(self, capsys):
        assert main(["kunneth", "--factors", "rr:1,torus"]) == 2
        assert capsys.readouterr().err == "input error: fiber genus must be at least 2\n"
        assert main(["kunneth", "--factors", "rr:x,torus"]) == 2
        assert capsys.readouterr().err == "input error: factor 'rr:x': want rr:<genus>\n"

    def test_internal_value_error_exits_three(self, monkeypatch, capsys):
        from acx import cli

        def broken(args):
            raise ValueError("form is not bidegree-homogeneous")

        monkeypatch.setitem(cli._HANDLERS, "rr", broken)
        assert main(["rr", "--genus", "2"]) == 3
        assert capsys.readouterr().err == "internal error: form is not bidegree-homogeneous\n"

    def test_other_internal_exceptions_exit_three(self, monkeypatch, capsys):
        from acx import cli

        def broken(args):
            raise TypeError("unsupported operand type(s) for +: 'Form' and 'int'")

        monkeypatch.setitem(cli._HANDLERS, "rr", broken)
        assert main(["rr", "--genus", "2"]) == 3
        assert capsys.readouterr().err == (
            "internal error: TypeError: unsupported operand type(s) for +: 'Form' and 'int'\n"
        )

    def test_interrupts_are_not_internal_errors(self, monkeypatch):
        from acx import cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._HANDLERS, "rr", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["rr", "--genus", "2"])

    def test_model_dim_limit_is_checked_first(self, tmp_path, capsys):
        from acx.models import MAX_DIM

        for dim in (MAX_DIM + 1, MAX_DIM + 2):
            code, err = self._run_file(
                tmp_path, capsys, dim=dim, brackets=[{"i": 1, "j": 2, "out": 5}], J=[["x"]]
            )
            assert code == 2
            assert err == f"input error: model dim must be at most {MAX_DIM}, got {dim}\n"

    def test_model_dim_limit_is_inclusive(self, tmp_path):
        from acx.models import MAX_DIM

        J = [["0"] * MAX_DIM for _ in range(MAX_DIM)]
        for k in range(0, MAX_DIM, 2):
            J[k][k + 1], J[k + 1][k] = "-1", "1"
        path = tmp_path / "abelian.json"
        path.write_text(json.dumps({"dim": MAX_DIM, "brackets": [], "J": J}))
        code, report = capture_json(["structure-eqs", "--model", str(path)])
        assert code == 0 and report["integrable"] is True


class TestComputeOnce:
    def test_nijenhuis_builds_one_tensor_and_one_coframe(self, monkeypatch):
        from acx import lie

        calls = {"nijenhuis": 0, "build_coframe": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        # the name the CLI, is_integrable and LieACS call through
        monkeypatch.setattr(lie, "nijenhuis", counting("nijenhuis", lie.nijenhuis))
        monkeypatch.setattr(lie, "build_coframe", counting("build_coframe", lie.build_coframe))
        code, report = capture_json(["nijenhuis", "--model", "kt", "--a", "4*pi"])
        assert code == 0 and report["integrable"] is False
        assert calls == {"nijenhuis": 1, "build_coframe": 1}

    def test_cross_check_decides_each_window_mode_once(self, monkeypatch):
        from acx import torus

        calls = []
        solves = torus._mode_solves
        monkeypatch.setattr(torus, "_mode_solves",
                            lambda k, l, target: calls.append(1) or solves(k, l, target))
        code, report = capture_json(["plurigenera", "--model", "kt", "--a", "4*pi,generic",
                                     "--m", "1..3", "--cross-check"])
        assert code == 0 and report["cross_check"]["agreed"] is True
        # two values, three levels, (2 * 32 + 1)^2 modes each
        assert len(calls) == 2 * 3 * (2 * torus.MODE_WINDOW + 1) ** 2 == 25350

    def test_a_model_builds_one_trivial_character(self, tmp_path, monkeypatch):
        from acx import lie

        trivial = []
        init = lie.Character.__init__

        def counting(self, alg, values):
            init(self, alg, values)
            trivial.append(self.is_trivial())

        monkeypatch.setattr(lie.Character, "__init__", counting)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(KT_FILE_OBJ))
        code, report = capture_json(["plurigenera", "--model", str(path), "--m", "1..50"])
        assert code == 0 and report["values"] == [1] * 50
        assert trivial.count(True) == 1

    def test_cli_constructs_no_internal_check_error(self):
        # every cross-check raises beside the computations it compares
        tree = ast.parse(inspect.getsource(cli))
        built = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "InternalCheckError"]
        assert built == []


class TestFailingReports:
    """The full JSON of reports whose checks fail; the golden corpus only
    records passing ones."""

    @staticmethod
    def assert_pinned(argv, expected):
        code, text = capture(argv)
        assert code == 1
        assert text == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_g2_verify_with_wrong_catalogue_entry(self, monkeypatch):
        from acx import g2

        table = dict(g2.REFERENCE_BRACKET_TABLE)
        table[("f2", "f4")] = {"h4": 1}
        monkeypatch.setattr(g2, "REFERENCE_BRACKET_TABLE", table)
        self.assert_pinned(
            ["g2-verify", "--samples", "2", "--negatives", "1"],
            {
                "bracket_mismatches": [
                    {"catalogued": {"h4": 1}, "computed": {"h4": "-1"},
                     "pair": ["f2", "f4"]},
                ],
                "bracket_table": {
                    "checked": 76, "dimension": 14, "h_closed": True,
                    "jacobi_failures": 0, "mismatches": 1, "ok": False,
                    "unregistered_mismatches": 1,
                },
                "cross_product": {
                    "double_cross_failures": 0, "e1_cross_e6": True,
                    "j_at_e1_table": True, "ok": True,
                    "orthogonality_failures": 0,
                },
                "membership": {
                    "member_failures": 0, "members_checked": 2,
                    "nonmember_failures": 0, "nonmembers_checked": 1,
                    "ok": True, "seed": 20260815,
                },
                "ok": False,
                "projection": {
                    "f_image_table": True, "form_preservation_failures": 0,
                    "intertwine_failures": 0, "kernel_is_h_span": True,
                    "ok": True,
                },
            },
        )

    def test_s6_report_without_erratum_and_wrong_display(self, monkeypatch):
        from acx import g2

        displays = dict(g2.S6_DF_DISPLAYS)
        displays[2] = {**displays[2], (1, 7): -1}
        monkeypatch.setattr(g2, "S6_DF_DISPLAYS", displays)
        monkeypatch.setattr(g2, "REDUCTION_BRACKET_ERRATA", {})
        self.assert_pinned(
            ["s6-report", "--levels", "4"],
            {
                "census": {
                    "h10": 0, "h13": 0, "h20": 0, "h23": 0,
                    "kodaira_dimension": 0, "ok": True,
                    "plurigenera": [1, 1, 1, 1], "serre_bijections": True,
                    "star_on_generator": True,
                },
                "ok": False,
                "reduction_brackets": {
                    "checked": 6, "mismatches": ["[Xb2,Xb7]"], "ok": False,
                    "unregistered_mismatches": ["[Xb2,Xb7]"],
                },
                "structure": {
                    "dbar_20_failures": [], "dbar_phi_failures": [],
                    "df_failures": [2], "dual_frame": True, "ok": False,
                    "top_form_closed": True,
                },
            },
        )
