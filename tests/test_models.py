"""Preset models and the JSON model-file loader."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from acx.errors import InputError
from acx.g2 import s6_model
from acx.hodge import invariant_harmonic_space
from acx.lie import is_integrable, nijenhuis
from acx.models import (
    abelian_model,
    kt_J,
    kt_algebra,
    kt_model,
    load_model_file,
    model_from_json,
)
from acx.scalars import SS_ZERO, PiParam, Scalar, SymScalar
from acx.torus import kt_plurigenus

from test_lie import table_bracket, unit


A_4PI = PiParam.rational_pi(4)
HEIS6 = Path(__file__).parent / "golden" / "models" / "heis6.json"


KT_FILE = {
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


def write_model(tmp_path, obj, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


KT_QS = [4, -4, 2, Fraction(1, 2), Fraction(4, 3), 8, 12, -12, 3, Fraction(16, 3),
         Fraction(-8, 5), 40]


def kt_reference_characters(q, m):
    """kt's characters as the preset once listed them in closed form: the
    trivial one, then lambda = 2 pi i l e^2 at l = q/4, -q/4, mq/4, -mq/4,
    the integral ones, each once."""
    out = [[SS_ZERO] * 4]
    for l in (q / 4, m * q / 4):
        for sign in (1, -1):
            values = [SS_ZERO, SymScalar.symbol(coeff=Scalar(0, 2 * sign * l)), SS_ZERO, SS_ZERO]
            if l.denominator == 1 and values not in out:
                out.append(values)
    return out


class TestPresets:
    def test_kt_model_shape(self):
        model = kt_model(A_4PI)
        assert model.n == 2
        assert model.alg.brackets == kt_algebra().brackets
        assert model.symbol == "pi"

    def test_kt_characters_depend_on_branch(self):
        rational = kt_model(A_4PI)
        chars = rational.characters(bundle_power=1)
        assert any(not ch.is_trivial() for ch in chars)
        generic = kt_model(PiParam.generic())
        assert all(ch.is_trivial() for ch in generic.characters(bundle_power=1))

    @pytest.mark.parametrize("q", KT_QS, ids=str)
    def test_kt_characters_are_the_closed_form_list(self, q):
        """LieACS.characters, derived from K, gives the kt preset's former
        closed-form list, in order, at m = -4..8."""
        model = kt_model(PiParam.rational_pi(q))
        for m in range(-4, 9):
            got = [ch.values for ch in model.characters(m)]
            assert got == kt_reference_characters(Fraction(q), m), m

    def test_abelian_model(self):
        model = abelian_model(3)
        assert model.n == 3
        assert not model.alg.brackets
        assert is_integrable(nijenhuis(model.alg, model.J), model.coframe)
        with pytest.raises(InputError):
            abelian_model(0)


@pytest.mark.parametrize("param", [A_4PI, PiParam.generic()], ids=["4pi", "generic"])
def test_j_entry_r_over_a(param):
    from acx.models import _parse_j_entry

    a = param.a_value()
    assert _parse_j_entry("3/a", param, "J entry (1,2)") == SymScalar.const(3) / a
    assert _parse_j_entry(" -3/a", param, "J entry (1,2)") == SymScalar.const(-3) / a


def test_section_indices_are_one_to_n_except_on_the_sphere(tmp_path):
    file_model, _ = load_model_file(write_model(tmp_path, KT_FILE))
    for model in (abelian_model(3), kt_model(A_4PI), kt_model(PiParam.generic()),
                  file_model, load_model_file(str(HEIS6))[0]):
        assert model.indices == tuple(range(1, model.n + 1))
    assert s6_model().indices == (1, 2, 3)


class TestModelFiles:
    def test_kt_family_file_is_recognized(self, tmp_path):
        model, param = load_model_file(write_model(tmp_path, KT_FILE))
        assert param == A_4PI
        assert model.alg.brackets == kt_algebra().brackets
        assert model.J.matrix == kt_J(A_4PI).matrix
        # the Fourier blocks come from K: kernels match the closed-form
        # counts, which need the nontrivial characters
        for m in (1, 2, 3):
            dim = invariant_harmonic_space(model, 0, 0, bundle_power=m).dimension
            assert dim == kt_plurigenus(A_4PI, m) == 1

    def test_generic_parameter_file(self, tmp_path):
        obj = dict(KT_FILE, params={"a": "generic"})
        model, param = load_model_file(write_model(tmp_path, obj))
        assert param == PiParam.generic()
        assert model.symbol == "a"

    def test_plain_rational_file(self, tmp_path):
        obj = {
            "dim": 2,
            "brackets": [],
            "J": [["0", "-1"], ["1", "0"]],
        }
        model, param = load_model_file(write_model(tmp_path, obj))
        assert param is None
        assert model.n == 1
        assert is_integrable(nijenhuis(model.alg, model.J), model.coframe)

    def test_complex_bracket_constants(self, tmp_path):
        obj = {
            "dim": 2,
            "brackets": [{"i": 1, "j": 2, "out": [[1, "1/2", "0"]]}],
            "J": [["0", "-1"], ["1", "0"]],
        }
        model, _ = load_model_file(write_model(tmp_path, obj))
        alg = model.alg
        vec = alg.bracket_vectors(unit(2, 1), unit(2, 2))
        assert vec == table_bracket(alg, 1, 2)
        assert not vec[0].is_zero()

    def test_parametric_entry_without_params_is_rejected(self, tmp_path):
        obj = dict(KT_FILE)
        obj.pop("params")
        with pytest.raises(InputError):
            load_model_file(write_model(tmp_path, obj))

    def test_bad_parameter_literal(self, tmp_path):
        obj = dict(KT_FILE, params={"a": "sqrt(2)"})
        with pytest.raises(InputError):
            load_model_file(write_model(tmp_path, obj))

    def test_bad_j_entry(self, tmp_path):
        obj = dict(KT_FILE)
        obj["J"] = [row[:] for row in KT_FILE["J"]]
        obj["J"][2][3] = "-a^2"
        with pytest.raises(InputError):
            load_model_file(write_model(tmp_path, obj))

    def test_j_square_check(self, tmp_path):
        obj = {
            "dim": 2,
            "brackets": [],
            "J": [["0", "1"], ["1", "0"]],
        }
        with pytest.raises(InputError):
            load_model_file(write_model(tmp_path, obj))

    def test_jacobi_violation_in_file(self, tmp_path):
        obj = {
            "dim": 3,
            "brackets": [
                {"i": 1, "j": 2, "out": [[3, "1", "0"]]},
                {"i": 1, "j": 3, "out": [[1, "1", "0"]]},
            ],
            "J": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        }
        with pytest.raises(InputError):
            load_model_file(write_model(tmp_path, obj))

    def test_missing_keys_and_bad_json(self, tmp_path):
        with pytest.raises(InputError):
            load_model_file(write_model(tmp_path, {"dim": 2}))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputError):
            load_model_file(str(bad))
        with pytest.raises(InputError):
            load_model_file(str(tmp_path / "missing.json"))

    def test_model_from_json_rejects_non_dict(self):
        with pytest.raises(InputError):
            model_from_json([1, 2, 3])
