"""One manifold, one answer: a change of basis changes no invariant.

A signed permutation of the basis, e'_i = s_i e_{p(i)}, maps the basis
lattice to itself.  Carried through both the brackets and J it is an
isomorphism of almost complex models, so every invariant the CLI prints
must be unchanged: the hodge dimension at every (p,q) at powers 0 and 1,
kodaira's values and kappa, the irregularity and nijenhuis's integrable
verdict (an entry count such as nonzero_entries is not an invariant, so it
is not compared).

heis6.json, abelian4.json and nil8-generic.json each get two seeded flips of
J-pairs (abelian4.json has no brackets, so its flipped file is the file
itself).  dense12.json is left out for time: its invariants take 6-9 s per
flip.  kt4.json is moved three ways, at several a: e1 and e2 negated, its
J-pairs swapped, and its base plane rotated; its character blocks come from
its canonical bundle in every basis, and kodaira prints the kt preset's
values and kappa in each.  A kt x T^2 file must give the product that
kunneth gives, and a file whose lambda_1 is integral but does not vanish on
[g, g] gets the trivial block only.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from acx.cli import main
from acx.errors import InputError
from acx.lie import Character
from acx.models import model_from_json
from acx.scalars import Scalar, SymScalar

MODELS = Path(__file__).parent / "golden" / "models"
KODAIRA_LENGTH = 12


def _signed(text, s):
    """The rational or J-entry string text times the sign s."""
    if s > 0 or text == "0":
        return text
    return text[1:] if text.startswith("-") else "-" + text


def in_basis(obj, images):
    """The model file obj in the basis e'_i = s_i e_{p(i)}, where images[i-1]
    is s_i * p(i): [e'_i, e'_j] has s_i s_j s_l c^{p(l)}_{p(i)p(j)} on e'_l,
    and J'[r][c] = s_r s_c J[p(r)][p(c)]."""
    dim = obj["dim"]
    assert sorted(abs(v) for v in images) == list(range(1, dim + 1))
    sign = {abs(v): 1 if v > 0 else -1 for v in images}
    new = {abs(v): i for i, v in enumerate(images, start=1)}
    brackets = []
    for entry in obj.get("brackets", []):
        i, j = new[entry["i"]], new[entry["j"]]
        s = sign[entry["i"]] * sign[entry["j"]] * (1 if i < j else -1)
        out = [[new[k], str(s * sign[k] * Fraction(re)), str(s * sign[k] * Fraction(im))]
               for k, re, im in entry["out"]]
        brackets.append({"i": min(i, j), "j": max(i, j), "out": out})
    J = obj["J"]
    rows = [[_signed(J[abs(r) - 1][abs(c) - 1], r * c) for c in images] for r in images]
    return dict(obj, brackets=brackets, J=rows)


def pair_flip(dim, pairs):
    """images for in_basis that negate both vectors of each J-pair in pairs."""
    return [-k if (k + 1) // 2 in pairs else k for k in range(1, dim + 1)]


def seeded_pairs(name, obj, seed):
    """A seeded nonempty set of J-pairs whose negation changes the file's
    brackets; any nonempty set on a file without brackets."""
    rng = random.Random(f"{name}:{seed}")
    n = obj["dim"] // 2
    while True:
        pairs = {p for p in range(1, n + 1) if rng.random() < 0.5}
        if pairs and (in_basis(obj, pair_flip(obj["dim"], pairs)) != obj
                      or not obj.get("brackets")):
            return pairs


def acx(*argv):
    """(exit code, the parsed JSON report) of an acx run, or (exit code,
    stderr) when it exits nonzero."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, json.loads(out.getvalue()) if code == 0 else err.getvalue()


def invariants(path, n):
    """Every invariant the CLI prints for the model file at path."""
    def report(command, *args):
        code, shown = acx(command, "--model", path, *args)
        assert code == 0, shown
        return shown

    shown = {("hodge", p, q, power): report("hodge", "--p", p, "--q", q,
                                            "--power", power)["dimension"]
             for power in (0, 1) for p in range(n + 1) for q in range(n + 1)}
    kodaira = report("kodaira", "--length", KODAIRA_LENGTH)
    shown["kodaira"] = (kodaira["values"], kodaira["kappa"])
    shown["irregularity"] = report("irregularity")["value"]
    shown["integrable"] = report("nijenhuis")["integrable"]
    return shown


def assert_same_invariants(tmp_path, obj, moved):
    """The invariants of the model file obj, which moved must share."""
    paths = []
    for tag, model in (("given", obj), ("moved", moved)):
        paths.append(tmp_path / f"{tag}.json")
        paths[-1].write_text(json.dumps(model))
    n = obj["dim"] // 2
    want, got = (invariants(path, n) for path in paths)
    assert got == want, {key: (want[key], got[key]) for key in want if got[key] != want[key]}
    return want


@pytest.mark.parametrize("name", ["heis6", "abelian4", "nil8-generic"])
@pytest.mark.parametrize("seed", [0, 1])
def test_flipped_j_pairs_keep_every_invariant(tmp_path, name, seed):
    obj = json.loads((MODELS / f"{name}.json").read_text())
    moved = in_basis(obj, pair_flip(obj["dim"], seeded_pairs(name, obj, seed)))
    assert_same_invariants(tmp_path, obj, moved)


def test_kt4_with_e1_and_e2_negated(tmp_path):
    obj = json.loads((MODELS / "kt4.json").read_text())
    assert_same_invariants(tmp_path, obj, in_basis(obj, pair_flip(4, {1})))


KT_BASES = {
    "e1-e2-negated": [-1, -2, 3, 4],
    "j-pairs-swapped": [3, 4, 1, 2],
    "base-rotated": [2, -1, 3, 4],
}


@pytest.mark.parametrize("a", ["4*pi", "-4*pi", "8*pi", "2*pi", "4/3*pi", "1/2*pi",
                               "39/10*pi", "1/1000*pi", "generic"])
@pytest.mark.parametrize("basis", sorted(KT_BASES))
def test_kt4_in_other_bases_keeps_every_invariant(tmp_path, basis, a):
    """kodaira on the file prints what the kt preset prints at the same a:
    periodic (2*pi, 4/3*pi), first nonzero beyond the window (39/10*pi at
    m = 40, 1/1000*pi at m = 4000) or zero (generic)."""
    obj = dict(json.loads((MODELS / "kt4.json").read_text()), params={"a": a})
    shown = assert_same_invariants(tmp_path, obj, in_basis(obj, KT_BASES[basis]))
    code, preset = acx("kodaira", "--model", "kt", "--a", a, "--length", KODAIRA_LENGTH)
    assert code == 0, preset
    [row] = preset["rows"]
    assert shown["kodaira"] == (row["values"], row["kappa"])


def test_the_swapped_golden_file_is_kt4_in_that_basis():
    kt4, swapped = (json.loads((MODELS / f"{name}.json").read_text())
                    for name in ("kt4", "kt4-swapped"))
    assert swapped == dict(in_basis(kt4, KT_BASES["j-pairs-swapped"]), name="kt4-swapped")
    assert swapped["brackets"] == [{"i": 1, "j": 4, "out": [[2, "-1", "0"]]}]
    assert in_basis(kt4, KT_BASES["base-rotated"])["brackets"] == [
        {"i": 1, "j": 3, "out": [[4, "1", "0"]]}]


KT_T2 = {
    "dim": 6,
    "brackets": [{"i": 2, "j": 3, "out": [[4, "1", "0"]]}],
    "J": [["0", "-1", "0", "0", "0", "0"], ["1", "0", "0", "0", "0", "0"],
          ["0", "0", "0", "-a", "0", "0"], ["0", "0", "1/a", "0", "0", "0"],
          ["0", "0", "0", "0", "0", "-1"], ["0", "0", "0", "0", "1", "0"]],
    "params": {"a": "4*pi"},
}


def test_kt_times_t2_file_matches_kunneth(tmp_path):
    path = tmp_path / "kt-t2.json"
    path.write_text(json.dumps(KT_T2))
    _, kunneth = acx("kunneth", "--factors", "kt:4*pi,torus", "--length", 4)
    product = kunneth["product"]
    assert (product["values"], product["kappa"]) == ([1, 1, 1, 1], 0)
    _, plurigenera = acx("plurigenera", "--model", path, "--m", "1..4")
    _, kodaira = acx("kodaira", "--model", path, "--length", 4)
    _, irregularity = acx("irregularity", "--model", path)
    assert plurigenera["values"] == kodaira["values"] == product["values"]
    assert kodaira["kappa"] == product["kappa"]
    assert irregularity["value"] == 2


NON_CHARACTER = {
    "dim": 4,
    "brackets": [{"i": 1, "j": 4, "out": [[1, "-1", "0"]]},
                 {"i": 2, "j": 4, "out": [[2, "1", "0"]]}],
    "J": [["0", "0", "-1", "0"], ["0", "0", "0", "1/a"],
          ["1", "0", "0", "0"], ["0", "-a", "0", "0"]],
    "params": {"a": "4*pi"},
}


def test_lambda1_off_the_derived_algebra_gives_no_block(tmp_path):
    """lambda_1 = 2 pi i e^2 is integral, but it is nonzero on [e_2, e_4] =
    e_2, so it is no character: the rule skips it where Character refuses it."""
    model, _ = model_from_json(NON_CHARACTER)
    lambda1 = [0, SymScalar.symbol(coeff=Scalar(0, 2)), 0, 0]
    with pytest.raises(InputError, match=r"does not vanish on \[e_2, e_4\]"):
        Character(model.alg, lambda1)
    path = tmp_path / "non-character.json"
    path.write_text(json.dumps(NON_CHARACTER))
    code, hodge = acx("hodge", "--model", path, "--p", 0, "--q", 0, "--power", 1)
    assert code == 0
    assert hodge["blocks"] == [{"character": ["0"] * 4, "dimension": 0}]
    assert acx("hodge", "--model", path, "--p", 1, "--q", 1)[1]["dimension"] == 1
    _, kodaira = acx("kodaira", "--model", path, "--length", 4)
    assert (kodaira["values"], kodaira["kappa"]) == ([0, 0, 0, 0], "-inf")
    assert acx("irregularity", "--model", path)[1]["value"] == 0
