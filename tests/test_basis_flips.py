"""One manifold, one answer: negating basis vectors changes no invariant.

Negating both vectors of a J-pair (a J-invariant plane e_{2p-1}, e_{2p} of
a model file whose J is block diagonal in those planes) is an isomorphism of
the almost complex model that maps the basis lattice to itself.  J is left
as it is, and each bracket [e_i, e_j] = sum c_k e_k becomes
s_i s_j s_k c_k.  Every invariant the CLI prints must then be unchanged:
the hodge dimension at every (p,q) at powers 0 and 1, kodaira's values and
kappa, the irregularity and nijenhuis's integrable verdict (an entry count
such as nonzero_entries is not an invariant, so it is not compared).

heis6.json, abelian4.json and nil8-generic.json each get two seeded flips
(abelian4.json has no brackets, so its flipped file is the file itself).
dense12.json is left out for time: its invariants take 6-9 s per flip.

kt4.json with e1 and e2 negated is an expected failure: the unflipped file
is read as the kt preset, with its Fourier character blocks, and the flipped
one takes the general path, which counts the trivial character's sections
only (ROADMAP item 5).
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from acx.cli import run

MODELS = Path(__file__).parent / "golden" / "models"


def flipped(obj, pairs):
    """The model file obj with both vectors of each J-pair p in pairs negated."""
    dim = obj["dim"]
    sign = [0] + [-1 if (k + 1) // 2 in pairs else 1 for k in range(1, dim + 1)]
    J = obj["J"]
    assert all(J[r - 1][c - 1] == "0" for r in range(1, dim + 1) for c in range(1, dim + 1)
               if sign[r] != sign[c]), "J is not block diagonal in the flipped pairs"
    brackets = []
    for entry in obj.get("brackets", []):
        i, j = entry["i"], entry["j"]
        out = []
        for k, re, im in entry["out"]:
            s = sign[i] * sign[j] * sign[k]
            out.append([k, str(s * Fraction(re)), str(s * Fraction(im))])
        brackets.append({"i": i, "j": j, "out": out})
    return dict(obj, brackets=brackets)


def seeded_pairs(name, obj, seed):
    """A seeded nonempty set of J-pairs whose negation changes the file's
    brackets; any nonempty set on a file without brackets."""
    rng = random.Random(f"{name}:{seed}")
    n = obj["dim"] // 2
    while True:
        pairs = {p for p in range(1, n + 1) if rng.random() < 0.5}
        if pairs and (flipped(obj, pairs) != obj or not obj.get("brackets")):
            return pairs


def invariants(path, n):
    """Every invariant the CLI prints for the model file at path."""
    def report(command, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run([command, "--model", str(path), *args]) == 0
        return json.loads(out.getvalue())

    shown = {("hodge", p, q, power): report("hodge", "--p", str(p), "--q", str(q),
                                            "--power", str(power))["dimension"]
             for power in (0, 1) for p in range(n + 1) for q in range(n + 1)}
    kodaira = report("kodaira")
    shown["kodaira"] = kodaira["values"], kodaira["kappa"]
    shown["irregularity"] = report("irregularity")["value"]
    shown["integrable"] = report("nijenhuis")["integrable"]
    return shown


def assert_same_invariants(tmp_path, name, pairs):
    obj = json.loads((MODELS / f"{name}.json").read_text())
    path = tmp_path / f"{name}-flipped.json"
    path.write_text(json.dumps(flipped(obj, pairs)))
    n = obj["dim"] // 2
    want, got = invariants(MODELS / f"{name}.json", n), invariants(path, n)
    assert got == want, {key: (want[key], got[key]) for key in want if got[key] != want[key]}


@pytest.mark.parametrize("name", ["heis6", "abelian4", "nil8-generic"])
@pytest.mark.parametrize("seed", [0, 1])
def test_flipped_j_pairs_keep_every_invariant(tmp_path, name, seed):
    obj = json.loads((MODELS / f"{name}.json").read_text())
    assert_same_invariants(tmp_path, name, seeded_pairs(name, obj, seed))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: a kt file in another basis loses "
                                       "its character blocks and prints kappa = -inf")
def test_kt4_with_e1_and_e2_negated(tmp_path):
    assert_same_invariants(tmp_path, "kt4", {1})
