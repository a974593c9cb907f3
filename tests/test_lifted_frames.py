"""Constant frames on the lifted Gaussian-integer table, against SymScalar.

On a constant J, lie.nijenhuis, ComplexCoframe.complex_constants and the
J^2 = -I check of ACStructure sum Gaussian-integer numerators lifted from
the algebra's ad table, J, C and C^{-1}.  Each is compared here, entry by
entry, with a SymScalar reference computed in the test: N(e_i, e_j) from
bracket_vectors and J.apply, K = C [X_A, X_B] from the brackets table, C
and C^{-1}, and the dense product's first failing entry of J^2 = -I.  The
models are the g2 model, the constant golden model files, the constant
cases of test_properties, a dense 24-dim two-step model, the sign-flipped
variants of the benchmark's 6-dim templates, rescaled copies whose
structure constants, J, C and C^{-1} all have denominators above one, and
a non-unimodular sum of two 2-dim algebras with a Gaussian structure
constant.
"""

import importlib.util
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from acx import g2, lie
from acx.errors import InputError
from acx.hodge import invariant_harmonic_space
from acx.lie import ACStructure, LieACS, LieAlgebra, build_coframe, nijenhuis
from acx.models import abelian_model, model_from_json
from acx.scalars import SS_ZERO, S_I, SymScalar

from test_golden import golden
from test_lie import dense_bracket, dense_square_failure, nijenhuis_entry, table_bracket
from test_linalg import dense_two_step
from test_properties import CASES, central_extension, conjugated_j

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", golden.REPO_ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def rescaled(alg, J, scale):
    """The model in the basis s_k e_k: [e_i, e_j] = sum_k c_k e_k becomes
    c_k s_i s_j / s_k, and J becomes S^{-1} J S."""
    s = [SymScalar.const(Fraction(x)) for x in scale]
    brackets = {(i, j): {k: c * s[i - 1] * s[j - 1] / s[k - 1] for k, c in vec.items()}
                for (i, j), vec in alg.brackets.items()}
    matrix = [[c * s[b] / s[a] for b, c in enumerate(row)] for a, row in enumerate(J.matrix)]
    return LieAlgebra(alg.dim, brackets), ACStructure(matrix)


def from_file(obj):
    model = model_from_json(obj)[0]
    return model.alg, model.J


def property_case(seed, base, dim, mix):
    rng = random.Random(seed)
    alg = central_extension(rng, base, dim)
    return alg, ACStructure(conjugated_j(rng, dim, False, mix))


def golden_file(name):
    return from_file(json.loads((golden.GOLDEN_DIR / "models" / f"{name}.json").read_text()))


MODELS = {
    "g2": lambda: (g2.g2_algebra(), g2.g2_J()),
    **{f"golden-{name}": lambda name=name: golden_file(name)
       for name in ("abelian4", "dense12", "heis6")},
    **{f"properties-seed{seed}": lambda case=(seed, base, dim, mix): property_case(*case)
       for seed, base, dim, generic, mix in CASES if not generic},
    "dense24": lambda: from_file(dense_two_step(11, 16, 8)),
    **{f"{name}-variant{v}": lambda name=name, v=v: from_file(workloads.model_file(name, v))
       for name in ("nil6_heis", "nil6_mixed") for v in range(workloads.VARIANTS)},
    "g2-rescaled": lambda: rescaled(*MODELS["g2"](), [1, 2, "1/3", 3, "-3/2", 1, 5, "2/5",
                                                      1, "1/2", -2, 3, "7/3", 1]),
    "heis6-rescaled": lambda: rescaled(*golden_file("heis6"), [2, "1/3", 1, "3/2", "-1/5", 4]),
    # tr ad e_1 = i and tr ad e_3 = 1/2
    "affine4-gaussian": lambda: (LieAlgebra(4, {(1, 2): {2: S_I}, (3, 4): {4: Fraction(1, 2)}}),
                                 abelian_model(2).J),
}


@pytest.mark.parametrize("name", MODELS)
def test_integer_path_matches_the_symscalar_references(monkeypatch, name):
    alg, J = MODELS[name]()
    dim = alg.dim
    cf = build_coframe(alg, J)
    brackets = []
    bracket_vectors = LieAlgebra.bracket_vectors
    monkeypatch.setattr(LieAlgebra, "bracket_vectors",
                        lambda a, u, v: brackets.append(1) or bracket_vectors(a, u, v))
    tensor, K = nijenhuis(alg, J), cf.complex_constants()
    monkeypatch.undo()
    # the integer path ran: no SymScalar bracket
    assert brackets == []
    for i, j in combinations(range(1, dim + 1), 2):
        assert tensor.get((i, j), [SS_ZERO] * dim) == nijenhuis_entry(alg, J, i, j)
    X = [cf.x_vector(A) for A in range(dim)]
    assert list(K) == list(combinations(range(dim), 2))
    for (A, B), coords in K.items():
        bracket = dense_bracket(alg, X[A], X[B])
        assert coords == [sum((c * b for c, b in zip(row, bracket)), SS_ZERO) for row in cf.C]
    trace_free = all(sum((table_bracket(alg, b, a)[a - 1] for a in range(1, dim + 1)),
                         SS_ZERO).is_zero() for b in range(1, dim + 1))
    assert alg.is_unimodular() == trace_free


@pytest.mark.parametrize("name", MODELS)
def test_square_check_names_the_dense_first_failing_entry(name):
    _, J = MODELS[name]()
    n = J.dim
    rng = random.Random(f"lifted-square-{name}")
    for _ in range(4):
        bad = [list(row) for row in J.matrix]
        a, b = rng.randrange(n), rng.randrange(n)
        bad[a][b] = bad[a][b] + SymScalar.const(Fraction(rng.choice([1, -2]), rng.choice([1, 3])))
        want = dense_square_failure(bad)
        assert want is not None
        with pytest.raises(InputError) as exc:
            ACStructure(bad)
        assert str(exc.value) == f"J^2 != -I at entry ({want[0]},{want[1]})"


def test_a_plurigenus_sweep_takes_the_trace_once(monkeypatch):
    # the sphere model built afresh, then 500 levels of K^m at (0, 0)
    traces = []
    trace_free = lie._trace_free
    monkeypatch.setattr(lie, "_trace_free", lambda ad: traces.append(1) or trace_free(ad))
    alg = g2.g2_algebra()
    model = LieACS(LieAlgebra(alg.dim, alg.brackets), g2.g2_J(), name="s6", basic={1, 2, 3})
    for m in range(1, 501):
        invariant_harmonic_space(model, 0, 0, bundle_power=m)
    assert traces == [1]
