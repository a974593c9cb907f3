"""Structure constants, almost complex structures, coframes, and the
invariant differential."""

import random
from fractions import Fraction
from functools import reduce

import pytest

from acx.errors import InputError
from acx.forms import Form, basis_monomials, d_monomial
from acx.lie import (
    ACStructure,
    Character,
    LieACS,
    LieAlgebra,
    build_coframe,
    is_integrable,
    nijenhuis,
)
from acx.linalg import mat_inverse, mat_mul, rank, sparse_rows
from acx.models import abelian_model, kt_algebra, kt_J, kt_model
from acx.scalars import SS_ONE, SS_ZERO, S_I, PiParam, Scalar, SymScalar


A_GENERIC = PiParam.generic()
A_4PI = PiParam.rational_pi(4)


def unit(dim, i):
    """e_i (1-based) as a coefficient list."""
    return [SS_ONE if k == i - 1 else SS_ZERO for k in range(dim)]


def table_bracket(alg, i, j):
    """[e_i, e_j] read off the brackets table, which holds i < j only:
    [e_j, e_i] = -[e_i, e_j], and [e_i, e_i] = 0."""
    out = [SS_ZERO] * alg.dim
    if i < j:
        for k, c in alg.brackets.get((i, j), {}).items():
            out[k - 1] = c
    elif j < i:
        for k, c in alg.brackets.get((j, i), {}).items():
            out[k - 1] = -c
    return out


def ce_d(alg, form):
    """d on the real exterior algebra (Forms keyed (idx, ())): the graded
    Leibniz rule of forms.d_monomial, fed with the real-basis d of each
    generator, LieAlgebra.d_generator."""
    out = Form.zero(alg.dim)
    for (idx, beta), c in form.terms.items():
        if beta:
            raise ValueError(f"real-basis forms have no barred index, got {beta}")
        piece = d_monomial(alg.dim, idx, beta, lambda A: alg.d_generator(A + 1))
        out = out + piece.scale(c)
    return out


def to_complex(cf, x):
    """Rewrite a real-basis form (keyed (idx, ())) over the complex coframe."""
    out = Form.zero(cf.n)
    for (idx, _), c in x.terms.items():
        piece = reduce(Form.wedge, map(cf.real_covector_form, idx), Form.monomial(cf.n))
        out = out + piece.scale(c)
    return out


def nijenhuis_entry(alg, J, i, j):
    """N(e_i, e_j) = [e_i,e_j] + J[Je_i,e_j] + J[e_i,Je_j] - [Je_i,Je_j]."""
    ei = [SS_ONE if k == i else SS_ZERO for k in range(1, alg.dim + 1)]
    ej = [SS_ONE if k == j else SS_ZERO for k in range(1, alg.dim + 1)]
    Jei, Jej = J.apply(ei), J.apply(ej)
    terms = (alg.bracket_vectors(ei, ej), J.apply(alg.bracket_vectors(Jei, ej)),
             J.apply(alg.bracket_vectors(ei, Jej)), alg.bracket_vectors(Jei, Jej))
    return [a + b + c - d for a, b, c, d in zip(*terms)]


def rand_real_form(rng, alg, degree, density=3):
    """A random real-basis form: a Form over e^1..e^dim keyed (idx, ())."""
    monos = [idx for idx in _index_tuples(alg.dim, degree)]
    out = Form.zero(alg.dim)
    for idx in rng.sample(monos, min(density, len(monos))):
        out = out + Form(alg.dim, {(idx, ()): Fraction(rng.randint(-4, 4))})
    return out


def _index_tuples(dim, degree):
    from itertools import combinations

    return list(combinations(range(1, dim + 1), degree))


class TestLieAlgebra:
    def test_jacobi_violation_is_rejected(self):
        with pytest.raises(InputError):
            LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})

    def test_bracket_key_validation(self):
        with pytest.raises(InputError):
            LieAlgebra(3, {(2, 1): {3: 1}})
        with pytest.raises(InputError):
            LieAlgebra(3, {(1, 2): {5: 1}})

    def test_bracket_antisymmetry_and_bilinearity(self):
        alg = kt_algebra()
        rng = random.Random(51)
        for _ in range(30):
            u = [SymScalar.const(rng.randint(-3, 3)) for _ in range(4)]
            v = [SymScalar.const(rng.randint(-3, 3)) for _ in range(4)]
            w = [SymScalar.const(rng.randint(-3, 3)) for _ in range(4)]
            uv = alg.bracket_vectors(u, v)
            vu = alg.bracket_vectors(v, u)
            assert uv == [-c for c in vu]
            upw = [a + b for a, b in zip(u, w)]
            assert alg.bracket_vectors(upw, v) == [
                a + b for a, b in zip(uv, alg.bracket_vectors(w, v))
            ]

    def test_kt_bracket_table(self):
        alg = kt_algebra()
        assert alg.dim == 4
        e = [None] + [unit(4, i) for i in range(1, 5)]
        assert alg.bracket_vectors(e[2], e[3]) == e[4] == table_bracket(alg, 2, 3)
        assert alg.bracket_vectors(e[3], e[2]) == [-c for c in e[4]]
        assert alg.bracket_vectors(e[1], e[2]) == [SS_ZERO] * 4
        assert alg.is_unimodular()

    def test_differential_of_generators(self):
        alg = kt_algebra()
        assert alg.d_generator(4) == Form(4, {((2, 3), ()): -1})
        for k in (1, 2, 3):
            assert alg.d_generator(k).is_zero()

    def test_ce_differential_squares_to_zero(self):
        alg = kt_algebra()
        rng = random.Random(52)
        for degree in (1, 2):
            for _ in range(10):
                xi = rand_real_form(rng, alg, degree)
                assert ce_d(alg, ce_d(alg, xi)).is_zero()

    def test_ce_d_of_a_generator_is_d_generator(self):
        alg = kt_algebra()
        for k in range(1, alg.dim + 1):
            assert ce_d(alg, Form.monomial(alg.dim, (k,))) == alg.d_generator(k)
        assert ce_d(alg, Form.monomial(alg.dim, (4,))) == Form(4, {((2, 3), ()): -1})


class TestACStructure:
    def test_square_minus_identity_enforced(self):
        with pytest.raises(InputError):
            ACStructure([[1, 0], [0, 1]])
        with pytest.raises(InputError):
            ACStructure([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        J = ACStructure([[0, -1], [1, 0]])
        assert J.dim == 2

    def test_kt_J_needs_nonzero_parameter(self):
        J = kt_J(A_GENERIC)
        a = A_GENERIC.a_value()
        assert J.matrix[2][3] == -a
        assert J.matrix[3][2] == SS_ONE / a


class TestNijenhuis:
    def test_abelian_structures_are_integrable(self):
        model = abelian_model(2)
        tensor = nijenhuis(model.alg, model.J)
        assert tensor == {}
        assert is_integrable(tensor, model.coframe)

    def test_kt_is_never_integrable(self):
        for a in (A_4PI, A_GENERIC):
            alg, J = kt_algebra(), kt_J(a)
            assert not is_integrable(nijenhuis(alg, J), build_coframe(alg, J))

    @pytest.mark.parametrize("model", ["kt", "g2"])
    def test_tensor_reuses_the_J_columns(self, monkeypatch, model):
        from acx import g2, lie

        if model == "kt":
            alg, J = kt_algebra(), kt_J(A_GENERIC)
        else:
            alg, J = g2.g2_algebra(), g2.g2_J()
        calls = []
        true_mat_vec = lie.mat_vec
        monkeypatch.setattr(lie, "mat_vec", lambda m, v: calls.append(1) or true_mat_vec(m, v))
        tensor = nijenhuis(alg, J)
        pairs = alg.dim * (alg.dim - 1) // 2
        # the columns J e_i read off J, then J once per entry, on the sum of
        # the two middle brackets
        assert len(calls) == pairs
        want = {}
        for i in range(1, alg.dim + 1):
            for j in range(i + 1, alg.dim + 1):
                entry = nijenhuis_entry(alg, J, i, j)
                if any(not c.is_zero() for c in entry):
                    want[(i, j)] = entry
        assert tensor == want

    def test_kt_tensor_entries(self):
        alg, J = kt_algebra(), kt_J(A_GENERIC)
        a = A_GENERIC.a_value()
        e3 = [SS_ZERO, SS_ZERO, SS_ONE, SS_ZERO]
        e4 = [SS_ZERO, SS_ZERO, SS_ZERO, SS_ONE]
        # N(e_1, e_2) and N(e_3, e_4) vanish, so the dict has no such key
        assert nijenhuis(alg, J) == {
            (1, 3): [-a * c for c in e3],
            (1, 4): [a * c for c in e4],
            (2, 3): e4,
            (2, 4): [a * a * c for c in e3],
        }

    def test_tensor_identities_in_J(self):
        alg, J = kt_algebra(), kt_J(A_GENERIC)
        for i in range(1, 5):
            for j in range(1, 5):
                Nij = nijenhuis_entry(alg, J, i, j)
                ei = [SS_ONE if k == i - 1 else SS_ZERO for k in range(4)]
                ej = [SS_ONE if k == j - 1 else SS_ZERO for k in range(4)]

                def N(u, v):
                    t1 = alg.bracket_vectors(u, v)
                    t2 = J.apply(alg.bracket_vectors(J.apply(u), v))
                    t3 = J.apply(alg.bracket_vectors(u, J.apply(v)))
                    t4 = alg.bracket_vectors(J.apply(u), J.apply(v))
                    return [x + y + z - w for x, y, z, w in zip(t1, t2, t3, t4)]

                assert N(ei, ej) == Nij
                assert N(J.apply(ei), ej) == [-c for c in J.apply(Nij)]
                assert N(ei, J.apply(ej)) == [-c for c in J.apply(Nij)]


class TestComplexCoframe:
    def test_coframe_rows_have_type_one_zero(self):
        for model in (kt_model(A_GENERIC), kt_model(A_4PI), abelian_model(3)):
            cf = model.coframe
            J = model.J.matrix
            N = 2 * cf.n
            for i in range(1, cf.n + 1):
                row = cf.C[i - 1]
                composed = [
                    sum((row[b] * J[b][c] for b in range(N)), SS_ZERO)
                    for c in range(N)
                ]
                assert composed == [SymScalar.const(Scalar(0, 1)) * c for c in row]

    def test_kt_coframe_rows(self):
        cf = kt_model(A_GENERIC).coframe
        a = A_GENERIC.a_value()
        i = SymScalar.const(Scalar(0, 1))
        assert cf.C[0] == [SS_ONE, i, SS_ZERO, SS_ZERO]
        assert cf.C[1] == [SS_ZERO, SS_ZERO, SS_ONE, i * a]

    def test_dual_frame_columns(self):
        cf = kt_model(A_4PI).coframe
        N = 2 * cf.n
        for B in range(N):
            col = cf.x_vector(B)
            image = [
                sum((cf.C[A][b] * col[b] for b in range(N)), SS_ZERO)
                for A in range(N)
            ]
            assert image == [SS_ONE if A == B else SS_ZERO for A in range(N)]

    def test_real_covectors_roundtrip(self):
        cf = kt_model(A_GENERIC).coframe
        for a in range(1, 5):
            x = cf.real_covector_form(a)
            assert x.conjugate() == x

    def test_complex_d_matches_real_d(self):
        rng = random.Random(53)
        for model in (kt_model(A_GENERIC), kt_model(A_4PI)):
            cf = model.coframe
            for degree in (1, 2, 3):
                for _ in range(6):
                    xi = rand_real_form(rng, model.alg, degree)
                    assert cf.d(to_complex(cf, xi)) == to_complex(cf, ce_d(model.alg, xi))

    def test_d_squares_to_zero_on_complex_forms(self):
        rng = random.Random(54)
        model = kt_model(A_GENERIC)
        cf = model.coframe
        for p in range(3):
            for q in range(3 - p):
                monos = basis_monomials(2, p, q)
                for (al, be) in monos:
                    x = Form.monomial(2, al, be)
                    assert cf.d(cf.d(x)).is_zero()

    def test_dbar_del_decompose_d_on_one_forms(self):
        model = kt_model(A_GENERIC)
        cf = model.coframe
        for i in (1, 2):
            x = Form.phi(2, i)
            d = cf.d(x)
            assert cf.dbar(x) == d.project(1, 1)
            assert cf.del_op(x) == d.project(2, 0)
            assert d == d.project(2, 0) + d.project(1, 1) + d.project(0, 2)


class TestStructureEquations:
    def test_kt_structure_equations(self):
        model = kt_model(A_GENERIC)
        a = A_GENERIC.a_value()
        d_phi2 = model.coframe.d_phi(2)
        n = 2
        assert model.coframe.d_phi(1).is_zero()
        quarter = a / SymScalar.const(4)
        assert d_phi2.project(0, 2) == Form.monomial(n, (), (1, 2), quarter)
        assert d_phi2.project(2, 0) == Form.monomial(n, (1, 2), (), -quarter)
        assert d_phi2.project(1, 1) == (
            Form.monomial(n, (1,), (2,), -quarter)
            + Form.monomial(n, (2,), (1,), -quarter)
        )
        assert not is_integrable(nijenhuis(model.alg, model.J), model.coframe)

    def test_abelian_structure_equations(self):
        model = abelian_model(2)
        assert is_integrable(nijenhuis(model.alg, model.J), model.coframe)
        for i in (1, 2):
            assert model.coframe.d_phi(i).is_zero()


class TestCharacter:
    def test_must_vanish_on_derived_algebra(self):
        alg = kt_algebra()
        Character(alg, [1, 2, 0, 0])
        with pytest.raises(InputError):
            Character(alg, [0, 0, 0, 1])

    def test_lambda_form_on_abelian_model(self):
        model = abelian_model(1)
        c = SymScalar.const(Scalar(0, 2))
        ch = Character(model.alg, [c, SS_ZERO])
        lam = ch.lambda_form(model.coframe)
        half = SymScalar.const(Fraction(1, 2))
        expected = (Form.phi(1, 1) + Form.phibar(1, 1)).scale(half).scale(c)
        assert lam == expected

    def test_conjugate_and_key(self):
        alg = kt_algebra()
        c = SymScalar.const(Scalar(0, 2))
        ch = Character(alg, [c, SS_ZERO, SS_ZERO, SS_ZERO])
        # the Serre check finds the conjugate block by its conjugated key
        assert tuple(v.conjugate() for v in ch.values) == (-c, SS_ZERO, SS_ZERO, SS_ZERO)
        assert ch.key()[0] == c
        assert not ch.is_trivial()


# --- the sparse bracket against the dense loop it replaced

def dense_bracket(alg, u, v):
    """[u, v] by the dense loop over every structure constant."""
    out = [SS_ZERO] * alg.dim
    for (i, j), vec in alg.brackets.items():
        f = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
        if f.is_zero():
            continue
        for k, c in vec.items():
            out[k - 1] = out[k - 1] + f * c
    return out


def dense_jacobi_failures(alg):
    """Each basis triple (1-based), in combinations order, where Jacobi
    fails, as a generator; alg needs only dim and brackets."""
    from itertools import combinations

    basis = [[SS_ONE if k == i else SS_ZERO for k in range(alg.dim)] for i in range(alg.dim)]
    for i, j, k in combinations(range(alg.dim), 3):
        acc = [SS_ZERO] * alg.dim
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            outer = dense_bracket(alg, dense_bracket(alg, basis[a], basis[b]), basis[c])
            acc = [x + y for x, y in zip(acc, outer)]
        if any(not x.is_zero() for x in acc):
            yield i + 1, j + 1, k + 1


def dense_first_jacobi_failure(alg):
    """The first basis triple, in combinations order, where Jacobi fails."""
    return next(dense_jacobi_failures(alg), None)


@pytest.fixture
def sparse_models(nil8_generic):
    from acx import g2

    return {
        "g2": (g2.g2_algebra(), g2.g2_J()),
        "kt": (kt_algebra(), kt_J(A_GENERIC)),
        "nil8": (nil8_generic.alg, nil8_generic.J),
    }


def seeded_vectors(rng, alg, J):
    """Small-integer, symbolic, one-hot, J-image and complex-frame vectors."""
    dim = alg.dim
    x = SymScalar.symbol()
    out = []
    for _ in range(6):
        out.append([SymScalar.const(rng.choice([0, 0, 0, 1, -1, 2, -2])) for _ in range(dim)])
    for _ in range(4):
        vec = []
        for _ in range(dim):
            pick = rng.random()
            c = Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
            if pick < 0.4:
                vec.append(SS_ZERO)
            elif pick < 0.7:
                vec.append(SymScalar.const(c))
            elif pick < 0.85:
                vec.append(x * c + SymScalar.const(rng.randint(-2, 2)))
            else:
                vec.append((x + c) / (x * x + SymScalar.const(rng.randint(1, 3))))
        out.append(vec)
    for k in rng.sample(range(dim), 3):
        out.append([SS_ONE if i == k else SS_ZERO for i in range(dim)])
    out.extend(J.apply(v) for v in list(out[:4]))
    coframe = build_coframe(alg, J)
    out.extend(coframe.x_vector(B) for B in rng.sample(range(dim), 3))
    return out


class TestSparseBracket:
    @pytest.mark.parametrize("name", ["g2", "kt", "nil8"])
    def test_matches_dense_loop(self, sparse_models, name):
        alg, J = sparse_models[name]
        rng = random.Random(f"sparse-bracket-{name}")
        vectors = seeded_vectors(rng, alg, J)
        for u in vectors:
            for v in rng.sample(vectors, 6):
                assert alg.bracket_vectors(u, v) == dense_bracket(alg, u, v)

    def test_basis_brackets_match_the_table(self, sparse_models):
        alg, _ = sparse_models["g2"]
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                got = alg.bracket_vectors(unit(alg.dim, i), unit(alg.dim, j))
                assert got == table_bracket(alg, i, j)

    def test_perturbed_g2_constant_fails_jacobi_at_first_bad_triple(self, sparse_models):
        alg, _ = sparse_models["g2"]
        from types import SimpleNamespace

        keys = sorted(alg.brackets)
        # the last key puts the first failing triple late in the sweep
        for key in random.Random(7).sample(keys[:-1], 2) + [keys[-1]]:
            perturbed = {ij: dict(vec) for ij, vec in alg.brackets.items()}
            k = min(perturbed[key])
            perturbed[key][k] = perturbed[key][k] + 1
            want = dense_first_jacobi_failure(
                SimpleNamespace(dim=alg.dim, brackets=perturbed)
            )
            assert want is not None
            with pytest.raises(InputError, match=r"Jacobi identity fails on basis triple") as exc:
                LieAlgebra(alg.dim, perturbed)
            assert f"({want[0]},{want[1]},{want[2]})" in str(exc.value)

    @pytest.mark.parametrize("name", ["g2", "nil8"])
    def test_perturbing_any_constant_names_the_first_bad_triple(self, sparse_models, name):
        from types import SimpleNamespace

        alg, _ = sparse_models[name]
        # on every bracket key, c^1_ij off by one: nil8 is 2-step nilpotent,
        # so only a non-central output can break Jacobi there
        for key in sorted(alg.brackets):
            perturbed = {ij: dict(vec) for ij, vec in alg.brackets.items()}
            perturbed[key][1] = perturbed[key].get(1, 0) + 1
            want = dense_first_jacobi_failure(
                SimpleNamespace(dim=alg.dim, brackets=perturbed)
            )
            assert want is not None
            with pytest.raises(InputError, match=r"Jacobi identity fails on basis triple") as exc:
                LieAlgebra(alg.dim, perturbed)
            assert str(exc.value).endswith(f"({want[0]},{want[1]},{want[2]})")

    def test_symbolic_structure_constant_is_refused(self):
        x = SymScalar.symbol()
        for c in (x, x / (x + 1)):
            with pytest.raises(InputError) as exc:
                LieAlgebra(3, {(1, 2): {3: c}})
            assert str(exc.value) == (
                f"bracket (1,2): structure constants are Gaussian rationals, got {c}")

    def test_gaussian_rational_failure_names_the_dense_first_triple(
            self, sparse_models, monkeypatch):
        """The constants are lifted to Gaussian integers and swept with no
        SymScalar product; the triple named is the dense loop's first."""
        from types import SimpleNamespace

        alg, _ = sparse_models["g2"]
        broken = []
        for n, key in enumerate(sorted(alg.brackets)[::9]):
            perturbed = {ij: dict(vec) for ij, vec in alg.brackets.items()}
            k = min(perturbed[key])
            # off by 1, by a Gaussian rational, and by a complex unit
            shift = (1, Scalar(Fraction(2, 3), Fraction(-1, 5)), S_I)[n % 3]
            perturbed[key][k] = perturbed[key][k] + shift
            broken.append((alg.dim, perturbed))
        broken.append((3, {(1, 2): {3: Fraction(1, 2)}, (1, 3): {1: Scalar(0, 3)}}))
        wants = [dense_first_jacobi_failure(SimpleNamespace(dim=dim, brackets=brackets))
                 for dim, brackets in broken]
        symbolic_products = []
        product = SymScalar.__mul__
        monkeypatch.setattr(SymScalar, "__mul__",
                            lambda a, b: symbolic_products.append(1) or product(a, b))
        for (dim, brackets), want in zip(broken, wants):
            assert want is not None
            with pytest.raises(InputError) as exc:
                LieAlgebra(dim, brackets)
            assert str(exc.value) == "Jacobi identity fails on basis triple ({},{},{})".format(
                *want)
        assert symbolic_products == []

    def test_jacobi_sweeps_every_basis_triple(self):
        # [e_a, e_b] = e_c and [e_c, e_d] = e_f break Jacobi on {a, b, d}
        # alone, through the outer bracket with e_d: one algebra for each of
        # the 364 triples of a 14-dim basis and each of its cyclic terms
        from itertools import combinations
        from types import SimpleNamespace

        dim = 14
        for n, triple in enumerate(combinations(range(1, dim + 1), 3)):
            c, f = [e for e in range(1, dim + 1) if e not in triple][:2]
            for d in triple:
                a, b = [e for e in triple if e != d]
                brackets = {(a, b): {c: 1}, (min(c, d), max(c, d)): {f: 1 if c < d else -1}}
                if n % 41 == 0:
                    ref = dense_first_jacobi_failure(SimpleNamespace(dim=dim, brackets=brackets))
                    assert ref == triple
                with pytest.raises(InputError, match=r"Jacobi identity fails on basis triple") as exc:
                    LieAlgebra(dim, brackets)
                assert str(exc.value).endswith("({},{},{})".format(*triple))


# --- the coframe choice and the J^2 check against the loops they replaced

def greedy_coframe(alg, J):
    """The greedy loop build_coframe replaced: one rank test per candidate
    eta - i*(eta o J), keeping the first n independent ones, each scaled so
    its leading coefficient is one.  Returns (1-based indices, rows)."""
    N = alg.dim
    n = N // 2
    indices, chosen = [], []
    for a in range(1, N + 1):
        row = []
        for b in range(N):
            c = SS_ONE if b == a - 1 else SS_ZERO
            row.append(c - SymScalar.const(S_I) * J.matrix[a - 1][b])
        if rank(sparse_rows(chosen + [row])) > len(chosen):
            lead = next(c for c in row if not c.is_zero())
            inv = SS_ONE / lead
            chosen.append([c * inv for c in row])
            indices.append(a)
        if len(chosen) == n:
            break
    return indices, chosen


def conjugated_model_pair():
    """An abelian 6-dim algebra with J = P J0 P^-1, J0 the standard pairing."""
    P = [[1, 0, 0, 0, 0, 0],
         [0, 1, 1, 0, 0, 0],
         [0, 0, 1, 0, 0, 0],
         [-1, 0, 0, 1, 0, 1],
         [0, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 1]]
    J0 = abelian_model(3).J.matrix
    return LieAlgebra(6, {}), ACStructure(mat_mul(mat_mul(P, J0), mat_inverse(P)))


class TestCoframeChoice:
    @pytest.mark.parametrize("name", ["kt-rational", "kt-generic", "g2", "nil8", "conjugated"])
    def test_same_rows_as_the_greedy_loop(self, nil8_generic, name):
        from acx import g2

        alg, J = {
            "kt-rational": lambda: (kt_algebra(), kt_J(A_4PI)),
            "kt-generic": lambda: (kt_algebra(), kt_J(A_GENERIC)),
            "g2": lambda: (g2.g2_algebra(), g2.g2_J()),
            "nil8": lambda: (nil8_generic.alg, nil8_generic.J),
            "conjugated": conjugated_model_pair,
        }[name]()
        indices, rows = greedy_coframe(alg, J)
        assert build_coframe(alg, J).C[:alg.dim // 2] == rows
        if name == "conjugated":
            # neither 1..n nor the standard pairing's 1, 3, 5
            assert indices == [1, 2, 4]

    def test_one_elimination_selects_the_rows(self, monkeypatch):
        from acx import lie

        alg, J = conjugated_model_pair()
        calls = []
        real = lie.row_echelon
        monkeypatch.setattr(lie, "row_echelon", lambda rows: calls.append(len(rows)) or real(rows))
        build_coframe(alg, J)
        assert calls == [6]


def dense_square_failure(J):
    """The first entry, in row-major order, where the dense J^2 is not -I."""
    n = len(J)
    for a in range(n):
        for b in range(n):
            got = sum((J[a][k] * J[k][b] for k in range(n)), SS_ZERO)
            if not (got + (SS_ONE if a == b else SS_ZERO)).is_zero():
                return a + 1, b + 1
    return None


class TestSquareCheck:
    def test_error_names_the_first_failing_entry(self):
        from acx import g2

        rng = random.Random("j-square")
        x = SymScalar.symbol()
        for good in (kt_J(A_GENERIC).matrix, g2.g2_J().matrix):
            for _ in range(6):
                bad = [list(row) for row in good]
                a, b = rng.randrange(len(bad)), rng.randrange(len(bad))
                bad[a][b] = bad[a][b] + rng.choice([SS_ONE, x, -SS_ONE / (x + 1)])
                want = dense_square_failure(bad)
                assert want is not None
                with pytest.raises(InputError) as exc:
                    ACStructure(bad)
                assert str(exc.value) == f"J^2 != -I at entry ({want[0]},{want[1]})"



@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LieAlgebra(0), "bad dimension 0"),
        (lambda: LieAlgebra(2, basis_names=["e1"]), "basis_names length must match dim"),
        (lambda: ACStructure([[0, 1], [1]]), "J must be square"),
        (lambda: nijenhuis(kt_algebra(), abelian_model(1).J),
         "J dimension does not match the algebra"),
        (lambda: build_coframe(kt_algebra(), abelian_model(1).J),
         "J dimension does not match the algebra"),
        (lambda: Character(kt_algebra(), [0]),
         "character length must match the algebra dimension"),
        # J^2 = -I, but over C: i*I has no (1,0) coframe with an invertible
        # C, and -i*I no (1,0) candidate at all
        (lambda: LieACS(LieAlgebra(2, {}), ACStructure([[S_I, 0], [0, S_I]])),
         "J is not real at entry (1,1)"),
        (lambda: LieACS(LieAlgebra(2, {}), ACStructure([[-S_I, 0], [0, -S_I]])),
         "J is not real at entry (1,1)"),
    ],
    ids=["dim-0", "short-basis-names", "ragged-J", "nijenhuis-J-of-dim-2",
         "coframe-J-of-dim-2", "short-character", "J-is-i", "J-is-minus-i"],
)
def test_library_refusals_name_their_fault(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message
