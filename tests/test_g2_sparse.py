"""The nonzero-entry loops of the matrix model against dense references.

bracket, CrossProduct.cross, dot, is_member and preserves_form sum over
nonzero entries only (the last two on entries lifted over one
denominator, so a dense matrix is lifted first), G2Element stores only the
nonzero entries of its matrix, as Gaussian integers over one denominator,
and membership_sample_check decides span membership against one reduced
basis.
The loops they replaced are kept here as references and must agree with
them on every input below; the span check is fed faults and must catch
each of them, and g2-verify's sweep sizes are pinned.
"""

import inspect
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from acx import g2
from acx.cli import main
from acx.errors import InputError, RefusalError
from acx.lie import LieAlgebra
from acx.linalg import span_test
from acx.scalars import Scalar, SymScalar

from test_hodge import solve
from test_lie import dense_jacobi_failures

N = g2.N


def lifted(A):
    """The nonzero entries of a dense matrix, lifted as the kernels take them."""
    return g2._lift_matrix(A)[0]


def split(coords):
    """An element's coordinates as G2Element takes them: x, then y."""
    return coords[:g2.X_DIM], coords[g2.X_DIM:]


def _nonzero_rows(A):
    return [[(j, c) for j, c in enumerate(row) if not c.is_zero()] for row in A]


def commutator_matrix(A, B):
    """[A, B] = AB - BA over the nonzero entries of each row: the dense-matrix
    commutator bracket used before elements kept their entries."""
    a_rows, b_rows = _nonzero_rows(A), _nonzero_rows(B)
    z = Scalar(0)
    C = [[z] * N for _ in range(N)]
    for i in range(N):
        for k, a_ik in a_rows[i]:
            for j, b_kj in b_rows[k]:
                C[i][j] = C[i][j] + a_ik * b_kj
        for k, b_ik in b_rows[i]:
            for j, a_kj in a_rows[k]:
                C[i][j] = C[i][j] - b_ik * a_kj
    return C


def dense_commutator(A, B):
    z = Scalar(0)
    AB = [[z] * N for _ in range(N)]
    for i in range(N):
        for k in range(N):
            a_ik = A[i][k]
            b_ik = B[i][k]
            if a_ik.is_zero() and b_ik.is_zero():
                continue
            for j in range(N):
                AB[i][j] = AB[i][j] + a_ik * B[k][j] - b_ik * A[k][j]
    return AB


def phi_preserves_form(A):
    cp = g2.cross_product()
    basis = [g2.basis_vector(c + 1) for c in range(N)]
    image = [tuple(A[r][c] for r in range(N)) for c in range(N)]
    for i, j, k in itertools.combinations(range(N), 3):
        u, v, w = basis[i], basis[j], basis[k]
        total = (
            cp.phi(image[i], v, w) + cp.phi(u, image[j], w) + cp.phi(u, v, image[k])
        )
        if not total.is_zero():
            return False
    return True


def _rand_scalar(rng):
    return Scalar(
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    )


def _members(rng, count):
    out = []
    for _ in range(count):
        coords = [_rand_scalar(rng) for _ in range(14)]
        out.append(g2.G2Element(coords[:6], coords[6:]))
    return out


def _skew_non_members(rng, count):
    cp = g2.cross_product()
    out = []
    while len(out) < count:
        A = [[Scalar(0)] * N for _ in range(N)]
        for i in range(N):
            for j in range(i + 1, N):
                if rng.random() < 0.5:
                    v = _rand_scalar(rng)
                    A[i][j], A[j][i] = v, -v
        if not cp.is_member(lifted(A)):
            out.append(A)
    return out


def _rotation():
    # the plain rotation of the (e1, e2) plane fixes no three-form term
    A = [[Scalar(0)] * N for _ in range(N)]
    A[0][1], A[1][0] = Scalar(-1), Scalar(1)
    return A


BASIS_ELEMENTS = list(g2.g2_basis().values())
MEMBER_ELEMENTS = _members(random.Random(31), 10)
BASIS = [e.matrix for e in BASIS_ELEMENTS]
MEMBERS = [e.matrix for e in MEMBER_ELEMENTS]
NON_MEMBERS = _skew_non_members(random.Random(32), 10)
ROTATION = _rotation()


@pytest.mark.parametrize(
    "matrices, preserved",
    [(BASIS, True), (MEMBERS, True), (NON_MEMBERS, False), ([ROTATION], False)],
    ids=["basis", "members", "skew-non-members", "rotation"],
)
def test_preserves_form_matches_phi_reference(matrices, preserved):
    cp = g2.cross_product()
    for A in matrices:
        assert cp.preserves_form(lifted(A)) == phi_preserves_form(A) == preserved


def _rows(M):
    return [list(row) for row in M]


def test_commutator_matches_dense_reference_on_basis_pairs():
    for a, b in itertools.product(BASIS_ELEMENTS, repeat=2):
        want = dense_commutator(a.matrix, b.matrix)
        assert _rows(g2.bracket(a, b).matrix) == commutator_matrix(a.matrix, b.matrix) == want


def test_commutator_matches_dense_reference_on_random_pairs():
    pool = BASIS_ELEMENTS + MEMBER_ELEMENTS
    rng = random.Random(33)
    for _ in range(120):
        a, b = rng.choice(pool), rng.choice(pool)
        want = dense_commutator(a.matrix, b.matrix)
        assert _rows(g2.bracket(a, b).matrix) == commutator_matrix(a.matrix, b.matrix) == want


def _cancelling_elements():
    # x6 = y4 cancels entry (2,4); x5 = -y3 cancels (2,5); a - a is zero
    yield g2.G2Element((0, 0, 0, 0, 0, 1), (0, 0, 0, 1, 0, 0, 0, 0))
    yield g2.G2Element((0, 0, 0, 0, 2, 0), (0, 0, -2, 0, 0, 0, 0, 0))
    a = MEMBER_ELEMENTS[0]
    yield a - a
    yield a + g2.G2Element(tuple(-c for c in a.coordinates()[:g2.X_DIM]), (0,) * 8)


def test_bracket_is_antisymmetric_and_alternating():
    a, b = (g2.G2Element(*split(e.coordinates())) for e in MEMBER_ELEMENTS[:2])
    zero = g2.G2Element((0,) * 6, (0,) * 8)
    assert g2.bracket(b, a) == -g2.bracket(a, b) and g2.bracket(a, a) == zero


def test_element_holds_only_its_lifted_state():
    assert g2.G2Element.__slots__ == ("den", "_coords", "_entries")
    assert list(inspect.signature(g2._element).parameters) == ["coords", "den"]


def test_entries_hold_no_zero_and_match_the_display():
    brackets = [g2.bracket(a, b) for a, b in zip(MEMBER_ELEMENTS, BASIS_ELEMENTS)]
    for e in BASIS_ELEMENTS + MEMBER_ELEMENTS + brackets + list(_cancelling_elements()):
        assert all(not c.is_zero() for c in e.entries.values())
        assert e.matrix == g2._matrix_from_coordinates(*split(e.coordinates()))
        assert g2.G2Element.from_matrix(e.matrix) == e
    assert list(_cancelling_elements())[2].entries == {}


def test_placement_table_matches_the_display():
    placements = g2._placements()
    assert len(placements) == 14
    for c in range(14):
        unit = [Scalar(int(k == c)) for k in range(14)]
        display = g2._matrix_from_coordinates(unit[:6], unit[6:])
        dense = [[Scalar(0)] * N for _ in range(N)]
        for (i, j), sign in placements[c]:
            assert dense[i][j].is_zero()
            dense[i][j] = Scalar(sign)
        assert _rows(display) == dense


def test_import_builds_no_placement_table():
    code = (
        "import acx.cli, acx.g2; "
        "print(acx.g2._placements.cache_info().currsize, acx.g2.g2_basis.cache_info().currsize)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(g2.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.split() == ["0", "0"]


def dense_span_refusal(A):
    """The dense from_matrix loop: read the coordinates, rebuild the matrix
    from the display, and word the first row-major entry that differs."""
    x = (A[0][1], -A[0][2], A[0][3], -A[0][4], A[0][5], -A[0][6])
    y = (A[1][2], -A[5][6], -A[2][3], A[2][4], A[2][5], -A[2][6], A[4][5], -A[4][6])
    P = g2._matrix_from_coordinates(x, y)
    for i, j in itertools.product(range(N), repeat=2):
        if P[i][j] != A[i][j]:
            return (
                f"matrix is not in the coordinate span: entry ({i + 1},{j + 1}) "
                f"is {A[i][j]}, pattern forces {P[i][j]}"
            )
    return None


def test_off_pattern_commutator_is_refused_at_the_first_bad_entry(monkeypatch):
    """_commutator_entries returns Gaussian-integer entries (re, im) over one
    denominator; the faults are made on Scalar entries and lifted back over
    six times the lcm of their denominators, so the refusal must also render
    unreduced entries in lowest terms."""
    true_entries = g2._commutator_entries
    pool = BASIS_ELEMENTS + MEMBER_ELEMENTS
    rng = random.Random(36)
    positions = list(itertools.product(range(N), repeat=2))
    # one bad entry at each of the 49 places, then several at once
    faults = [[p] for p in positions] + [rng.sample(positions, 3) for _ in range(20)]
    for bad in faults:
        a, b = rng.choice(pool), rng.choice(pool)
        lifted, den = true_entries(a, b)
        E = {p: Scalar(Fraction(r, den), Fraction(i, den)) for p, (r, i) in lifted.items()}
        for p in bad:
            E[p] = E.get(p, Scalar(0)) + Scalar(rng.choice([1, -2]), rng.randint(0, 1))
        E = {p: c for p, c in E.items() if not c.is_zero()}
        dense = [[E.get((i, j), Scalar(0)) for j in range(N)] for i in range(N)]
        want = dense_span_refusal(dense)
        assert want is not None
        with pytest.raises(InputError) as exc:
            g2.G2Element.from_matrix(dense)
        assert str(exc.value) == want
        den = 6 * math.lcm(*(c.d for c in E.values()))
        lifted = {p: (c.a * (den // c.d), c.b * (den // c.d)) for p, c in E.items()}
        monkeypatch.setattr(g2, "_commutator_entries", lambda a, b, E=(lifted, den): E)
        with pytest.raises(RefusalError) as exc:
            g2.bracket(a, b)
        assert str(exc.value) == f"commutator left the coordinate span; matrix model bug: {want}"


@pytest.mark.parametrize("pair, wrong", [(("f1", "f2"), "h3"), (("h1", "h2"), "f1")])
def test_g2_verify_fails_on_a_wrong_bracket_inside_the_span(monkeypatch, capsys, pair, wrong):
    basis = g2.g2_basis()
    true_bracket = g2.bracket
    a, b = (basis[n] for n in pair)

    def bracket(u, v):
        out = true_bracket(u, v)
        return out + basis[wrong] if (u, v) == (a, b) else out

    monkeypatch.setattr(g2, "bracket", bracket)
    assert main(["g2-verify", "--samples", "2", "--negatives", "1"]) == 1
    table = json.loads(capsys.readouterr().out)["bracket_table"]
    assert table["ok"] is False
    assert table["mismatches"] + table["jacobi_failures"] > 0


def test_canonical_bundle_is_built_once_for_50_levels(monkeypatch):
    builds = []
    canonical = g2.CanonicalPower
    monkeypatch.setattr(
        g2, "CanonicalPower", lambda *args: builds.append(args) or canonical(*args)
    )
    g2._s6_canonical.cache_clear()
    try:
        assert [g2.s6_plurigenus(m) for m in range(1, 51)] == [1] * 50
    finally:
        g2._s6_canonical.cache_clear()
    assert builds == [(g2.s6_model(), 1)]


def perturb_brackets(monkeypatch, shifts):
    """Patch g2.bracket so that [e_u, e_v] gains s * e_w, and [e_v, e_u]
    loses it, for each ((u, v), w, s) in shifts; return the structure
    constants this gives, built independently from g2_algebra's."""
    basis = g2.g2_basis()
    index = {name: k for k, name in enumerate(g2.BASIS_NAMES, 1)}
    brackets = {ij: dict(vec) for ij, vec in g2.g2_algebra().brackets.items()}
    extra = {}
    for (u, v), w, s in shifts:
        extra[u, v], extra[v, u] = (
            g2.G2Element(*split([t if n == w else 0 for n in g2.BASIS_NAMES])) for t in (s, -s))
        i, j = index[u], index[v]
        if i > j:
            i, j, s = j, i, -s
        vec = brackets.setdefault((i, j), {})
        vec[index[w]] = vec.get(index[w], SymScalar.const(0)) + SymScalar.const(s)
    names = {id(e): name for name, e in basis.items()}
    true_bracket = g2.bracket

    def bracket(a, b):
        out = true_bracket(a, b)
        shift = extra.get((names.get(id(a)), names.get(id(b))))
        return out if shift is None else out + shift

    monkeypatch.setattr(g2, "bracket", bracket)
    return brackets


def dense_failure_names(brackets):
    """dense_jacobi_failures on these constants, by basis name."""
    alg = SimpleNamespace(dim=g2.X_DIM + g2.Y_DIM, brackets=brackets)
    return [tuple(g2.BASIS_NAMES[t - 1] for t in triple) for triple in dense_jacobi_failures(alg)]


@pytest.mark.parametrize("pair, wrong", [(("f1", "f2"), "h3"), (("h1", "f4"), "f1")])
def test_coordinate_jacobi_sum_reports_the_same_triples(monkeypatch, pair, wrong):
    want = dense_failure_names(perturb_brackets(monkeypatch, [(pair, wrong, 1)]))
    assert want
    assert g2.verify_bracket_table().jacobi_failures == want


def test_coordinate_jacobi_sum_brings_denominators_together(monkeypatch):
    """[f5, f4], [h2, f2] and [h4, f3] gain 1/2, 1/3 and -5/6 times h1.  The
    triple (f2, f3, f4) reaches them through [f2, f3] = f5 - h3,
    [f3, f4] = h2 and [f4, f2] = h4, so its sum changes by
    (1/2 + 1/3 - 5/6) h1 = 0, which holds only over a common denominator;
    other triples reach only some of them and fail."""
    shifts = [(("f5", "f4"), "h1", Fraction(1, 2)), (("h2", "f2"), "h1", Fraction(1, 3)),
              (("h4", "f3"), "h1", Fraction(-5, 6))]
    want = dense_failure_names(perturb_brackets(monkeypatch, shifts))
    assert want and ("f2", "f3", "f4") not in want
    assert g2.verify_bracket_table().jacobi_failures == want


def test_perturbed_commutators_fail_g2_verify_and_the_algebra(monkeypatch, capsys):
    """g2-verify's Jacobi sweep and LieAlgebra's are one: on the same
    perturbed commutators the first lists the dense reference's triples
    and the second refuses on the first of them."""
    brackets = perturb_brackets(monkeypatch, [(("f1", "f3"), "h5", Fraction(2, 3))])
    want = dense_failure_names(brackets)
    assert len(want) > 1
    reports = []
    verify = g2.verify_bracket_table
    monkeypatch.setattr(g2, "verify_bracket_table", lambda: reports.append(verify()) or reports[-1])
    assert main(["g2-verify", "--samples", "2", "--negatives", "1"]) == 1
    table = json.loads(capsys.readouterr().out)["bracket_table"]
    assert (table["jacobi_failures"], table["ok"]) == (len(want), False)
    assert reports[0].jacobi_failures == want
    with pytest.raises(InputError) as exc:
        LieAlgebra(g2.X_DIM + g2.Y_DIM, g2._basis_brackets())
    first = [g2.BASIS_NAMES.index(name) + 1 for name in want[0]]
    assert str(exc.value) == "Jacobi identity fails on basis triple ({},{},{})".format(*first)


def test_catalogue_pairs_are_in_basis_order():
    # verify_bracket_table looks each pair up among the commutators [e_i, e_j], i < j
    order = {name: k for k, name in enumerate(g2.BASIS_NAMES)}
    assert all(order[a] < order[b] for a, b in g2.REFERENCE_BRACKET_TABLE)


def test_scalar_coordinates_are_kept_and_others_coerced():
    coords = [Scalar(k, -k) for k in range(g2.X_DIM + g2.Y_DIM)]
    elem = g2.G2Element(coords[:g2.X_DIM], coords[g2.X_DIM:])
    assert elem.coordinates() == tuple(coords)
    mixed = g2.G2Element([1, Fraction(1, 2)] + [0] * (g2.X_DIM - 2),
                         [Fraction(-3, 4)] + [0] * (g2.Y_DIM - 1))
    assert mixed.coordinates()[:2] == (Scalar(1), Scalar(Fraction(1, 2)))
    assert mixed.coordinates()[g2.X_DIM] == Scalar(Fraction(-3, 4))
    for bad in (0.5, "x", None):
        with pytest.raises(TypeError):
            g2.G2Element([bad] + [0] * (g2.X_DIM - 1), [0] * g2.Y_DIM)
    with pytest.raises(InputError):
        g2.G2Element([Scalar(1)] * g2.X_DIM, [Scalar(1)])


def dense_cross(u, v):
    """u x v over all 42 epsilon terms, zero components included."""
    out = [Scalar(0)] * N
    for (i, j, k), sign in g2._epsilon().items():
        term = u[i - 1] * v[j - 1]
        out[k - 1] = out[k - 1] + (term if sign > 0 else -term)
    return tuple(out)


def dense_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Scalar(0))


def dense_is_member(A):
    """Skew-symmetry on all 49 ordered pairs, then each row's contraction
    filtered from all 42 epsilon terms."""
    for i in range(N):
        for j in range(N):
            if A[i][j] != -A[j][i]:
                return False
    for i in range(1, N + 1):
        acc = Scalar(0)
        for (ii, j, k), sign in g2._epsilon().items():
            if ii != i:
                continue
            term = A[j - 1][k - 1]
            acc = acc + (term if sign > 0 else -term)
        if not acc.is_zero():
            return False
    return True


def dense_span_decision(A):
    """The membership test's span decision as one elimination per sample:
    whether B c = flat(A) has a solution c, for the matrix B whose columns
    are the fourteen flattened basis matrices."""
    basis_vectors = [[c for row in e.matrix for c in row] for e in BASIS_ELEMENTS]
    cols = [list(row) for row in zip(*basis_vectors)]
    return solve(cols, [A[i][j] for i in range(N) for j in range(N)]) is not None


def _rand_vector(rng):
    return tuple(_rand_scalar(rng) if rng.random() < 0.6 else Scalar(0) for _ in range(N))


def test_cross_and_dot_match_dense_reference_on_basis_pairs():
    cp = g2.cross_product()
    basis = [g2.basis_vector(k) for k in range(1, N + 1)]
    for u, v in itertools.product(basis, repeat=2):
        assert cp.cross(u, v) == dense_cross(u, v)
        assert cp.dot(u, v) == dense_dot(u, v)


def test_cross_and_dot_match_dense_reference_on_random_vectors():
    cp = g2.cross_product()
    rng = random.Random(37)
    for _ in range(60):
        u, v = _rand_vector(rng), _rand_vector(rng)
        assert cp.cross(u, v) == dense_cross(u, v)
        assert cp.dot(u, v) == dense_dot(u, v)
        assert cp.dot(cp.cross(u, v), u).is_zero()
    # raw components are coerced as before
    raw = [1, Fraction(1, 2), 0, -3, 0, 0, 2]
    coerced = tuple(Scalar(c) for c in raw)
    assert cp.cross(raw, raw[::-1]) == dense_cross(coerced, coerced[::-1])
    assert cp.dot(raw, raw) == dense_dot(coerced, coerced)


def _single_entry_perturbations(A, rng):
    for i, j in itertools.product(range(N), repeat=2):
        B = [list(row) for row in A]
        B[i][j] = B[i][j] + Scalar(rng.choice([1, -2]), rng.randint(0, 1))
        yield B


def _non_skew(rng, count):
    out = []
    for _ in range(count):
        A = [[_rand_scalar(rng) if rng.random() < 0.5 else Scalar(0) for _ in range(N)]
             for _ in range(N)]
        out.append(A)
    return out


def test_is_member_matches_dense_reference():
    cp = g2.cross_product()
    rng = random.Random(38)
    for A in BASIS + MEMBERS:
        assert cp.is_member(lifted(A)) is dense_is_member(A) is True
    for A in NON_MEMBERS + [ROTATION]:
        assert cp.is_member(lifted(A)) is dense_is_member(A) is False
    for A in _non_skew(rng, 20):
        assert cp.is_member(lifted(A)) is dense_is_member(A) is False
    # every single-entry change of a member breaks skew-symmetry
    for A in MEMBERS[:3]:
        for B in _single_entry_perturbations(A, rng):
            assert cp.is_member(lifted(B)) is dense_is_member(B) is False
    # a skew change at one pair keeps skew-symmetry and may leave the algebra
    for A in MEMBERS[:2]:
        for i, j in itertools.combinations(range(N), 2):
            B = [list(row) for row in A]
            v = _rand_scalar(rng)
            B[i][j], B[j][i] = B[i][j] + v, B[j][i] - v
            assert cp.is_member(lifted(B)) == dense_is_member(B)


def dense_preserves_form(A):
    """The invariance test over Scalars as it ran before the lifted kernel:
    on each of the 35 basis triples (i, j, k), the sum over all seven l of
    A[l][i] eps(l,j,k) + A[l][j] eps(i,l,k) + A[l][k] eps(i,j,l)."""
    eps = g2._epsilon()
    for triple in itertools.combinations(range(1, N + 1), 3):
        total = Scalar(0)
        for slot, c in enumerate(triple):
            for l in range(1, N + 1):
                sign = eps.get(triple[:slot] + (l,) + triple[slot + 1:])
                if sign:
                    a = A[l - 1][c - 1]
                    total = total + a if sign > 0 else total - a
        if not total.is_zero():
            return False
    return True


def _random_matrix(rng, skew):
    A = [[Scalar(0)] * N for _ in range(N)]
    for i in range(N):
        for j in range(i + 1 if skew else 0, N):
            if rng.random() < 0.6:
                A[i][j] = _rand_scalar(rng)
                if skew:
                    A[j][i] = -A[i][j]
    return A


def test_lifted_kernels_match_dense_references_on_random_matrices():
    """is_member and preserves_form decide on lifted integer entries; they
    must agree with the Scalar loops on skew and non-skew matrices with
    complex entries over denominators other than one."""
    cp = g2.cross_product()
    rng = random.Random(43)
    matrices = []
    for e in GAUSSIAN_ELEMENTS:
        A = [list(row) for row in e.matrix]
        i, j = rng.sample(range(N), 2)
        v = _rand_scalar(rng)
        skew, plain = [list(row) for row in A], [list(row) for row in A]
        skew[i][j], skew[j][i] = skew[i][j] + v, skew[j][i] - v
        plain[i][j] = plain[i][j] + v
        matrices += [A, _scaled(A, _rand_scalar(rng)), skew, plain]
    for _ in range(15):
        matrices += [_random_matrix(rng, True), _random_matrix(rng, False)]
    outcomes = set()
    for A in matrices:
        member, preserved = dense_is_member(A), dense_preserves_form(A)
        E, den = g2._lift_matrix(A)
        assert cp.is_member(E) is member
        assert cp.preserves_form(E) is preserved
        outcomes.add((member, preserved, den > 1))
    assert {(True, True, True), (False, False, True)} <= outcomes
    # g2-verify hands an element's own entries, over den > 1 here, to the kernels
    for e in GAUSSIAN_ELEMENTS:
        assert e.den > 1
        assert cp.is_member(e._entries) is dense_is_member(e.matrix) is True
        assert cp.preserves_form(e._entries) is dense_preserves_form(e.matrix) is True


def test_span_test_matches_dense_reference():
    in_basis_span = span_test([e.entries for e in BASIS_ELEMENTS])
    rng = random.Random(39)
    samples = list(MEMBERS) + list(NON_MEMBERS)
    # members plus a skew non-member leave the span; members scaled stay in it
    for A, B in zip(MEMBERS, NON_MEMBERS):
        samples.append([[a + b for a, b in zip(r, s)] for r, s in zip(A, B)])
        c = _rand_scalar(rng)
        samples.append([[a * c for a in r] for r in A])
    for _ in range(20):
        A = [[Scalar(0)] * N for _ in range(N)]
        for i in range(N):
            for j in range(i + 1, N):
                v = Scalar(rng.randint(-9, 9))
                A[i][j], A[j][i] = v, -v
        samples.append(A)
    decisions = []
    for A in samples:
        decisions.append(in_basis_span({(i, j): A[i][j] for i in range(N) for j in range(N)}))
        assert decisions[-1] is dense_span_decision(A)
    assert True in decisions and False in decisions


def test_g2_verify_sweep_sizes(monkeypatch, capsys):
    """g2-verify through the CLI: the 91 basis commutators and no bracket
    of any other element, 110 decisions of the lifted membership kernel (100 members and 10
    non-members), 10 span decisions against one reduced basis, 14
    form-preservation decisions, and the cross identities on all 49 basis
    pairs."""
    counts = {}
    dot_pairs = set()
    basis_ids = {id(e) for e in BASIS_ELEMENTS}

    def count(key):
        counts[key] = counts.get(key, 0) + 1

    def wrap(name, f, key=None):
        def wrapper(*args):
            count(key(*args) if key else name)
            return f(*args)
        return wrapper

    def bracket_kind(a, b):
        return "pair bracket" if id(a) in basis_ids and id(b) in basis_ids else "outer bracket"

    def dot(u, v):
        dot_pairs.add((tuple(u), tuple(v)))
        count("dot")
        return true_dot(u, v)

    def counting_span_test(vectors):
        count("reduced basis")
        return wrap("span decision", true_span_test(vectors))

    true_dot = g2.CrossProduct.dot
    true_span_test = g2.span_test
    monkeypatch.setattr(g2, "bracket", wrap("bracket", g2.bracket, bracket_kind))
    monkeypatch.setattr(g2, "span_test", counting_span_test)

    def decision(name, f):
        def wrapper(*args):
            out = f(*args)
            count(f"{name} {out}")
            return out
        return wrapper

    for name in ("is_member", "preserves_form"):
        monkeypatch.setattr(g2.CrossProduct, name, decision(name, getattr(g2.CrossProduct, name)))
    monkeypatch.setattr(g2.CrossProduct, "dot", staticmethod(dot))
    assert main(["g2-verify"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert counts == {
        "pair bracket": 91,
        "is_member True": 100,
        "is_member False": 10,
        "reduced basis": 1,
        "span decision": 10,
        "preserves_form True": 14,
        "dot": 3 * 49,
    }
    basis = [g2.basis_vector(k) for k in range(1, N + 1)]
    assert set(itertools.product(basis, repeat=2)) <= dot_pairs


def _gaussian_elements(rng, count):
    """Elements with coordinates over denominators up to 12 and nonzero
    imaginary parts, so the lifted denominator is not one."""
    out = []
    while len(out) < count:
        coords = [
            Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                   Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
            if rng.random() < 0.7 else Scalar(0)
            for _ in range(14)
        ]
        elem = g2.G2Element(coords[:6], coords[6:])
        if elem.den > 1 and any(c.im for c in elem.coordinates()):
            out.append(elem)
    return out


GAUSSIAN_ELEMENTS = _gaussian_elements(random.Random(40), 12)


def test_bracket_matches_dense_commutator_read_back_through_from_matrix():
    pool = GAUSSIAN_ELEMENTS + BASIS_ELEMENTS[:4]
    seen_denominators = set()
    for a, b in itertools.product(pool, repeat=2):
        got = g2.bracket(a, b)
        want = g2.G2Element.from_matrix(dense_commutator(a.matrix, b.matrix))
        assert got == want and hash(got) == hash(want)
        assert _rows(got.matrix) == dense_commutator(a.matrix, b.matrix)
        seen_denominators.add(got.den)
    assert max(seen_denominators) > 1


def _scaled(A, c):
    return [[a * c for a in row] for row in A]


def test_is_member_matches_dense_reference_on_gaussian_rational_matrices():
    cp = g2.cross_product()
    rng = random.Random(41)
    members = [e.matrix for e in GAUSSIAN_ELEMENTS]
    members += [_scaled(A, Scalar(Fraction(2, 7), Fraction(-1, 3))) for A in members[:4]]
    for A in members:
        assert cp.is_member(lifted(A)) is dense_is_member(A) is True
    non_members = list(NON_MEMBERS)
    for A in members[:6]:
        # equal numerators over different denominators are not skew
        i, j = rng.sample(range(N), 2)
        B = [list(row) for row in A]
        B[i][j], B[j][i] = Scalar(Fraction(1, 2)), Scalar(Fraction(-1, 3))
        non_members.append(B)
        # a skew change at one pair keeps skew-symmetry but leaves the algebra
        v = Scalar(Fraction(rng.randint(1, 9), rng.randint(2, 12)), Fraction(1, 5))
        B = [list(row) for row in A]
        B[i][j], B[j][i] = B[i][j] + v, B[j][i] - v
        non_members.append(B)
    for A in non_members:
        assert cp.is_member(lifted(A)) is dense_is_member(A) is False
    # the first contraction sums terms over three different denominators
    # that cancel: the element y1 = 1/2, y2 = 5/6
    E = [[Scalar(0)] * N for _ in range(N)]
    for (j, k), c in (((1, 2), Fraction(1, 2)), ((3, 4), Fraction(1, 3)),
                      ((5, 6), Fraction(-5, 6))):
        E[j][k], E[k][j] = Scalar(c), Scalar(-c)
    assert cp.is_member(lifted(E)) is dense_is_member(E) is True
    assert g2.G2Element.from_matrix(E) == g2.G2Element(
        (0,) * 6, (Fraction(1, 2), Fraction(5, 6)) + (0,) * 6
    )
    # the contractions read the upper triangle only: a lower entry with the
    # right numerator over another denominator breaks skew-symmetry alone
    F = [list(row) for row in E]
    F[2][1] = Scalar(Fraction(-1, 3))
    assert cp.is_member(lifted(F)) is dense_is_member(F) is False
    E[5][6], E[6][5] = Scalar(Fraction(-4, 5)), Scalar(Fraction(4, 5))
    assert cp.is_member(lifted(E)) is dense_is_member(E) is False


def test_the_four_constructions_agree_on_equality_and_hash():
    rng = random.Random(42)
    for _ in range(20):
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(14)]
        from_scalars = g2.G2Element([Scalar(v) for v in values[:6]],
                                    [Scalar(v) for v in values[6:]])
        from_numbers = g2.G2Element(
            [int(v) if v.denominator == 1 else v for v in values[:6]], values[6:]
        )
        from_matrix = g2.G2Element.from_matrix(from_scalars.matrix)
        # [h1, e] + (e - [h1, e]) is e through a bracket result
        h1 = g2.g2_basis()["h1"]
        through_bracket = g2.bracket(h1, from_numbers) + (from_scalars - g2.bracket(h1, from_scalars))
        built = [from_scalars, from_numbers, from_matrix, through_bracket]
        for e in built:
            assert e == from_scalars and hash(e) == hash(from_scalars)
            assert e.coordinates() == tuple(Scalar(v) for v in values)
            assert e.entries == from_scalars.entries
        assert len(set(built)) == 1
    # a bracket result equals the element built from its coordinates
    a, b = GAUSSIAN_ELEMENTS[:2]
    ab = g2.bracket(a, b)
    rebuilt = g2.G2Element(*split(ab.coordinates()))
    assert rebuilt == ab and hash(rebuilt) == hash(ab) and rebuilt.den == ab.den
    assert g2.G2Element((0,) * 6, (0,) * 8) == ab - ab and hash(ab - ab) == hash(g2.G2Element((0,) * 6, (0,) * 8))
