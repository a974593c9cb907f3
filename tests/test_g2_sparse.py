"""The nonzero-entry loops of the matrix model against dense references.

commutator_matrix and CrossProduct.preserves_form sum over nonzero entries
only.  The dense loops they replaced are kept here as references and must
agree with them on every matrix below.
"""

import itertools
import random
from fractions import Fraction

import pytest

from acx import g2
from acx.scalars import Scalar

N = g2.N


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
        out.append(g2.G2Element(coords[:6], coords[6:]).matrix)
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
        if not cp.is_member(A):
            out.append(A)
    return out


def _rotation():
    # the plain rotation of the (e1, e2) plane fixes no three-form term
    A = [[Scalar(0)] * N for _ in range(N)]
    A[0][1], A[1][0] = Scalar(-1), Scalar(1)
    return A


BASIS = [e.matrix for e in g2.g2_basis().values()]
MEMBERS = _members(random.Random(31), 10)
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
        assert cp.preserves_form(A) == phi_preserves_form(A) == preserved


def test_commutator_matches_dense_reference_on_basis_pairs():
    for A, B in itertools.product(BASIS, repeat=2):
        assert g2.commutator_matrix(A, B) == dense_commutator(A, B)


def test_commutator_matches_dense_reference_on_random_pairs():
    pool = BASIS + MEMBERS + NON_MEMBERS + [ROTATION]
    rng = random.Random(33)
    for _ in range(120):
        A, B = rng.choice(pool), rng.choice(pool)
        assert g2.commutator_matrix(A, B) == dense_commutator(A, B)


def test_twist_form_is_solved_once(monkeypatch):
    # every solve fetches the sphere model exactly once
    solves = []
    model = g2.s6_model
    monkeypatch.setattr(g2, "s6_model", lambda: solves.append(1) or model())
    g2.s6_canonical_twist.cache_clear()
    try:
        assert [g2.s6_plurigenus(m) for m in range(1, 51)] == [1] * 50
    finally:
        g2.s6_canonical_twist.cache_clear()
    assert len(solves) == 1
