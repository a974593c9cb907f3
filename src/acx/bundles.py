"""Pseudoholomorphic structures on trivialized bundles over invariant models.

A PseudoholStructure on a rank-r bundle with fixed unitary frame s_1..s_r is
the matrix theta of invariant (0,1)-forms with dbar_E s_i = sum_j theta[i][j]
tensor s_j, extended to bundle-valued (p,q)-forms by

    dbar_E(x tensor s_i) = dbar(x) tensor s_i + (-1)^(p+q) sum_j x ^ theta[i][j] tensor s_j.

Every twist of dbar is such a theta.  The canonical power K^m is the rank-1
case trivialized by g^m, g the wedge of the phi^i over the model's indices
(LieACS.indices), with theta = beta_m = m * beta_1 where dbar(g) = beta_1 ^ g
(checked).  A character block twists theta as hodge.SectionContext sets out.

The Hermitian connection of a unitary frame is omega = theta - conj(theta)^T;
its (1,0) part theta10 = -conj(theta)^T drives the codifferential.  The dual
structure on E* over the dual frame is theta* = -theta^T.
"""

from __future__ import annotations

from .errors import InputError, InternalCheckError
from .forms import Form, _form
from .lie import LieACS


def _check_01(entry: Form, n: int):
    if entry.is_zero():
        return Form.zero(n)
    if entry.bidegrees() != [(0, 1)]:
        raise InputError(f"structure entries must be (0,1)-forms, got bidegrees {entry.bidegrees()}")
    return entry


class PseudoholStructure:
    def __init__(self, model: LieACS, theta):
        self.model = model
        self.rank = len(theta)
        if self.rank == 0 or any(len(row) != self.rank for row in theta):
            raise InputError("theta must be a square matrix of (0,1)-forms")
        self.theta = [[_check_01(e, model.n) for e in row] for row in theta]
        self.theta10 = [[-row[i].conjugate() for row in self.theta] for i in range(self.rank)]

    def dbar_section(self, comps):
        """dbar_E of sum_i comps[i] tensor s_i; comps are Forms, possibly mixed."""
        return self._twisted(self.model.coframe.dbar, self.theta, comps)

    def connection(self):
        """omega = theta - conj(theta)^T for the unitary frame: theta plus
        its (1,0) part, theta10."""
        return [[t + w for t, w in zip(row, wrow)]
                for row, wrow in zip(self.theta, self.theta10)]

    def nabla10_section(self, comps):
        """The (1,0) covariant derivative of sum_i comps[i] tensor s_i."""
        return self._twisted(self.model.coframe.del_op, self.theta10, comps)

    def _twisted(self, op, matrix, comps):
        """op(x_i) tensor s_i + (-1)^(p+q) x_i ^ matrix[i][j] tensor s_j, summed
        from op(x_i) in slot i: comps holds one Form per frame element."""
        out = [op(x) for x in comps]
        for i, x in enumerate(comps):
            row = [(j, t) for j, t in enumerate(matrix[i]) if not t.is_zero()]
            if not row:
                continue
            signed = _form(x.n, {k: -c if (len(k[0]) + len(k[1])) % 2 else c
                                 for k, c in x.terms.items()})
            for j, t in row:
                out[j] = out[j] + signed.wedge(t)
        return out

    def dual(self) -> "PseudoholStructure":
        """theta* = -theta^T on the dual frame."""
        r = self.rank
        return PseudoholStructure(
            self.model, [[-self.theta[j][i] for j in range(r)] for i in range(r)]
        )


def trivial_structure(model: LieACS, rank: int = 1) -> PseudoholStructure:
    z = Form.zero(model.n)
    return PseudoholStructure(model, [[z] * rank for _ in range(rank)])


class CanonicalPower:
    """K^m over a model, trivialized by g^m, with beta_m = m * beta_1 and
    dbar(g) = beta_1 ^ g; g is the wedge of phi^i over the model's indices,
    so g ^ phibar^i = (-1)^deg(g) phibar^i ^ g gives beta_1's signs."""

    def __init__(self, model: LieACS, m: int):
        if not isinstance(m, int):
            raise InputError(f"bad canonical power {m!r}")
        self.model = model
        self.m = m
        n = model.n
        gen = model.indices
        self.vol = Form.monomial(n, gen, ())
        dvol = model.coframe.dbar(self.vol)
        beta_terms = {}
        for i in range(1, n + 1):
            c = dvol.coefficient(gen, (i,))
            if not c.is_zero():
                beta_terms[((), (i,))] = -c if len(gen) % 2 else c
        self.beta1 = Form(n, beta_terms)
        if self.beta1.wedge(self.vol) != dvol:
            raise InternalCheckError("canonical bundle", "beta_1 does not reproduce dbar(vol)")

    def beta(self, m: int | None = None) -> Form:
        m = self.m if m is None else m
        return self.beta1.scale(m)

    def structure(self) -> PseudoholStructure:
        return PseudoholStructure(self.model, [[self.beta()]])
