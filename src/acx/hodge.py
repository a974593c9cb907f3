"""Hodge theory on the invariant complex of an almost complex model.

Conventions (all exact, all verified against each other in the tests):

  h(phi_alpha ^ phibar_beta, phi_alpha ^ phibar_beta) = 2^(p+q), monomials
  orthogonal; the frame is unitary.

  dV = (i/2)^n phi^1 ^ phibar^1 ^ ... ^ phi^n ^ phibar^n, total volume 1.

  star(phi_alpha ^ phibar_beta)
      = 2^(p+q-n) (-i)^n eps phi_betahat ^ phibar_alphahat,
  where eps is the sign of the permutation taking the source order
  (alpha unprimed, beta primed, betahat primed, alphahat unprimed) to the
  interleaved order (1, 1', 2, 2', ..., n, n').  star is characterized by
  h(x, y) dV = x ^ conj(star y), which the tests' star oracle solves
  directly.

  Harmonic computations are valued in line bundles: K^m, twisted in each
  character block as SectionContext sets out.  The codifferential is
  dbar* = -star nabla10 star, with nabla10 the (1,0) part of the Hermitian
  connection of the unitary frame (del on the trivial bundle).  The
  Laplacian is dbar dbar* + dbar* dbar, and its kernel is ker dbar
  intersect ker dbar* (the one computed, the other certified equal by
  linalg.certify_kernel).

Invariant integration (top coefficient times total volume) is a Stokes-exact
substitute for integration only on unimodular algebras; everything here
refuses non-unimodular input.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .bundles import PseudoholStructure, _power, trivial_structure
from .errors import InputError, InternalCheckError, RefusalError
from .forms import Form, _form, _multi_index, basis_monomials, complement, perm_sign
from .lie import Character, LieACS
from .linalg import certify_kernel, kernel_basis, rank, span_test, sparse_rows
from .scalars import Scalar, SymScalar


_I_POWERS = (Scalar(1), Scalar(0, 1), Scalar(-1), Scalar(0, -1))  # i^k for k mod 4


@lru_cache(maxsize=None)
def star_monomial(n: int, alpha, beta):
    """star of phi_alpha ^ phibar_beta: returns (betahat, alphahat, coeff),
    with coeff a SymScalar.  star maps monomials one to one, so the value is
    cached per (n, alpha, beta): at most 4^n entries for each n."""
    alpha, beta = _multi_index(alpha), _multi_index(beta)
    p, q = len(alpha), len(beta)
    ahat = complement(alpha, n)
    bhat = complement(beta, n)
    # eps sorts the source order into (1, 1', ..., n, n'), where k sits at
    # position 2(k-1) and k' at 2(k-1) + 1
    eps = perm_sign(
        [2 * (i - 1) for i in alpha]
        + [2 * (j - 1) + 1 for j in beta + bhat]
        + [2 * (i - 1) for i in ahat]
    )
    coeff = _I_POWERS[-n % 4] * 2 ** max(p + q - n, 0) / 2 ** max(n - p - q, 0)
    if eps < 0:
        coeff = -coeff
    return bhat, ahat, SymScalar.const(coeff)


def _volume_coeff(n: int) -> SymScalar:
    """dV's coefficient on the canonically ordered top monomial: (i/2)^n,
    signed by the reordering of the interleaved one."""
    c = _I_POWERS[n % 4] / 2 ** n
    if (n * (n - 1) // 2) % 2:
        c = -c
    return SymScalar.const(c)


def volume_form(n: int) -> Form:
    """dV as a Form: (i/2)^n interleaved top monomial, canonically ordered."""
    full = tuple(range(1, n + 1))
    return Form.monomial(n, full, full, _volume_coeff(n))


class HermitianData:
    """Metric data of a model: integration and the star operator."""

    def __init__(self, model: LieACS):
        self.n = model.n
        self.vol_coeff = _volume_coeff(self.n)

    def integral(self, x: Form) -> SymScalar:
        """Integral of an (n,n)-form over the model (total volume 1)."""
        full = tuple(range(1, self.n + 1))
        return x.coefficient(full, full) / self.vol_coeff

    def star(self, x: Form) -> Form:
        return _star(x, self.n, self.n)


def _star(x: Form, n: int, k: int) -> Form:
    """star in complex dimension k, monomial by monomial, of a Form over n."""
    terms = {}
    for (alpha, beta), c in x.terms.items():
        bhat, ahat, coeff = star_monomial(k, alpha, beta)
        terms[(bhat, ahat)] = c * coeff
    return _form(n, terms)


class SectionContext:
    """Invariant (p,q)-forms valued in a line bundle, in one character block.

    A section is a Form, its coefficient on the bundle's one frame element
    (trivial bundle: theta = 0); rank-r structures stay in bundles, and are
    refused here.  A nontrivial character chi, d(chi) = chi lambda with lambda
    imaginary (any other lambda is refused), gives d(chi x) = chi(lambda ^ x
    + dx): chi x is a section of the flat unitary line bundle whose dbar-form
    is lambda^{0,1}.  The coframe's operators act on constant coefficients
    only, so the twist lives in theta, as theta + lambda^{0,1}; the (1,0)
    connection -conj(theta) then picks up lambda^{1,0} by itself.
    """

    def __init__(self, model: LieACS, bundle: PseudoholStructure | None = None,
                 character: Character | None = None):
        self.model = model
        self.data = HermitianData(model)
        bundle = bundle if bundle is not None else trivial_structure(model)
        if bundle.rank != 1:
            raise InputError("harmonic sections are valued in line bundles, "
                             f"not in a bundle of rank {bundle.rank}")
        if character is not None and not character.is_trivial():
            if any(not (v + v.conjugate()).is_zero() for v in character.values):
                raise InputError("a unitary character needs an imaginary lambda")
            twist = character.lambda_form(model.coframe).project(0, 1)
            bundle = PseudoholStructure(model, [[bundle.theta[0][0] + twist]])
        self.bundle = bundle

    def dbar(self, x: Form) -> Form:
        return self.bundle.dbar_section([x])[0]

    def nabla10(self, x: Form) -> Form:
        return self.bundle.nabla10_section([x])[0]

    def dbar_star(self, x: Form) -> Form:
        return -self.data.star(self.nabla10(self.data.star(x)))

    def laplacian(self, x: Form) -> Form:
        return self.dbar(self.dbar_star(x)) + self.dbar_star(self.dbar(x))


def _section_monomials(model: LieACS, p: int, q: int):
    indices = set(model.indices)
    return [(a, b) for a, b in basis_monomials(model.n, p, q)
            if indices.issuperset(a) and indices.issuperset(b)]


def section_count(model: LieACS, p: int, q: int) -> int:
    """len(_section_monomials(model, p, q)), without the list: the column
    count of each operator matrix, one per (p,q) monomial over model.indices,
    as a section is a line-bundle-valued Form.  A negative p or q is refused."""
    if p < 0 or q < 0:
        raise InputError(f"the bidegree ({p},{q}) must be non-negative")
    k = len(model.indices)
    return comb(k, p) * comb(k, q)


class HarmonicBlock:
    def __init__(self, character, monomials, basis):
        self.character = character
        self.monomials = monomials
        self.basis = basis

    @property
    def dimension(self):
        return len(self.basis)

    def basis_sections(self, n):
        """Each basis vector as a Form over the block's monomials."""
        return [_form(n, {self.monomials[j]: c for j, c in vec.items()}) for vec in self.basis]


class HarmonicSpace:
    def __init__(self, blocks):
        self.blocks = blocks

    @property
    def dimension(self):
        return sum(b.dimension for b in self.blocks)


def _operator_matrix(sections, op):
    """Columns: op applied to each of the given sections; rows: the sorted
    monomial keys of the images, each a dict row of the image terms."""
    rows = {}
    for j, x in enumerate(sections):
        for key, c in op(x).terms.items():
            rows.setdefault(key, {})[j] = c
    return [rows[key] for key in sorted(rows)], len(sections)


def invariant_harmonic_space(model: LieACS, p: int, q: int, *,
                             bundle_power: int = 0) -> HarmonicSpace:
    """ker Laplacian on invariant (p,q)-forms valued in K^bundle_power,
    over the model's character blocks.

    Each block's basis K is ker(dbar) intersect ker(dbar*), one elimination;
    certify_kernel proves that the Laplacian's matrix, built on its own from
    ctx.laplacian, has kernel span K.  An undecided block eliminates the
    Laplacian too, and its kernel_basis must equal K.  A model with fewer
    than n indices is refused at q >= 1, where dbar* needs the quotient's star.
    """
    if p < 0 or q < 0:
        raise InputError(f"the bidegree ({p},{q}) must be non-negative")
    if not model.alg.is_unimodular():
        raise InputError(
            "invariant Hodge theory requires a unimodular algebra: "
            "integration by parts fails otherwise"
        )
    if len(model.indices) < model.n and q >= 1:
        raise RefusalError(f"hodge on {model.name} computes (p,0) only: at q >= 1, "
                           "dbar* needs the quotient's own star")
    bundle_power = _power(bundle_power)
    bundle = None if bundle_power == 0 else model.canonical.structure(bundle_power)
    monomials = _section_monomials(model, p, q)
    sections = [Form.monomial(model.n, a, b) for a, b in monomials]
    blocks = []
    for ch in model.characters(bundle_power):
        ctx = SectionContext(model, bundle, ch)
        db_rows, ncols = _operator_matrix(sections, ctx.dbar)
        ds_rows, _ = _operator_matrix(sections, ctx.dbar_star)
        both_kernel = kernel_basis(db_rows + ds_rows, ncols)
        lap_rows, _ = _operator_matrix(sections, ctx.laplacian)
        if not certify_kernel(lap_rows, ncols, both_kernel):
            lap_kernel = kernel_basis(lap_rows, ncols)
            if len(lap_kernel) != len(both_kernel):
                raise InternalCheckError("harmonic kernels", "Laplacian kernel disagrees "
                                         "with ker dbar intersect ker dbar*")
            if lap_kernel != both_kernel:
                raise InternalCheckError("harmonic kernels", "they span different spaces")
        blocks.append(HarmonicBlock(ch, monomials, both_kernel))
    return HarmonicSpace(blocks)


class Report:
    """The outcome of one check, each finding stated once.

    ``shown`` maps findings to the values the command line prints; each
    keyword is a failure list, printed as its length.  Every finding is an
    attribute under its printed key (a key given twice raises TypeError),
    and ``summary()``, the JSON-ready digest the command line prints, is
    derived from them with ``ok`` last.
    """

    def __init__(self, ok: bool, shown=None, **failures):
        shown = shown or {}
        vars(self).update(**shown, **failures)
        self.ok = ok
        self._printed = {**shown, **{k: len(v) for k, v in failures.items()}}

    def summary(self):
        return {**self._printed, "ok": self.ok}


def serre_pairing_check(model: LieACS, p: int, q: int, *,
                        bundle_power: int = 0) -> Report:
    """Does s -> conj(star s) carry harmonic (p,q) E-forms isomorphically
    onto harmonic (n-p, n-q) E*-forms with nonsingular wedge pairing?  Each
    block tests all its images with one linalg.span_test of the target basis.
    """
    n = model.n
    data = HermitianData(model)
    source = invariant_harmonic_space(model, p, q, bundle_power=bundle_power)
    target = invariant_harmonic_space(model, n - p, n - q, bundle_power=-bundle_power)

    def verdict(detail: str = "") -> Report:
        return Report(not detail, {"dim_source": source.dimension,
                                   "dim_target": target.dimension, "detail": detail})

    if source.dimension != target.dimension:
        return verdict("dimension mismatch")
    for sblock in source.blocks:
        ch_bar_key = tuple(v.conjugate() for v in sblock.character.values)
        tblock = next(
            (b for b in target.blocks if b.character.key() == ch_bar_key), None
        )
        if sblock.dimension == 0:
            continue
        if tblock is None:
            return verdict("missing conjugate character block in target")
        if tblock.dimension != sblock.dimension:
            return verdict("character block dimensions differ")
        sources = sblock.basis_sections(n)
        targets = tblock.basis_sections(n)
        images = [data.star(s).conjugate() for s in sources]
        in_target = span_test([t.terms for t in targets])
        if not all(in_target(img.terms) for img in images):
            return verdict("Serre image is not harmonic")
        # pairing matrix between the source basis and its images
        pairing = [[data.integral(s.wedge(img)) for img in images] for s in sources]
        if rank(sparse_rows(pairing)) != len(pairing):
            return verdict("pairing matrix is singular")
    return verdict()
