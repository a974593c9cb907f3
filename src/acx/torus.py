"""Torus-family models: exact trigonometric polynomials, plurigenera,
irregularity, Riemann-Roch curve profiles, products, and Kodaira dimension.

Coefficient bookkeeping is exact throughout: trigonometric polynomials carry
Gaussian-rational-times-pi-power coefficients, Fourier-mode solvability is
decided in closed form, and growth classification uses exact finite
differences -- never floating point.  The immutable values here
(scalars._Frozen) fill their slots with object.__setattr__.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import InputError, InternalCheckError, RefusalError
from .scalars import S_I, S_ONE, PiParam, Scalar, SymScalar, _Frozen

Freq = Tuple[int, ...]

DEFAULT_PROFILE_LENGTH = 12
# The fewest values a profile classifies; the CLI checks --length and
# s6-report --levels against it before any model is built.
MIN_PROFILE_LENGTH = 4
# The window of the Fourier-mode cross-check oracles: they test
# (2 * MODE_WINDOW + 1)^2 modes per level.  The main solvers never enumerate.
MODE_WINDOW = 32


def mode_window() -> int:
    """Enumeration window for the Fourier-mode cross-check oracles (the
    benchmark's tracer, perfbench/tracer.py, counts modes through it)."""
    return MODE_WINDOW


# ---------------------------------------------------------------------------
# Trigonometric polynomials
# ---------------------------------------------------------------------------

# the coefficients 1/2 and i/2 of cos, sin and the Wirtinger derivatives
_HALF = SymScalar.const(S_ONE / 2)
_HALF_I = SymScalar.const(S_I / 2)


class TrigPoly(_Frozen):
    """A finite Fourier sum sum_nu c_nu exp(2*pi*i nu.x) on a k-torus.

    Coefficients are SymScalar values whose symbol stands for pi, so the
    coordinate derivatives (multiplication by 2*pi*i*nu_j) stay exact.
    """

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms: Dict[Freq, Union[SymScalar, Scalar, int]]):
        k = int(k)
        if k < 1:
            raise InputError("torus dimension must be at least 1")
        clean: Dict[Freq, SymScalar] = {}
        for freq, coeff in terms.items():
            freq = tuple(int(n) for n in freq)
            if len(freq) != k:
                raise InputError(
                    f"frequency {freq} does not match torus dimension {k}"
                )
            value = SymScalar.coerce(coeff)
            if not value.is_zero():
                clean[freq] = value
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", clean)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def cos2pi(k: int, freq: Sequence[int]) -> "TrigPoly":
        """cos(2*pi freq.x) = (e_+ + e_-)/2."""
        nu = tuple(int(n) for n in freq)
        return TrigPoly(k, {nu: _HALF}) + TrigPoly(k, {tuple(-n for n in nu): _HALF})

    @staticmethod
    def sin2pi(k: int, freq: Sequence[int]) -> "TrigPoly":
        """sin(2*pi freq.x) = (e_+ - e_-)/(2i), and 1/(2i) = -i/2."""
        nu = tuple(int(n) for n in freq)
        return TrigPoly(k, {nu: -_HALF_I}) + TrigPoly(k, {tuple(-n for n in nu): _HALF_I})

    # -- ring structure ------------------------------------------------------

    def _check_same_torus(self, other: "TrigPoly") -> None:
        if self.k != other.k:
            raise InputError("trigonometric polynomials live on different tori")

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        self._check_same_torus(other)
        terms = dict(self.terms)
        for freq, coeff in other.terms.items():
            terms[freq] = terms.get(freq, SymScalar.const(0)) + coeff
        return TrigPoly(self.k, terms)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly(self.k, {f: -c for f, c in self.terms.items()})

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def scale(self, value) -> "TrigPoly":
        value = SymScalar.coerce(value)
        return TrigPoly(self.k, {f: c * value for f, c in self.terms.items()})

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        self._check_same_torus(other)
        terms: Dict[Freq, SymScalar] = {}
        for fa, ca in self.terms.items():
            for fb, cb in other.terms.items():
                freq = tuple(a + b for a, b in zip(fa, fb))
                prod = ca * cb
                terms[freq] = terms.get(freq, SymScalar.const(0)) + prod
        return TrigPoly(self.k, terms)

    def conjugate(self) -> "TrigPoly":
        return TrigPoly(
            self.k,
            {
                tuple(-n for n in freq): coeff.conjugate()
                for freq, coeff in self.terms.items()
            },
        )

    # -- calculus ------------------------------------------------------------

    def partial(self, j: int) -> "TrigPoly":
        """d/dx_j: multiplies each coefficient by 2*pi*i*nu_j, exactly."""
        if not 0 <= j < self.k:
            raise InputError(f"coordinate index {j} out of range for k={self.k}")
        terms: Dict[Freq, SymScalar] = {}
        for freq, coeff in self.terms.items():
            factor = SymScalar.symbol(coeff=Scalar(0, 2 * freq[j]))
            terms[freq] = coeff * factor
        return TrigPoly(self.k, terms)

    def wirtinger(self) -> "TrigPoly":
        """d/dw for w = x_1 + i x_2: (1/2)(d/dx_1 - i d/dx_2)."""
        return self.partial(0).scale(_HALF) + self.partial(1).scale(-_HALF_I)

    def wirtinger_bar(self) -> "TrigPoly":
        """d/dwbar for w = x_1 + i x_2: (1/2)(d/dx_1 + i d/dx_2)."""
        return self.partial(0).scale(_HALF) + self.partial(1).scale(_HALF_I)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        """True when c_{-nu} = conjugate(c_nu) for every frequency."""
        return self.conjugate() == self

    def is_constant(self) -> bool:
        return all(all(n == 0 for n in freq) for freq in self.terms)

    def _key(self):
        return self.k, self.terms

    def __repr__(self):
        return f"TrigPoly(k={self.k}, {len(self.terms)} terms)"

    def to_str(self, symbol: str = "pi") -> str:
        if not self.terms:
            return "0"
        parts = []
        for freq in sorted(self.terms):
            coeff = self.terms[freq].to_str(symbol)
            parts.append(f"({coeff})*e{list(freq)}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Kodaira-Thurston family: closed-form Fourier-mode solvability
# ---------------------------------------------------------------------------
#
# Pluricanonical and irregularity data reduce, after the fiber-constancy
# reduction (an analytic fact on the compact fiber, applied as a rule, not
# re-proved), to mode equations of the shape
#
#     coeff * a + pi*(i*k - l) = 0          over modes (k, l) in Z^2
#
# for a rational coefficient `coeff`.  The solvable modes are closed-form.


def kt_solvable_modes(a: PiParam, coeff) -> List[Tuple[int, int]]:
    """All (k, l) in Z^2 with coeff*a + pi*(i*k - l) = 0, in closed form.

    The real part forces l = coeff*(a/pi) and the imaginary part forces
    k = 0; on the generic branch a/pi is irrational so only coeff = 0
    contributes (the constants).
    """
    coeff = Scalar(coeff)
    if not coeff:
        return [(0, 0)]
    if a.kind == "rational_pi":
        l = coeff * a.q
        if l.d == 1:
            return [(0, l.a)]
    return []


def _mode_solves(k: int, l: int, target: Optional[int]) -> bool:
    """The oracle's per-mode test: (k, l) is the one mode (0, target)."""
    return k == 0 and l == target


def kt_mode_oracle(a: PiParam, coeff) -> List[Tuple[int, int]]:
    """Cross-check oracle: test each mode of the window mode_window() exactly.

    coeff*a + pi*(i*k - l) vanishes only at k = 0 and one l, the target,
    worked out once per call: l = coeff*q on the rational branch a = q*pi,
    if that is an integer; on the generic branch, where a and pi are
    rationally independent, l = 0 if coeff = 0; else no mode solves.
    """
    window = mode_window()
    coeff = Scalar(coeff)
    target = None
    if a.kind == "rational_pi":
        l = coeff * a.q
        target = l.a if l.d == 1 else None
    elif not coeff:
        target = 0
    modes = range(-window, window + 1)
    return [(k, l) for k in modes for l in modes if _mode_solves(k, l, target)]


def kt_mode_cross_check(a: PiParam, levels: Sequence[int]) -> None:
    """Re-derive the closed-form modes of each plurigenus level m (the
    coefficient m/4) by kt_mode_oracle, within the window."""
    window = mode_window()
    for m in levels:
        coeff = Scalar(m) / 4
        closed = {mode for mode in kt_solvable_modes(a, coeff)
                  if all(abs(c) <= window for c in mode)}
        if closed != set(kt_mode_oracle(a, coeff)):
            raise InternalCheckError(
                "mode oracle", f"disagrees with the closed form at a={a}, m={m}"
            )


def kt_plurigenus(a: PiParam, m: int) -> int:
    """Dimension of the invariant-fiber pluricanonical kernel at level m.

    The section equation reduces to the mode condition with coefficient m/4;
    the count is 1 exactly when a = q*pi with m*q/4 an integer, else 0.
    """
    if not isinstance(a, PiParam):
        raise InputError("parameter must be a PiParam")
    m = int(m)
    if m < 1:
        raise InputError("plurigenus level m must be at least 1")
    return len(kt_solvable_modes(a, Scalar(m) / 4))


def kt_first_nonzero(a: PiParam) -> Optional[int]:
    """Smallest m with a nonzero plurigenus, in closed form (None if all zero).

    For a = q*pi this is the smallest positive m with m*q/4 integral, i.e.
    m*num divisible by 4*den for q = num/den in lowest terms.
    """
    if a.kind != "rational_pi":
        return None
    num = abs(a.q.a)
    den = 4 * a.q.d
    return den // math.gcd(num, den)


def kt_irregularity(a: PiParam) -> int:
    """Dimension of the space of invariant-reduced dbar-closed (1,0)-forms.

    A closed form g1*phi1 + g2*phi2 yields, after the fiber-constancy
    reduction: a mode equation with coefficient -1/4 for g2, the closed-mode
    equation (coefficient 0) for g1, and a coupling that multiplies each
    surviving g2 mode by a/4.  That coupling is never zero, since PiParam
    refuses a = 0 and a generic a is the nonzero symbol, so no g2 mode
    survives, and the count is that of the closed g1 modes.
    """
    if not isinstance(a, PiParam):
        raise InputError("parameter must be a PiParam")
    return len(kt_solvable_modes(a, 0))


# ---------------------------------------------------------------------------
# Four-torus family with trigonometric coefficients
# ---------------------------------------------------------------------------


def t4_standard_pair() -> Tuple[TrigPoly, TrigPoly]:
    """The reference coefficient pair alpha = cos 2pi(x1+x2), beta = sin 2pi(x1+x2)."""
    return TrigPoly.cos2pi(4, (1, 1, 0, 0)), TrigPoly.sin2pi(4, (1, 1, 0, 0))


def t4_family_pair(t1, t2) -> Tuple[TrigPoly, TrigPoly]:
    """The deformation-family member (t1*alpha, t2*beta); (0,0) is integrable."""
    alpha, beta = t4_standard_pair()
    return alpha.scale(Scalar(t1)), beta.scale(Scalar(t2))


def t4_obstruction(alpha: TrigPoly, beta: TrigPoly) -> TrigPoly:
    """The section obstruction d^2(beta + i*alpha)/dw dwbar, exactly.

    Nonzero as a trigonometric polynomial exactly when it is nonzero on a
    dense open set of the torus.
    """
    if not isinstance(alpha, TrigPoly) or not isinstance(beta, TrigPoly):
        raise InputError("coefficients must be trigonometric polynomials")
    if alpha.k != beta.k:
        raise InputError("coefficient polynomials live on different tori")
    if alpha.k not in (2, 4):
        raise InputError("coefficients must live on T^2 (x1,x2) or T^4")
    if not alpha.is_real() or not beta.is_real():
        raise InputError("coefficient polynomials must be real")
    gamma = beta + alpha.scale(Scalar(0, 1))
    return gamma.wirtinger().wirtinger_bar()


def _t4_integrable(alpha: TrigPoly, beta: TrigPoly) -> bool:
    """The member's branch, decided once for every invariant of the member.

    False when the obstruction is nonzero (it kills every pluricanonical
    section); True for constant coefficients (the integrable structure with
    trivial canonical bundle).  Anything else is outside the settled
    derivation and is refused.
    """
    if not t4_obstruction(alpha, beta).is_zero():
        return False
    if alpha.is_constant() and beta.is_constant():
        return True
    raise RefusalError(
        "the settled derivation does not cover this coefficient pair: "
        "obstruction vanishes but the coefficients are not constant"
    )


def t4_plurigenus(alpha: TrigPoly, beta: TrigPoly, m: int) -> int:
    """Plurigenus of the four-torus family member: 1 on the integrable
    branch, 0 on the obstructed one, at every level m."""
    m = int(m)
    if m < 1:
        raise InputError("plurigenus level m must be at least 1")
    return 1 if _t4_integrable(alpha, beta) else 0


def t4_irregularity(alpha: TrigPoly, beta: TrigPoly) -> int:
    """Irregularity h^{1,0} of the four-torus family member, same branches."""
    return 2 if _t4_integrable(alpha, beta) else 1


# ---------------------------------------------------------------------------
# Riemann-Roch on the twisted product of a torus and a curve
# ---------------------------------------------------------------------------


class IntInterval(_Frozen):
    """A closed integer interval [lo, hi] of candidate dimensions."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        lo = int(lo)
        hi = int(hi)
        if lo > hi:
            raise InputError(f"empty interval [{lo}, {hi}]")
        if lo < 0:
            raise InputError("dimension intervals are nonnegative")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def _key(self):
        return self.lo, self.hi

    def __eq__(self, other):
        if isinstance(other, int):
            return self.lo == other == self.hi
        return super().__eq__(other)

    def __hash__(self):
        # a one-point interval equals its int, so it hashes as that int
        return hash(self.lo) if self.is_point() else super().__hash__()

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


ProfileValue = Union[int, IntInterval]


def _value_mul(u: ProfileValue, v: ProfileValue) -> ProfileValue:
    """Product of plurigenus values; nonnegativity makes interval product monotone."""
    ulo, uhi = (u.lo, u.hi) if isinstance(u, IntInterval) else (u, u)
    vlo, vhi = (v.lo, v.hi) if isinstance(v, IntInterval) else (v, v)
    lo, hi = ulo * vlo, uhi * vhi
    if lo == hi:
        return lo
    return IntInterval(lo, hi)


def _normalize_value(v: ProfileValue) -> ProfileValue:
    if isinstance(v, IntInterval):
        return v.lo if v.is_point() else v
    v = int(v)
    if v < 0:
        raise InputError("plurigenera are nonnegative")
    return v


def rr_plurigenus(g: int, m: int) -> ProfileValue:
    """Plurigenus of the twisted torus-times-curve model of fiber genus g.

    The degree count gives (2m-1)(g-1) exactly for m >= 2; at m = 1 only the
    two-sided bound [g-1, g] is determined, reported as an interval.
    """
    g = int(g)
    m = int(m)
    if g < 2:
        raise InputError("fiber genus must be at least 2")
    if m < 1:
        raise InputError("plurigenus level m must be at least 1")
    if m == 1:
        return IntInterval(g - 1, g)
    return (2 * m - 1) * (g - 1)


# ---------------------------------------------------------------------------
# Plurigenera profiles and Kodaira dimension
# ---------------------------------------------------------------------------

ALL_ZERO = "all-zero"
BOUNDED = "bounded"
POLYNOMIAL = "polynomial"
NEG_INF = float("-inf")


def _poly_degree(values: Sequence[int]) -> Optional[int]:
    """Exact finite-difference degree of a value window.

    Returns -1 for the identically-zero window, d when some difference row
    vanishes identically (certifying a degree-d polynomial on the window),
    and None when the differences never stabilize inside the window.
    """
    rows = [[int(v) for v in values]]
    while len(rows[-1]) >= 2:
        prev = rows[-1]
        rows.append([b - a for a, b in zip(prev, prev[1:])])
    last_nonzero = -1
    for idx, row in enumerate(rows):
        if any(v != 0 for v in row):
            last_nonzero = idx
    if last_nonzero == -1:
        return -1
    if last_nonzero >= len(rows) - 1:
        return None
    return last_nonzero


class PlurigeneraProfile(_Frozen):
    """Exact plurigenera P_1..P_M with their growth order kappa.

    kappa is -inf when every plurigenus vanishes, 0 for bounded growth, and
    the polynomial degree d >= 1 otherwise.  Family constructors supply it
    from closed-form knowledge; otherwise it is fitted by exact finite
    differences on the tail window m in [ceil(M/2), M], refusing when the
    tail is not polynomial.
    """

    __slots__ = ("values", "kappa")

    def __init__(self, values: Sequence[ProfileValue], kappa=None):
        values = tuple(_normalize_value(v) for v in values)
        if len(values) < MIN_PROFILE_LENGTH:
            raise InputError(
                f"profiles need at least {MIN_PROFILE_LENGTH} values to classify"
            )
        if kappa is None:
            kappa = self._classify(values)
        elif (refusal := self._check_kappa(values, kappa)) is not None:
            raise InputError(refusal)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "kappa", kappa)

    # -- classification ------------------------------------------------------

    @staticmethod
    def _tail(values: Sequence[ProfileValue]) -> Sequence[ProfileValue]:
        start = -(-len(values) // 2)  # ceil(M/2), 1-based
        return values[start - 1 :]

    @classmethod
    def _classify(cls, values) -> Union[float, int]:
        if all(v == 0 for v in values):
            return NEG_INF
        tail = cls._tail(values)
        if any(isinstance(v, IntInterval) for v in tail):
            raise RefusalError(
                "cannot classify growth through undetermined interval values"
            )
        degree = _poly_degree(tail)
        if degree is None:
            raise RefusalError(
                "stored plurigenera are not polynomial on the tail window; "
                "supply the classification from family knowledge"
            )
        if degree == -1:
            raise RefusalError(
                "tail window is identically zero but earlier values are not; "
                "growth cannot be inferred from the window"
            )
        return degree

    @classmethod
    def _check_kappa(cls, values, kappa) -> Optional[str]:
        """Why a declared kappa is refused, or None: -inf needs every value
        zero, and kappa >= 1 must equal the tail fit when the tail decides a
        degree.  A declared kappa = 0 is not compared with the values,
        because no finite window can refute bounded growth: kt at
        a = 4/3*pi has the bounded (0 or 1) values 0, 0, 1, 0, 0, 1 up to
        m = 6, and their tail 1, 0, 0, 1 fits degree 2 exactly."""
        if kappa == NEG_INF:
            if any(v != 0 for v in values):
                return "kappa = -inf with a nonzero value"
        elif type(kappa) is not int or kappa < 0:
            return f"kappa must be -inf or an integer >= 0, got {kappa!r}"
        elif kappa >= 1:
            # the tail decides the degree unless it holds an interval or is all zero
            tail = cls._tail(values)
            intervals = any(isinstance(v, IntInterval) for v in tail)
            fitted = None if intervals else _poly_degree(tail)
            if fitted not in (None, -1, kappa):
                return (f"stored tail fits degree {fitted}, "
                        f"inconsistent with declared kappa {kappa}")
        return None

    # -- access ---------------------------------------------------------------

    @property
    def kind(self) -> str:
        """The growth class: all-zero, bounded, or polynomial."""
        if self.kappa == NEG_INF:
            return ALL_ZERO
        return BOUNDED if self.kappa == 0 else POLYNOMIAL

    @property
    def degree(self) -> Optional[int]:
        """The polynomial degree, None unless the growth is polynomial."""
        return self.kappa if self.kappa >= 1 else None

    @property
    def length(self) -> int:
        return len(self.values)

    def _key(self):
        return self.values, self.kappa

    def __repr__(self):
        return f"PlurigeneraProfile({list(self.values)!r}, kappa={self.kappa})"


def kunneth(pa: PlurigeneraProfile, pb: PlurigeneraProfile) -> PlurigeneraProfile:
    """Product profile: plurigenera multiply level-by-level and kappa adds
    (an all-zero factor's -inf absorbs), unless the product's values
    contradict the sum; then kappa is fitted from them, so a caller sees the
    failed additivity as kappa != pa.kappa + pb.kappa."""
    if pa.length != pb.length:
        raise InputError("profiles must store the same number of levels")
    values = [_value_mul(u, v) for u, v in zip(pa.values, pb.values)]
    kappa = pa.kappa + pb.kappa
    if PlurigeneraProfile._check_kappa(values, kappa) is not None:
        kappa = None
    return PlurigeneraProfile(values, kappa)


def kodaira_dimension(profile: PlurigeneraProfile) -> Union[float, int]:
    """Growth exponent of the profile: -inf, 0, or the polynomial degree."""
    return profile.kappa


# ---------------------------------------------------------------------------
# Preset profiles for the worked families
# ---------------------------------------------------------------------------


def kt_profile(a: PiParam, length: int = DEFAULT_PROFILE_LENGTH) -> PlurigeneraProfile:
    """Plurigenera profile of the solvmanifold family at parameter a.

    Rational multiples of pi give a bounded profile (some level is 1 in
    closed form, possibly beyond the stored window); generic parameters give
    the zero profile.
    """
    values = [kt_plurigenus(a, m) for m in range(1, length + 1)]
    return PlurigeneraProfile(values, 0 if a.kind == "rational_pi" else NEG_INF)


def t4_profile(
    alpha: TrigPoly, beta: TrigPoly, length: int = DEFAULT_PROFILE_LENGTH
) -> PlurigeneraProfile:
    """Plurigenera profile of the four-torus family member."""
    # the plurigenus does not depend on m: one obstruction solve serves every level
    values = [t4_plurigenus(alpha, beta, 1)] * length
    return PlurigeneraProfile(values, 0 if values[0] else NEG_INF)


def rr_profile(g: int, length: int = DEFAULT_PROFILE_LENGTH) -> PlurigeneraProfile:
    """Profile of the twisted torus-times-curve model: linear growth."""
    values = [rr_plurigenus(g, m) for m in range(1, length + 1)]
    return PlurigeneraProfile(values, 1)


def curve_profile(g: int, length: int = DEFAULT_PROFILE_LENGTH) -> PlurigeneraProfile:
    """Classical profile of a genus-g curve: P_1 = g, P_m = (2m-1)(g-1)."""
    g = int(g)
    if g < 2:
        raise InputError("curve profiles require genus at least 2")
    values: List[ProfileValue] = [g]
    values += [(2 * m - 1) * (g - 1) for m in range(2, length + 1)]
    return PlurigeneraProfile(values, 1)


def torus_profile(length: int = DEFAULT_PROFILE_LENGTH) -> PlurigeneraProfile:
    """Profile of the standard complex torus: trivial canonical bundle."""
    return PlurigeneraProfile([1] * length, 0)
