"""Split-complex (hyperbolic) number arithmetic.

Elements are ``a + I*b`` with ``I*I = +1``.  They form a commutative unit
ring whose zero divisors sit on the diagonals ``a = +-b``.  The two maps
``gamma_plus`` / ``gamma_minus`` onto the reals are ring homomorphisms,
so every element is equivalent to the pair of its diagonal components
and every ring operation acts componentwise on that pair.  Products and
exponentials are evaluated on the diagonal components for exactly this
reason: reciprocal pairs like ``exp(x) * exp(-x)`` then stay at 1 to a
few ulp instead of suffering catastrophic cancellation in the
``(a, b)`` basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PseudoComplex",
    "ZeroDivisorError",
    "ZERO",
    "ONE",
    "I",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "gamma_plus",
    "gamma_minus",
    "gamma_project",
    "zd_compose",
    "conjugate",
    "exp",
    "inverse",
    "self_check",
]


class ZeroDivisorError(ArithmeticError):
    """Raised when inverting an element of a maximal ideal (a = +-b)."""


def _check_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} component must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PseudoComplex:
    """Number a + I*b with I**2 = 1. Immutable; components always finite."""

    re: float
    im: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "re", _check_finite(self.re, "re"))
        object.__setattr__(self, "im", _check_finite(self.im, "im"))

    @property
    def is_zero_divisor(self) -> bool:
        # Exact comparison by design: a tolerance would silently change
        # the algebra for callers sitting near the diagonals.
        return self.re == self.im or self.re == -self.im

    def conj(self) -> "PseudoComplex":
        return PseudoComplex(self.re, -self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PseudoComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PseudoComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (ac + bd) + I(ad + bc), evaluated branchwise so that the
        # homomorphism property holds to rounding error.
        return zd_compose(
            gamma_plus(self) * gamma_plus(other),
            gamma_minus(self) * gamma_minus(other),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * inverse(other)

    def __neg__(self):
        return PseudoComplex(-self.re, -self.im)

    def __repr__(self):
        sign = "+" if self.im >= 0 or math.isnan(self.im) else "-"
        return f"({self.re!r} {sign} I*{abs(self.im)!r})"


def _coerce(value):
    if isinstance(value, PseudoComplex):
        return value
    if isinstance(value, (int, float)):
        return PseudoComplex(float(value), 0.0)
    return NotImplemented


ZERO = PseudoComplex(0.0, 0.0)
ONE = PseudoComplex(1.0, 0.0)
I = PseudoComplex(0.0, 1.0)
SIGMA_PLUS = PseudoComplex(0.5, 0.5)
SIGMA_MINUS = PseudoComplex(0.5, -0.5)


def gamma_plus(p: PseudoComplex) -> float:
    """Ring homomorphism a + I*b -> a + b."""
    return p.re + p.im


def gamma_minus(p: PseudoComplex) -> float:
    """Ring homomorphism a + I*b -> a - b."""
    return p.re - p.im


def gamma_project(p: PseudoComplex, sign: int) -> float:
    """Project onto one diagonal; ``sign`` is +1 or -1."""
    if sign == 1:
        return gamma_plus(p)
    if sign == -1:
        return gamma_minus(p)
    raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def zd_compose(u_plus: float, u_minus: float) -> PseudoComplex:
    """Assemble u_plus * SIGMA_PLUS + u_minus * SIGMA_MINUS."""
    u_plus = float(u_plus)
    u_minus = float(u_minus)
    return PseudoComplex(0.5 * (u_plus + u_minus), 0.5 * (u_plus - u_minus))


def conjugate(p: PseudoComplex) -> PseudoComplex:
    """Involution swapping the two diagonals (a + I*b -> a - I*b)."""
    return p.conj()


def exp(p: PseudoComplex) -> PseudoComplex:
    """Ring exponential, exp(a)*(cosh b + I sinh b).

    Computed branchwise as zd_compose(exp(a+b), exp(a-b)) so that
    gamma_plus(exp(p)) == exp(gamma_plus(p)) without truncation error.
    """
    return zd_compose(math.exp(gamma_plus(p)), math.exp(gamma_minus(p)))


def inverse(p: PseudoComplex) -> PseudoComplex:
    """Multiplicative inverse; raises ZeroDivisorError on the diagonals."""
    if p.is_zero_divisor:
        raise ZeroDivisorError(f"{p!r} lies on a zero-divisor diagonal and has no inverse")
    return zd_compose(1.0 / gamma_plus(p), 1.0 / gamma_minus(p))


def magnitude(p: PseudoComplex) -> float:
    """Sup norm max(|gamma_plus|, |gamma_minus|); submultiplicative."""
    return max(abs(gamma_plus(p)), abs(gamma_minus(p)))


def _identity_err(got: PseudoComplex, want: PseudoComplex, scale: float) -> float:
    # Defect of an algebraic identity relative to the forward-error
    # scale of the operation that produced it.  Division by (1 + scale)
    # keeps small cases on an absolute footing.
    return max(abs(got.re - want.re), abs(got.im - want.im)) / (1.0 + scale)


def self_check(cases: int = 10_000, seed: int = 0) -> dict:
    """Randomized identity checks; returns the max defect per property.

    Draws components uniformly from [-10, 10] and exercises, per case:
    additivity/multiplicativity of both diagonal projections, the
    conjugation involution, the exponential law exp(p)exp(q) = exp(p+q),
    inversion (elements with both diagonal magnitudes >= 1e-6), and the
    clock evolution exp(-I*E*t) for |E*t| up to 20 (semigroup and
    unitarity).

    Each defect is measured relative to the product of the operands'
    sup norms, the forward-error scale of the operation: storing an
    element as (re, im) doubles rounds both components to the larger
    diagonal's ulp, so e.g. the unitarity defect of exp(-I*E*t)
    unavoidably grows like eps * cosh(E*t)**2 in absolute terms while
    staying at a few eps on this scale.  All entries should sit far
    below 1e-12.  Raises ValueError unless cases is an integer >= 1.
    """
    import numpy as np

    if isinstance(cases, bool) or not isinstance(cases, (int, np.integer)) or cases < 1:
        raise ValueError(f"cases must be an integer >= 1, got {cases!r}")
    rng = np.random.default_rng(seed)
    errs = {
        "gamma_additive": 0.0,
        "gamma_multiplicative": 0.0,
        "involution": 0.0,
        "conj_swaps_gammas": 0.0,
        "exp_law": 0.0,
        "inverse": 0.0,
        "unitary_evolution": 0.0,
        "evolution_semigroup": 0.0,
    }
    for _ in range(cases):
        a, b, c, d = rng.uniform(-10.0, 10.0, size=4)
        p = PseudoComplex(a, b)
        q = PseudoComplex(c, d)
        pair_scale = magnitude(p) * magnitude(q)
        for gamma in (gamma_plus, gamma_minus):
            errs["gamma_additive"] = max(
                errs["gamma_additive"],
                abs(gamma(p + q) - (gamma(p) + gamma(q))) / (1.0 + magnitude(p) + magnitude(q)),
            )
            errs["gamma_multiplicative"] = max(
                errs["gamma_multiplicative"],
                abs(gamma(p * q) - gamma(p) * gamma(q)) / (1.0 + pair_scale),
            )
        r = p.conj().conj()
        errs["involution"] = max(errs["involution"], abs(r.re - p.re), abs(r.im - p.im))
        errs["conj_swaps_gammas"] = max(
            errs["conj_swaps_gammas"], abs(gamma_plus(p.conj()) - gamma_minus(p))
        )
        ep, eq = exp(p), exp(q)
        errs["exp_law"] = max(
            errs["exp_law"],
            _identity_err(ep * eq, exp(p + q), magnitude(ep) * magnitude(eq)),
        )
        if min(abs(gamma_plus(p)), abs(gamma_minus(p))) >= 1e-6:
            inv = inverse(p)
            errs["inverse"] = max(
                errs["inverse"], _identity_err(inv * p, ONE, magnitude(inv) * magnitude(p))
            )
        energy = rng.uniform(0.0, 10.0)
        t, s = rng.uniform(-1.0, 1.0, size=2)
        u_t = exp(PseudoComplex(0.0, -energy * t))
        u_s = exp(PseudoComplex(0.0, -energy * s))
        errs["evolution_semigroup"] = max(
            errs["evolution_semigroup"],
            _identity_err(
                u_t * u_s,
                exp(PseudoComplex(0.0, -energy * (t + s))),
                magnitude(u_t) * magnitude(u_s),
            ),
        )
        u = exp(PseudoComplex(0.0, -energy * rng.uniform(-2.0, 2.0)))  # |E t| <= 20
        errs["unitary_evolution"] = max(
            errs["unitary_evolution"], _identity_err(u * u.conj(), ONE, magnitude(u) ** 2)
        )
    return errs
