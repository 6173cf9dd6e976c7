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

Components may also be float arrays of one shape: the value is then a
batch of elements (a sampled ring-valued field), every operation acts
elementwise by the scalar steps, so bit for bit as one element at a
time, and equality, hashing and ``repr`` are for scalars only.

Every module's argument checks: ``_check_count`` and ``_check_seed`` return the int,
``_check_real`` and ``_check_probability`` the float they accept, ``_check_scalar`` its argument.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

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


def _check_finite(value, name: str):
    if isinstance(value, np.ndarray) and value.ndim:
        value = np.asarray(value, dtype=float)
    else:
        value = float(_check_scalar(f"{name} component", value))
    if not (np.all(np.isfinite(value)) if isinstance(value, np.ndarray) else math.isfinite(value)):
        raise ValueError(f"{name} component must be finite, got {value!r}")
    return value


def _check_count(name, n, least=1):
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")
    return int(n)


def _check_seed(seed):
    # A seed is an integer (Python or numpy, not bool): int() would run seed 1 for 1.7 or True.
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return int(seed)


def _check_scalar(name, x):
    # One number, not an array of one, whose float() numpy 2.4 refuses with a TypeError (older numpy converts it),
    # nor a string, which float() would parse in some checks and comparisons would refuse in others.
    if isinstance(x, (str, bytes)):
        raise ValueError(f"{name} must be a number, got {type(x).__name__} {x!r}")
    if np.ndim(x) != 0:
        raise ValueError(f"{name} must be a single number, got an array of shape {np.shape(x)}")
    return x


def _check_real(name, x, positive=False):
    # math.isfinite raises OverflowError for an int too large for a float.
    _check_scalar(name, x)
    if not (math.isfinite(x) and (x > 0 if positive else x >= 0)):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {x}")
    return float(x)


def _check_probability(name, p):
    _check_scalar(name, p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return float(p)


# Values _per_element holds as Python floats at once (about 32 bytes each).
_PER_ELEMENT_CHUNK = 4096
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows above this


def _per_element(fn, x):
    # fn on each element as a Python float, into a float array of x's shape (0-d too):
    # numpy's vector exp (and square) differ from libm's math.exp (and **) in the last bits.
    if not isinstance(x, np.ndarray):
        return fn(x)
    flat = x.ravel()
    chunks = (flat[i : i + _PER_ELEMENT_CHUNK].tolist() for i in range(0, flat.size, _PER_ELEMENT_CHUNK))
    return np.fromiter(map(fn, itertools.chain.from_iterable(chunks)), float, x.size).reshape(x.shape)


def _ring_op(method):
    # Ints and floats are real elements; other right operands get NotImplemented.
    def op(self, other):
        if isinstance(other, (int, float)):
            other = PseudoComplex(float(other), 0.0)
        return method(self, other) if isinstance(other, PseudoComplex) else NotImplemented
    return op


@dataclass(frozen=True)
class PseudoComplex:
    """Number a + I*b with I**2 = 1. Immutable; components always finite.

    Components are floats, or float arrays of one shape (not copied) for a
    batch acted on elementwise; ``==``, ``hash`` and ``repr`` are scalar-only.
    """

    re: float
    im: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "re", _check_finite(self.re, "re"))
        object.__setattr__(self, "im", _check_finite(self.im, "im"))

    @property
    def is_zero_divisor(self):
        # Exact comparison by design: a tolerance would silently change
        # the algebra for callers sitting near the diagonals.
        return (self.re == self.im) | (self.re == -self.im)

    def conj(self) -> "PseudoComplex":
        return PseudoComplex(self.re, -self.im)

    @_ring_op
    def __add__(self, other):
        return PseudoComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    @_ring_op
    def __sub__(self, other):
        return PseudoComplex(self.re - other.re, self.im - other.im)

    @_ring_op
    def __rsub__(self, other):
        return other - self

    @_ring_op
    def __mul__(self, other):
        # (ac + bd) + I(ad + bc), evaluated branchwise so that the
        # homomorphism property holds to rounding error.
        return zd_compose(
            gamma_plus(self) * gamma_plus(other),
            gamma_minus(self) * gamma_minus(other),
        )

    __rmul__ = __mul__

    @_ring_op
    def __truediv__(self, other):
        return self * inverse(other)

    def __neg__(self):
        return PseudoComplex(-self.re, -self.im)

    def __repr__(self):
        sign = "+" if self.im >= 0 or math.isnan(self.im) else "-"
        return f"({self.re!r} {sign} I*{abs(self.im)!r})"


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
    """Project onto one diagonal; ``sign`` is the integer +1 or -1 (Python or numpy, not bool)."""
    if isinstance(sign, (int, np.integer)) and not isinstance(sign, bool) and sign in (1, -1):
        return gamma_plus(p) if sign == 1 else gamma_minus(p)
    raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def zd_compose(u_plus: float, u_minus: float) -> PseudoComplex:
    """Assemble u_plus * SIGMA_PLUS + u_minus * SIGMA_MINUS."""
    return PseudoComplex(0.5 * (u_plus + u_minus), 0.5 * (u_plus - u_minus))


def conjugate(p: PseudoComplex) -> PseudoComplex:
    """Involution swapping the two diagonals (a + I*b -> a - I*b)."""
    return p.conj()


def exp(p: PseudoComplex) -> PseudoComplex:
    """Ring exponential, exp(a)*(cosh b + I sinh b).

    Computed branchwise as zd_compose(exp(a+b), exp(a-b)), one libm
    ``math.exp`` per element, so that gamma_plus(exp(p)) == exp(gamma_plus(p)).
    Raises OverflowError ("math range error") when a + |b| passes
    log(sys.float_info.max), about 709.78, on any element.
    """
    return zd_compose(_per_element(math.exp, gamma_plus(p)), _per_element(math.exp, gamma_minus(p)))


def inverse(p: PseudoComplex) -> PseudoComplex:
    """Multiplicative inverse; ZeroDivisorError if any element is on a diagonal."""
    if np.count_nonzero(p.is_zero_divisor):
        where = "a batch element" if isinstance(p.is_zero_divisor, np.ndarray) else repr(p)
        raise ZeroDivisorError(f"{where} lies on a zero-divisor diagonal and has no inverse")
    return zd_compose(1.0 / gamma_plus(p), 1.0 / gamma_minus(p))


def magnitude(p: PseudoComplex) -> float:
    """Sup norm max(|gamma_plus|, |gamma_minus|); submultiplicative."""
    plus, minus = abs(gamma_plus(p)), abs(gamma_minus(p))
    return np.maximum(plus, minus) if isinstance(plus, np.ndarray) else max(plus, minus)


def _identity_err(got: PseudoComplex, want: PseudoComplex, scale):
    # Defect of an algebraic identity relative to the forward-error
    # scale of the operation that produced it.  Division by (1 + scale)
    # keeps small cases on an absolute footing.
    return np.maximum(abs(got.re - want.re), abs(got.im - want.im)) / (1.0 + scale)


# Bounds of the draws, one row per case in draw order (names in self_check).
_DRAW_LO = np.array([-10.0, -10.0, -10.0, -10.0, 0.0, -1.0, -1.0, -2.0])
_DRAW_HI = np.array([10.0, 10.0, 10.0, 10.0, 10.0, 1.0, 1.0, 2.0])
_BATCH = 1024


def self_check(cases: int = 10_000, seed: int = 0) -> dict:
    """Randomized identity checks; returns the max defect per property.

    Draws components uniformly from [-10, 10] and exercises, per case:
    additivity/multiplicativity of both diagonal projections, the
    conjugation involution, the exponential law exp(p)exp(q) = exp(p+q),
    inversion (elements with both diagonal magnitudes >= 1e-6), and the
    clock evolution exp(-I*E*t) for |E*t| up to 20 (semigroup and
    unitarity).  Cases run in draw order, in batches of up to 1024 held
    in array-valued elements: bit for bit a case-by-case check.

    Each defect is measured relative to the product of the operands'
    sup norms, the forward-error scale of the operation: storing an
    element as (re, im) doubles rounds both components to the larger
    diagonal's ulp, so e.g. the unitarity defect of exp(-I*E*t)
    unavoidably grows like eps * cosh(E*t)**2 in absolute terms while
    staying at a few eps on this scale.  All entries should sit far
    below 1e-12.  Raises ValueError unless cases is an integer >= 1 and
    seed an integer (not bool), and numpy's ValueError for a negative seed.
    """
    _check_count("cases", cases)
    rng = np.random.default_rng(_check_seed(seed))
    errs = {}
    for done in range(0, cases, _BATCH):
        a, b, c, d, energy, t, s, t_u = rng.uniform(_DRAW_LO, _DRAW_HI, (min(_BATCH, cases - done), 8)).T
        p, q = PseudoComplex(a, b), PseudoComplex(c, d)
        mp, mq = magnitude(p), magnitude(q)
        ep, eq = exp(p), exp(q)
        keep = np.minimum(abs(gamma_plus(p)), abs(gamma_minus(p))) >= 1e-6
        p_inv = PseudoComplex(a[keep], b[keep])
        inv = inverse(p_inv)
        u_t, u_s = exp(PseudoComplex(0.0, -energy * t)), exp(PseudoComplex(0.0, -energy * s))
        u_ts = exp(PseudoComplex(0.0, -energy * (t + s)))
        u = exp(PseudoComplex(0.0, -energy * t_u))  # |E t| <= 20
        # Python's ** per element, as squaring one case's norm does.
        u_scale = _per_element(lambda m: m**2, magnitude(u))
        defects = {  # in output order
            "gamma_additive": [abs(g(p + q) - (g(p) + g(q))) / (1.0 + mp + mq) for g in (gamma_plus, gamma_minus)],
            "gamma_multiplicative": [abs(g(p * q) - g(p) * g(q)) / (1.0 + mp * mq) for g in (gamma_plus, gamma_minus)],
            "involution": [_identity_err(p.conj().conj(), p, 0.0)],
            "conj_swaps_gammas": [abs(gamma_plus(p.conj()) - gamma_minus(p))],
            "exp_law": [_identity_err(ep * eq, exp(p + q), magnitude(ep) * magnitude(eq))],
            "inverse": [_identity_err(inv * p_inv, ONE, magnitude(inv) * magnitude(p_inv))],
            "unitary_evolution": [_identity_err(u * u.conj(), ONE, u_scale)],
            "evolution_semigroup": [_identity_err(u_t * u_s, u_ts, magnitude(u_t) * magnitude(u_s))],
        }
        for name, batch in defects.items():
            errs[name] = max(errs.get(name, 0.0), *(float(np.max(x, initial=0.0)) for x in batch))
    return errs
