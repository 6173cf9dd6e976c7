"""Gaussian transition densities and the machinery built on them.

Everything here is deterministic: the heat kernel itself, semigroup
application by trapezoid quadrature on a uniform grid, a
Chapman-Kolmogorov consistency residual, the exponentially clocked
retarded propagator, the clock's event probability, and the
split-complex time evolution element exp(-I*E*t).

The diffusion constant is fixed at 1, so variance grows like t per
spatial dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import pring
from .pring import PseudoComplex

__all__ = [
    "NonPositiveTimeError",
    "DimensionMismatchError",
    "GridTooNarrowError",
    "SampledFunction",
    "heat_kernel",
    "apply_semigroup",
    "ck_residual",
    "retarded_propagator_heat",
    "event_probability",
    "time_evolution",
]


class NonPositiveTimeError(ValueError):
    """Transition densities need a strictly positive duration."""


class DimensionMismatchError(ValueError):
    """Endpoints live in spaces of different dimension."""


class GridTooNarrowError(ValueError):
    """Quadrature grid does not hold enough Gaussian mass (> 1e-8 lost)."""


def _as_point(x) -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1 or not 1 <= p.size <= 3:
        raise DimensionMismatchError(f"points must be vectors of dimension 1..3, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def _validated_r2(t, x, y):
    # Squared distance |x-y|^2 and dimension d of a valid kernel argument.
    if not t > 0:
        raise NonPositiveTimeError(f"duration must be > 0, got {t}")
    px, py = _as_point(x), _as_point(y)
    if px.size != py.size:
        raise DimensionMismatchError(f"dimension mismatch: {px.size} vs {py.size}")
    return float(np.sum((px - py) ** 2)), px.size


def _check_rate(gamma):
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"clock rate gamma must be finite and >= 0, got {gamma}")


def _heat_density(t: float, r2: float, d: int) -> float:
    return (2.0 * math.pi * t) ** (-0.5 * d) * math.exp(-r2 / (2.0 * t))


def _clocked_density(t: float, r2: float, gamma: float, d: int) -> float:
    # exp(-gamma*t) * p_t at squared distance r2, unvalidated.  Grid builds
    # that must match retarded_propagator_heat bit for bit call this same
    # expression: np.exp differs from math.exp in the last bits.
    return math.exp(-gamma * t) * _heat_density(t, r2, d)


def heat_kernel(t: float, x, y) -> float:
    """Transition density (2*pi*t)**(-d/2) * exp(-|x-y|^2 / (2t)).

    ``x`` and ``y`` are vectors (or scalars, read as d=1) of equal
    dimension d with 1 <= d <= 3.  Raises NonPositiveTimeError for
    t <= 0 and DimensionMismatchError on unequal dimensions.
    """
    r2, d = _validated_r2(t, x, y)
    return _heat_density(t, r2, d)


# Relative threshold below which grid values are treated as outside the
# support of the initial condition when checking grid coverage.
_SUPPORT_RTOL = 1e-12


@dataclass(frozen=True)
class SampledFunction:
    """Real function sampled on a uniform 1-d grid.

    ``origin`` is the first node, ``step`` the spacing, ``values`` the
    node values and ``nodes`` the read-only grid ``origin + step*arange(n)``,
    computed once.  Instances are immutable; evaluation between nodes is
    by linear interpolation, clamped to the edge values outside the
    grid.
    """

    origin: float
    step: float
    values: np.ndarray
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("values must be a 1-d array with at least 2 nodes")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled values must be finite")
        if not self.step > 0:
            raise ValueError(f"grid step must be > 0, got {self.step}")
        nodes = float(self.origin) + float(self.step) * np.arange(vals.size)
        vals.flags.writeable = False
        nodes.flags.writeable = False
        object.__setattr__(self, "origin", float(self.origin))
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def sample(cls, f, origin: float, step: float, count: int) -> "SampledFunction":
        nodes = float(origin) + float(step) * np.arange(int(count))
        return cls(origin, step, np.asarray(f(nodes), dtype=float))

    def __call__(self, x):
        return np.interp(x, self.nodes, self.values)


def _support_bounds(u: SampledFunction):
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0:
        return None
    idx = np.flatnonzero(np.abs(u.values) > _SUPPORT_RTOL * peak)
    nodes = u.nodes
    return nodes[idx[0]], nodes[idx[-1]]


def apply_semigroup(u: SampledFunction, t: float) -> SampledFunction:
    """Evolve u by duration t: (P_t u)(x) = integral of u(z) p_t(x, z) dz.

    The integral is a composite trapezoid sum over u's own grid, and the
    result is returned on that same grid.  The grid must extend at least
    6*sqrt(t) beyond the support of u on both sides, which keeps the
    Gaussian mass lost beyond the grid under 1e-8; otherwise
    GridTooNarrowError is raised.
    """
    if not t > 0:
        raise NonPositiveTimeError(f"duration must be > 0, got {t}")
    support = _support_bounds(u)
    if support is None:
        return SampledFunction(u.origin, u.step, np.zeros_like(u.values))
    nodes = u.nodes
    margin = 6.0 * math.sqrt(t)
    if nodes[0] > support[0] - margin or nodes[-1] < support[1] + margin:
        raise GridTooNarrowError(
            f"grid [{nodes[0]:g}, {nodes[-1]:g}] must extend {margin:g} beyond "
            f"the support [{support[0]:g}, {support[1]:g}] of the initial condition"
        )
    h = u.step
    weights = np.full(u.values.size, h)
    weights[0] = weights[-1] = 0.5 * h
    # Uniform grid, so the weighted sum is a discrete convolution with
    # the kernel sampled at every offset; "valid" against the
    # (2n-1)-long kernel returns exactly the n grid nodes.
    offsets = h * np.arange(-(u.values.size - 1), u.values.size)
    kern = (2.0 * math.pi * t) ** -0.5 * np.exp(-(offsets**2) / (2.0 * t))
    out = np.convolve(u.values * weights, kern, mode="valid")
    return SampledFunction(u.origin, u.step, out)


def _adaptive_simpson(f, a, b, tol, fa, fm, fb, whole, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(f, a, m, 0.5 * tol, fa, flm, fm, left, depth - 1) + _adaptive_simpson(
        f, m, b, 0.5 * tol, fm, frm, fb, right, depth - 1
    )


def _simpson_quad(f, a, b, tol=1e-9):
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, tol, fa, fm, fb, whole, depth=50)


def ck_residual(t: float, s: float, x: float, y: float) -> float:
    """|integral p_t(x,z) p_s(z,y) dz  -  p_{t+s}(x,y)| in one dimension.

    The z-integral runs over [min(x,y) - 8*sqrt(max(t,s)),
    max(x,y) + 8*sqrt(max(t,s))] with adaptive Simpson quadrature at
    absolute tolerance 1e-9; the vanishing of the residual is the
    Markov consistency of the transition density.
    """
    if not (t > 0 and s > 0):
        raise NonPositiveTimeError(f"durations must be > 0, got t={t}, s={s}")
    x = float(np.asarray(x, dtype=float).reshape(()))
    y = float(np.asarray(y, dtype=float).reshape(()))
    pad = 8.0 * math.sqrt(max(t, s))
    lo, hi = min(x, y) - pad, max(x, y) + pad

    def integrand(z):
        return heat_kernel(t, x, z) * heat_kernel(s, z, y)

    composed = _simpson_quad(integrand, lo, hi, tol=1e-9)
    return abs(composed - heat_kernel(t + s, x, y))


def retarded_propagator_heat(x, y, gamma: float) -> float:
    """Heat projection of the clocked retarded propagator.

    ``x`` and ``y`` are spacetime points, pairs (time, space vector).
    Returns 0 whenever dt = y_time - x_time <= 0 (equal times count as
    not-yet-propagated) and otherwise
    exp(-gamma*dt) * heat_kernel(dt, x_space, y_space).  Raises
    ValueError unless gamma is finite and >= 0.
    """
    _check_rate(gamma)
    tx, sx = x
    ty, sy = y
    dt = float(ty) - float(tx)
    if dt <= 0.0:
        return 0.0
    r2, d = _validated_r2(dt, sx, sy)
    return _clocked_density(dt, r2, gamma, d)


def event_probability(gamma: float, dtau: float) -> float:
    """Probability 1 - exp(-gamma*dtau) that the clock fires within dtau.

    Raises ValueError unless gamma is finite and >= 0 and dtau >= 0
    (dtau may be inf).
    """
    _check_rate(gamma)
    if not dtau >= 0:
        raise ValueError(f"duration dtau must be >= 0, got {dtau}")
    return -math.expm1(-gamma * dtau) if gamma else 0.0  # 0 * inf is nan; a rate-0 clock never fires


def time_evolution(energy: float, t: float) -> PseudoComplex:
    """Split-complex evolution element U(t) = exp(-I*energy*t).

    Satisfies U(t)*U(s) = U(t+s) and U(t) * conj(U(t)) = 1.
    """
    if energy < 0:
        raise ValueError(f"energy must be >= 0, got {energy}")
    return pring.exp(PseudoComplex(0.0, -float(energy) * float(t)))
