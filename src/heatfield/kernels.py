"""Gaussian transition densities and the machinery built on them.

Everything here is deterministic: the heat kernel itself, semigroup
application by trapezoid quadrature on a uniform grid, a
Chapman-Kolmogorov consistency residual (one trapezoid sum too), the
exponentially clocked retarded propagator, the clock's event
probability, and the split-complex time evolution element exp(-I*E*t).

The diffusion constant is fixed at 1, so variance grows like t per
spatial dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import pring
from .pring import _LOG_FLOAT_MAX, PseudoComplex, _check_count, _check_real, _check_scalar

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


def _as_point(x, rows=False) -> np.ndarray:
    # One point as a 1-d array; with rows, a 2-d array is m points, one per row.
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim not in ((1, 2) if rows else (1,)) or not 1 <= p.shape[-1] <= 3:
        raise DimensionMismatchError(f"points must be vectors of dimension 1..3, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def _validated_r2(x, y):
    # |x-y|^2 (per row of an (m, d) y, summed as for one point) and d of two valid points.
    px, py = _as_point(x), _as_point(y, rows=True)
    if px.size != py.shape[-1]:
        raise DimensionMismatchError(f"dimension mismatch: {px.size} vs {py.shape[-1]}")
    r2 = np.sum((px - py) ** 2, axis=-1)
    return (r2 if py.ndim == 2 else float(r2)), px.size


def _check_duration(name, t) -> float:
    # One number > 0 (inf too) as a float, whose ** raises OverflowError where a numpy scalar's gives inf.
    if not _check_scalar(name, t) > 0:
        raise NonPositiveTimeError(f"duration must be > 0, got {t}")
    return float(t)


def _clocked_density(t: float, r2, gamma: float, d: int):
    # exp(-gamma*t) * p_t at squared distance(s) r2, checking t only; gamma 0 gives p_t itself, with no
    # clock factor (exp(-0.0 * inf) is NaN).  Grid builds that must match retarded_propagator_heat bit
    # for bit call this same expression: np.exp differs from math.exp in the last bits.
    t = _check_duration("t", t)
    try:
        norm = (2.0 * math.pi * t) ** (-0.5 * d)
    except OverflowError:
        raise ValueError(f"duration {t} is too short: (2*pi*t)**(-{d}/2) overflows") from None
    with np.errstate(over="ignore"):  # -r2/(2t) past the float range is -inf, whose exp is the correct 0
        density = norm * pring._per_element(math.exp, -r2 / (2.0 * t))
    return math.exp(-gamma * t) * density if gamma else density


def heat_kernel(t: float, x, y):
    """Transition density (2*pi*t)**(-d/2) * exp(-|x-y|^2 / (2t)).

    ``x`` and ``y`` are vectors (or scalars, read as d=1) of equal
    dimension d with 1 <= d <= 3; ``y`` may also be an (m, d) array of m
    points, giving m densities equal bit for bit to the one-point calls
    (a 1-d ``y`` is one point).  Raises NonPositiveTimeError for t <= 0,
    DimensionMismatchError on unequal or unsupported dimensions or shapes,
    and ValueError on a coordinate that is not finite, on a t that is not
    a single number or on a t so short that (2*pi*t)**(-d/2) overflows
    (below about 5e-207 in d = 3 and 8.9e-310 in d = 2).  An infinite t
    gives 0.
    """
    r2, d = _validated_r2(x, y)
    return _clocked_density(t, r2, 0.0, d)


# Relative threshold below which grid values are treated as outside the
# support of the initial condition when checking grid coverage.
_SUPPORT_RTOL = 1e-12

# Longest piece of u * w that apply_semigroup convolves at once.  Its BLAS dots stay under
# OpenBLAS's x86-64 threading cutoff (10,000 terms), above which ddot splits a sum across
# threads and its bits depend on the thread count.  At 2048 terms a dot's two operands
# (32 KB) stay in L1 cache: five benchmark-shaped calls took 21 ms against 34 ms with pieces
# of 8192 (2-vCPU Xeon guest).
_DOT_PIECE = 2048


@dataclass(frozen=True)
class SampledFunction:
    """Real function sampled on a uniform 1-d grid.

    ``origin`` is the first node (finite), ``step`` the spacing (finite
    and > 0), ``values`` the node values and ``nodes`` the read-only grid
    ``origin + step*arange(n)``, computed once, whose last node must be
    finite too (ValueError naming the grid).  Instances are immutable;
    evaluation between nodes is by linear interpolation, clamped to the
    edge values outside the grid.
    """

    origin: float
    step: float
    values: np.ndarray
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        step = _check_real("grid step", self.step, positive=True)  # the grid first: a bad one makes values NaN
        if not math.isfinite(_check_scalar("grid origin", self.origin)):
            raise ValueError(f"grid origin must be finite, got {self.origin}")
        origin = float(self.origin)
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("values must be a 1-d array with at least 2 nodes")
        if not math.isfinite(origin + step * (vals.size - 1)):  # float arithmetic: inf, where numpy would warn
            raise ValueError(f"grid last node origin + step*(n - 1) = {origin} + {step}*{vals.size - 1} must be finite")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled values must be finite")
        nodes = origin + step * np.arange(vals.size)
        vals.flags.writeable = False
        nodes.flags.writeable = False
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def sample(cls, f, origin: float, step: float, count: int) -> "SampledFunction":
        """f at origin + step*arange(count); ValueError before f runs unless count is an integer >= 2 and the grid valid."""
        grid = cls(origin, step, np.zeros(_check_count("count", count, least=2)))  # checks the grid too
        return cls(origin, step, np.asarray(f(grid.nodes), dtype=float))

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
    result is returned on that same grid: at node i, the sum over nodes j
    of a_j * K_(i-j), where a = u * w (trapezoid weights w: the step,
    halved at both ends) and K_k = (2*pi*t)**-0.5 * exp(-(k*step)**2 / (2t))
    with numpy's ``exp``.  Only the products that can be nonzero are
    formed: those over the span of nonzero a_j and the offsets where K_k
    has not underflowed to 0.  Both factors are first scaled by exact
    powers of two, chosen from their maxima and the kernel's sum to be
    as large as no product or sum can overflow, so that the products of
    the Gaussian tails stay normal (a product becomes subnormal only at
    2**-1900 of the largest one or less); the sums are scaled back once,
    rounding correctly into the subnormal range.  For u >= 0 every term
    is non-negative, so each value keeps relative accuracy in any
    summation order: within a few ulps of the exact sum of the same
    products, subnormal tails included.  For a signed u the error is a
    few ulps of the sum of |a_j * K_(i-j)|.

    The sums are BLAS dot products of at most 2048 terms each, added in
    a fixed order, so their bits do not depend on the OpenBLAS thread
    count; they do depend on the BLAS kernel and numpy's SIMD level.

    The grid must extend at least 6*sqrt(t) beyond the support of u on
    both sides, which keeps the Gaussian mass lost beyond the grid under
    1e-8; otherwise GridTooNarrowError is raised.
    """
    t = _check_duration("t", t)
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
    h, n = u.step, u.values.size
    weights = np.full(n, h)
    weights[0] = weights[-1] = 0.5 * h
    a = u.values * weights
    kern = (2.0 * math.pi * t) ** -0.5 * np.exp(-((h * np.arange(n)) ** 2) / (2.0 * t))
    data, reach = np.flatnonzero(a), np.flatnonzero(kern)
    out = np.zeros(n)
    if not (data.size and reach.size):  # u * w or the kernel underflowed to all zeros
        return SampledFunction(u.origin, u.step, out)
    lo, hi, m = data[0], data[-1] + 1, reach[-1]
    a, kern = a[lo:hi], np.concatenate((kern[m:0:-1], kern[: m + 1]))
    # Each output sums |products| of at most max|a| * sum(kern) < 2**(ea + es), so scaling
    # a by 2**sa and the kernel by 2**(total - sa) keeps every scaled sum below 2**1023.  The
    # split evens out the two maxima (kern[m] is the kernel's); both shifts take total's
    # sign, so neither factor is scaled down, losing tail bits, unless sums near overflow.
    ea, ek, es = (math.frexp(v)[1] for v in (np.max(np.abs(a)), kern[m], np.sum(kern)))
    total = 1023 - ea - es
    sa = min(max((total + ek - ea) // 2, min(total, 0)), max(total, 0))
    a, kern = np.ldexp(a, sa), np.ldexp(kern, total - sa)
    # Uniform grid, so the weighted sum is a discrete convolution; sums[r] is node lo - m + r.
    # Each piece's dots have at most _DOT_PIECE terms; the pieces add in ascending order.
    sums = np.zeros(hi - lo + 2 * m)
    for start in range(0, hi - lo, _DOT_PIECE):
        piece = a[start : start + _DOT_PIECE]
        sums[start : start + piece.size + 2 * m] += np.convolve(piece, kern)
    first = lo - m
    out[max(first, 0) : hi + m] = np.ldexp(sums[max(-first, 0) : n - first], -total)
    return SampledFunction(u.origin, u.step, out)


def ck_residual(t: float, s: float, x: float, y: float) -> float:
    """|integral p_t(x,z) p_s(z,y) dz  -  p_{t+s}(x,y)| in one dimension.

    The integrand is p_{t+s}(x,y) times a Gaussian density in z with
    centre (s*x + t*y)/(t + s) and sd sigma = sqrt(t*s/(t + s)), so the
    integral is one trapezoid sum over the 193 nodes centre +- 12*sigma
    at step sigma/8, which converges geometrically for a Gaussian
    (Trefethen & Weideman, SIAM Review 56, 2014) whatever the ratio t/s.
    For t, s in [1e-9, 1e6] the residual stays below about 1e-8 of
    p_{t+s}(x,y); the vanishing of the residual is the Markov consistency
    of the transition density.  Raises NonPositiveTimeError unless t and
    s are > 0, and ValueError as heat_kernel does.
    """
    t, s = _check_duration("t", t), _check_duration("s", s)
    x = float(np.asarray(x, dtype=float).reshape(()))
    y = float(np.asarray(y, dtype=float).reshape(()))
    step = math.sqrt(t * s / (t + s)) / 8.0
    nodes = ((s * x + t * y) / (t + s) + step * np.arange(-96, 97))[:, None]
    composed = step * float(np.sum(heat_kernel(t, x, nodes) * heat_kernel(s, y, nodes)))  # p_s is symmetric
    return abs(composed - heat_kernel(t + s, x, y))


def retarded_propagator_heat(x, y, gamma: float):
    """Heat projection of the clocked retarded propagator.

    ``x`` and ``y`` are spacetime points, pairs (time, space vector).
    Returns 0 whenever dt = y_time - x_time <= 0 (equal times count as
    not-yet-propagated) and otherwise
    exp(-gamma*dt) * heat_kernel(dt, x_space, y_space), one value per row
    of an (m, d) y_space (m zeros when dt <= 0).  The space points are
    checked as in ``heat_kernel`` whatever dt is.  An infinite dt gives 0
    for every gamma.  Raises ValueError unless gamma is finite and >= 0,
    and as heat_kernel does for dt > 0.
    """
    gamma = _check_real("clock rate gamma", gamma)
    tx, sx = x
    ty, sy = y
    r2, d = _validated_r2(sx, sy)
    dt = float(_check_scalar("y time", ty)) - float(_check_scalar("x time", tx))
    if dt <= 0.0:
        return np.zeros(len(sy)) if np.ndim(sy) == 2 else 0.0
    return _clocked_density(dt, r2, gamma, d)  # a NaN dt raises there


def event_probability(gamma: float, dtau: float) -> float:
    """Probability 1 - exp(-gamma*dtau) that the clock fires within dtau.

    Raises ValueError unless gamma is finite and >= 0 and dtau >= 0
    (dtau may be inf).
    """
    gamma = _check_real("clock rate gamma", gamma)
    if not _check_scalar("duration dtau", dtau) >= 0:
        raise ValueError(f"duration dtau must be >= 0, got {dtau}")
    return -math.expm1(-gamma * float(dtau)) if gamma else 0.0  # 0 * inf is nan; a rate-0 clock never fires


def time_evolution(energy: float, t: float) -> PseudoComplex:
    """Split-complex evolution element U(t) = exp(-I*energy*t).

    Satisfies U(t)*U(s) = U(t+s) and U(t) * conj(U(t)) = 1.  Raises
    ValueError unless energy is finite and >= 0 and |energy*t| is at most
    log(sys.float_info.max), about 709.78, past which exp(|energy*t|) overflows.
    """
    et = _check_real("energy", energy) * float(_check_scalar("t", t))
    if not abs(et) <= _LOG_FLOAT_MAX:
        raise ValueError(f"energy*t must be finite with |energy*t| <= {_LOG_FLOAT_MAX:.6g}, got {et!r}")
    return pring.exp(PseudoComplex(0.0, -et))
