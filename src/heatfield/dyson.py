"""Exactly solvable ladder equations for binary branching Brownian motion.

The one-point function here is the finite-horizon extinction
probability of a branching/dying particle system with exponential
clock rate gamma and offspring law (p_k).  For the binary law
p = (alpha, 0, beta) it satisfies the Riccati equation

    dA/dtau = gamma * (alpha - A + beta * A**2),    A(0) = 0,

whose solution this module provides three independent ways: in closed
form, by fixed-step RK4 integration of the general offspring ODE, and
by Picard iteration of the equivalent Volterra integral equation

    A(tau) = gamma*alpha * int_0^tau exp(-gamma*w) dw
           + gamma*beta  * int_0^tau exp(-gamma*w) * A(tau-w)**2 dw,

which sums the event-tree expansion order by order.  The same
convolution structure gives the dressed two-point function and its
spatially integrated mass curve.  Their trapezoid discretisations are
lower-triangular in time (the diagonal weight of node t is
0.5*h*gamma*beta*A(t)), so each is solved exactly, up to rounding, by
one forward march that divides by one minus that weight at every node
(Linz, Analytical and Numerical Methods for Volterra Equations, SIAM
1985); nothing is iterated to a tolerance.

Each ladder kernel is one exponential in the elapsed time w:
exp(-gamma*w), and exp(-(gamma + xi**2/2)*w) per spatial Fourier mode xi
of the two-point field.  So every trapezoid history sum obeys
S_i = r*(S_{i-1} + q_{i-1}) with r = exp(-lambda*h) and costs O(1) per
node (fast convolution quadrature, Lubich and Schaedle, SIAM J. Sci.
Comput. 24, 2002, in its exact single-exponential case).  The sums of each
Picard sweep and, with the march's division folded in (``_ladder_sums``),
those of the mass curve and of every Fourier mode of the two-point field
at once form a first-order linear recurrence, solved for all nodes at once
by a prefix scan (``_linear_scan``; Blelloch, Prefix sums and their
applications, CMU-CS-90-190, 1990): the same discrete equations, evaluated
in another order, so only rounding differs.  The two-point field's
fixed-point check ``two_point_residual`` shares no recursion with that
march: it takes each mode's history as one causal convolution in time,
by FFT.

Closed form (Athreya and Ney, Branching Processes, 1972, III.3), with
s = |1 - 2*alpha|:

    A(tau) = 2*alpha / (1 + s + 2*s/expm1(s*gamma*tau)),

where s + 2*s/expm1(s*gamma*tau) is 2/(gamma*tau) at s = 0.  The
denominator's terms are all >= 0, so nothing cancels for any alpha or
tau, and at tau = 0, 2*s/expm1(0) = inf gives A = 0 exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import pring
from .kernels import GridTooNarrowError, SampledFunction, _clocked_density
from .pring import _check_count, _check_probability, _check_real, _check_scalar

__all__ = [
    "FertilityDistribution",
    "SpaceTimeField",
    "StabilityViolationError",
    "one_point_closed_form",
    "one_point_ode",
    "one_point_picard",
    "extinction_probability",
    "mass_curve",
    "two_point_picard",
    "two_point_residual",
    "two_point_shape",
]


class StabilityViolationError(RuntimeError):
    """An ODE trajectory or a Picard iterate left the admissible band [0, 1]."""


@dataclass(frozen=True)
class FertilityDistribution:
    """Offspring law (p_0, ..., p_K) of a dying particle."""

    p: tuple

    def __post_init__(self):
        probs = tuple(float(_check_scalar("offspring probability", v)) for v in self.p)
        if len(probs) == 0:
            raise ValueError("offspring law needs at least p_0")
        if not all(0.0 <= v <= 1.0 for v in probs):
            raise ValueError(f"offspring probabilities must lie in [0, 1], got {probs}")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError(f"offspring probabilities must sum to 1, got sum {sum(probs)!r}")
        object.__setattr__(self, "p", probs)

    @classmethod
    def binary(cls, alpha: float) -> "FertilityDistribution":
        """Law (alpha, 0, 1 - alpha): a dying particle leaves 0 or 2 children."""
        alpha = _check_probability("alpha", float(_check_scalar("alpha", alpha)))
        return cls((alpha, 0.0, 1.0 - alpha))

    def pgf(self, phi):
        """Probability generating function sum_k p_k * phi**k (Horner form)."""
        acc = 0.0 * phi  # preserves scalar/array shape
        for pk in reversed(self.p):
            acc = acc * phi + pk
        return acc


def _validate_alpha_gamma(alpha, gamma):
    return _check_probability("alpha", alpha), _check_real("clock rate gamma", gamma, positive=True)


def one_point_closed_form(alpha: float, gamma: float, tau):
    """Extinction probability by time-to-horizon tau, binary offspring law.

    Accepts a scalar or array ``tau`` (all entries >= 0, none NaN) and evaluates
    the one expression of the module docstring with libm's ``math.expm1`` per
    element; its denominator is a sum of terms >= 0, so it does not cancel.
    """
    alpha, gamma = _validate_alpha_gamma(alpha, gamma)
    tau_arr = np.asarray(tau, dtype=float)
    if not np.all(tau_arr >= 0):
        raise ValueError("tau must be >= 0 and not NaN")
    s = abs(1.0 - 2.0 * alpha)
    with np.errstate(divide="ignore"):  # tau = 0 gives numpy's 2*s/0 = inf (arrays, 0-d too), so A = 0
        if s == 0.0:
            tail = 2.0 / (gamma * tau_arr)
        else:  # expm1 overflows past 709.78; from 700 on, 2*s/expm1 < 1e-300*s cannot move 1 + s
            tail = 2.0 * s / pring._per_element(math.expm1, np.asarray(np.minimum(s * gamma * tau_arr, 700.0)))
        out = 2.0 * alpha / (1.0 + s + tail)
    return float(out) if np.ndim(tau) == 0 else out


def extinction_probability(alpha: float) -> float:
    """Eventual extinction probability: alpha/(1-alpha) below 1/2, else 1."""
    if _check_probability("alpha", alpha) < 0.5:
        return alpha / (1.0 - alpha)
    return 1.0


def _grid_count(span: float, step: float) -> tuple:
    """The checked step and the fewest whole steps of that size that reach ``span`` to 1e-12 (relative), at least 1.

    Every solver's grid rule; the slack keeps rounding in span/step from adding a step.
    A span/step that overflows to inf is a ValueError naming both.
    """
    step = _check_real("grid step", step, positive=True)
    span = _check_real("grid span", span, positive=True)
    steps = span / step * (1.0 - 1e-12)
    if steps == math.inf:
        raise ValueError(f"grid span must take a finite number of steps, got span {span:g} at step {step:g}")
    return step, max(1, math.ceil(steps))


def _curve_grid(gamma, span, step):
    """Checked step (default 1e-3/gamma) and step count of a curve from 0 to ``span``; ValueError past 2**24 steps."""
    h, n = _grid_count(span, 1e-3 / gamma if step is None else step)
    if n > 2**24:  # Picard and mass_curve hold about eight float64 arrays of n + 1 nodes: 1 GB at the bound
        raise ValueError(f"grid span must take at most 2**24 steps, got span {span:g} at step {h:g} ({n:.3g} steps)")
    return h, n


def _march_divisors(alpha, gamma, h, a):
    """One minus the trapezoid diagonal weight 0.5*h*gamma*beta*A at each node.

    A step so coarse that some weight reaches 1 leaves the discrete
    ladder equation singular or its solution negative, so it is rejected.
    """
    div = 1.0 - 0.5 * h * gamma * (1.0 - alpha) * a
    if not np.all(div > 0.0):
        raise ValueError(
            f"time step {h:g} too coarse for gamma = {gamma:g}: the trapezoid "
            "diagonal weight 0.5*step*gamma*beta*A reaches 1"
        )
    return div


def one_point_ode(
    fertility: FertilityDistribution,
    gamma: float,
    theta0: float,
    tau_max: float,
    step: float | None = None,
) -> SampledFunction:
    """RK4 solution of dphi/dt = gamma * (pgf(phi) - phi), phi(0) = theta0.

    theta0 is the weight counted per surviving particle, so theta0 = 0
    integrates the extinction probability and theta0 = 1 stays at 1.
    The default step 1e-3/gamma keeps the local error orders below the
    1e-8 agreement target with the closed form.  Trajectories must stay
    inside [-1e-9, 1 + 1e-9]; anything else, NaN from an overflowing step
    too, raises StabilityViolationError.  The grid takes the fewest whole
    steps that reach tau_max (``_grid_count``): its last node is at least
    tau_max (to 1e-12, relative) and less than tau_max + step.
    """
    gamma = _check_real("clock rate gamma", gamma, positive=True)
    y = _check_probability("theta0", theta0)
    h, n = _curve_grid(gamma, tau_max, step)
    values = np.empty(n + 1)
    values[0] = y
    pgf = fertility.pgf
    for i in range(n):
        k1 = gamma * (pgf(y) - y)
        y2 = y + 0.5 * h * k1
        k2 = gamma * (pgf(y2) - y2)
        y3 = y + 0.5 * h * k2
        k3 = gamma * (pgf(y3) - y3)
        y4 = y + h * k3
        k4 = gamma * (pgf(y4) - y4)
        y = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        values[i + 1] = y
    if not np.all((values >= -1e-9) & (values <= 1.0 + 1e-9)):  # NaN fails both bounds
        raise StabilityViolationError(
            f"trajectory left [0, 1] (range [{values.min():g}, {values.max():g}]); "
            "reduce the step"
        )
    return SampledFunction(0.0, h, values)


def one_point_picard(
    alpha: float,
    gamma: float,
    tau_max: float,
    order: int,
    step: float | None = None,
) -> SampledFunction:
    """Picard iterate of the one-point Volterra equation, binary law.

    Starting from the zero function, each iteration adds one more layer
    of event-tree topologies, so the iterates increase pointwise toward
    the closed form.  ``order`` counts applications of the map (order 1
    is the bare death integral alpha*(1 - exp(-gamma*tau))) and must be
    an integer >= 1.  Integrals use the composite trapezoid rule, so a
    converged iterate carries an O((gamma*step)**2) bias: against the
    closed form (alpha .25, tau to 20) it is 2.2e-3 at gamma*step 0.2 and
    0.068 at 1, and step <= 1e-3/gamma keeps it around 1e-6.  The grid
    takes the fewest whole steps that reach tau_max, as in
    ``one_point_ode``.  Each application evaluates its history sums
    S_i = r*S_{i-1} + r*q_{i-1} (q = A**2 of the previous iterate,
    r = exp(-gamma*step)) with one ``_linear_scan`` over all nodes.  An
    iterate outside [-1e-9, 1 + 1e-9] (NaN too), as a coarse step can
    give, raises StabilityViolationError after the sweep that made it.
    """
    alpha, gamma = _validate_alpha_gamma(alpha, gamma)
    _check_count("order", order)
    h, n = _curve_grid(gamma, tau_max, step)
    survival = pring._per_element(math.exp, -gamma * (h * np.arange(n + 1)))  # np.exp bits follow the SIMD level
    # cumulative trapezoid of gamma*alpha*exp(-gamma*w)
    base = np.concatenate(([0.0], np.cumsum(0.5 * h * (survival[1:] + survival[:-1]))))
    base *= gamma * alpha
    c = 0.5 * h * gamma * (1.0 - alpha)
    r = math.exp(-gamma * h)
    a = np.zeros(n + 1)
    sums = np.empty(n + 1)
    for _ in range(order):
        q = a * a
        sums[0] = 0.0
        np.multiply(q[:-1], r, out=sums[1:])
        s = _linear_scan(r, sums)
        a = base + c * (2.0 * s + q)
        if not np.all((a >= -1e-9) & (a <= 1.0 + 1e-9)):  # NaN fails both bounds
            raise StabilityViolationError(
                f"Picard iterate left [0, 1] (range [{a.min():g}, {a.max():g}]); reduce the step"
            )
    return SampledFunction(0.0, h, a)


def mass_curve(
    alpha: float,
    gamma: float,
    t_max: float,
    step: float | None = None,
) -> SampledFunction:
    """Spatial integral M of the dressed two-point function, binary law.

    Solves the trapezoid discretisation of

        M(t) = exp(-gamma*t) + gamma*beta * int_0^t exp(-gamma*w) A(t-w) M(t-w) dw

    with the closed-form one-point function A by the forward march
    (``_ladder_sums``), exact up to rounding.  Raises ValueError when
    ``step`` is so coarse that the march's diagonal weight reaches 1.  The
    grid takes the fewest whole steps that reach t_max, as in ``one_point_ode``.
    """
    alpha, gamma = _validate_alpha_gamma(alpha, gamma)
    h, n = _curve_grid(gamma, t_max, step)
    times = h * np.arange(n + 1)
    a_curve = one_point_closed_form(alpha, gamma, times)
    base = np.exp(np.multiply(times, -gamma, out=times), out=times)  # times is not needed again
    div = _march_divisors(alpha, gamma, h, a_curve)
    coeff = h * gamma * (1.0 - alpha)
    m = _ladder_sums(math.exp(-gamma * h), base, np.divide(a_curve, div, out=a_curve), coeff)
    m *= coeff
    m += base
    m /= div
    return SampledFunction(0.0, h, m)


def _ladder_sums(r, base: np.ndarray, w: np.ndarray, coeff: float) -> np.ndarray:
    """History sums S_i = r*(S_{i-1} + a_{i-1}*x_{i-1}), S_0 = 0, of the march x_i = (base_i + coeff*S_i)/div_i.

    div is one minus the diagonal weight (``_march_divisors``).  Substituting
    x_{i-1}, with w = a/div, gives one ``_linear_scan``:
    S_i = r*(1 + coeff*w_{i-1})*S_{i-1} + r*w_{i-1}*base_{i-1}, where base,
    r and w take the shapes of its d, r and u.  w is overwritten.
    """
    sums = np.zeros_like(base)
    np.multiply(w[:-1], base[:-1], out=sums[1:])
    sums[1:] *= r
    np.multiply(w[:-1], coeff, out=w[1:])  # u, one node on (the overlap is buffered); u_0 meets s_{-1} = 0
    return _linear_scan(r, sums, w)


def _linear_scan(r, d: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
    """Solve s_i = r*(1 + u_i)*s_{i-1} + d_i, s_{-1} = 0, for every i; returns d, which then holds s.

    d is a vector, or a matrix of columns that share u, of shape (n, 1),
    and have one rate r each.  Hillis-Steele scan of the affine maps
    s -> r*(1 + u_i)*s + d_i: before the pass at offset k, entry i >= k
    composes the k maps ending at i, as its value d at s = 0 and its factor
    r**k * (1 + u), so ceil(log2 n) array passes replace the loop over
    nodes.  The factor is kept as its excess u over r**k because a factor
    near 1, rounded once to a double and raised to the n-th power, would
    bias s by up to n ulps.  With u, d >= 0 nothing cancels; nor in the
    two-point field's complex columns, each a real multiple of one phase
    (every propagator row is symmetric about x = 0 on an odd grid) whose
    real factors are negative only at the 1e-13 noise floor of the high
    modes.  d and u (None: all zero) are overwritten.
    """
    n = len(d)
    work, spare = np.empty_like(d), None if u is None else np.empty_like(u)
    for k in (2**j for j in range((n - 1).bit_length())):  # k = 1, 2, 4, ... < n
        m = n - k
        # entries i >= k hold k maps: compose each with entry i - k
        if u is None:
            np.multiply(d[:m], r**k, out=work[:m])
        else:
            np.multiply(u[k:], d[:m], out=work[:m])
            work[:m] += d[:m]
            work[:m] *= r**k
            np.multiply(u[k:], u[:m], out=spare[:m])  # (1 + u)(1 + u') - 1
            spare[:m] += u[:m]
            u[k:] += spare[:m]
        d[k:] += work[:m]
    return d


@dataclass(frozen=True)
class SpaceTimeField:
    """Real field on a uniform (t, x) grid, one spatial dimension.

    Time slices sit at t_step, 2*t_step, ... (the zero-time slice is a
    point mass and is not representable on a grid); the spatial grid is
    symmetric about 0 with an odd number of nodes; both steps are finite and > 0.
    """

    t_step: float
    x_step: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 1:
            raise ValueError("values must be 2-d (time, space) with at least one time row")
        if vals.shape[1] % 2 != 1:
            raise ValueError("spatial grid must be symmetric about 0 (odd node count)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "t_step", _check_real("t_step", self.t_step, positive=True))
        object.__setattr__(self, "x_step", _check_real("x_step", self.x_step, positive=True))
        object.__setattr__(self, "values", vals)

    @property
    def times(self) -> np.ndarray:
        return self.t_step * np.arange(1, self.values.shape[0] + 1)

    @property
    def xs(self) -> np.ndarray:
        half = (self.values.shape[1] - 1) // 2
        return self.x_step * np.arange(-half, half + 1)

    def spatial_mass(self) -> np.ndarray:
        """Trapezoid integral over x of every time slice."""
        v = self.values
        return self.x_step * (v.sum(axis=1) - 0.5 * (v[:, 0] + v[:, -1]))


class _TwoPointOperator:
    """Trapezoid ladder map, on nt rows and 2*half + 1 nodes, whose fixed point is the dressed two-point field."""

    def __init__(self, alpha, gamma, nt, t_step, half, x_step):
        self.nt, self.k, self.h = nt, t_step, x_step
        if not x_step <= math.sqrt(t_step):
            raise ValueError(f"x_step {x_step:g} must be <= sqrt(t_step) = {math.sqrt(t_step):g}")
        self.xs = x_step * np.arange(-half, half + 1)
        t_top = nt * t_step
        if half * x_step < 6.0 * math.sqrt(t_top):
            raise GridTooNarrowError(
                f"spatial half-width {half * x_step:g} must be >= 6*sqrt({t_top:g}) = "
                f"{6.0 * math.sqrt(t_top):g}, {t_top:g} being the grid's last time"
            )
        self.coeff = gamma * (1.0 - alpha) * t_step
        times = t_step * np.arange(1, nt + 1)
        # Clock-dressed free propagator from the origin, one row per time through
        # the scalar expression, so that it equals retarded_propagator_heat bit for bit;
        # each row is computed for x >= 0 and mirrored, since xs[-i] = -xs[i] exactly.
        rows = (_clocked_density(t, self.xs[half:] ** 2, gamma, 1) for t in times.tolist())
        self.base = np.array([np.concatenate((row[:0:-1], row)) for row in rows])
        self.a = one_point_closed_form(alpha, gamma, times)  # a[m-1] = A(m*k)
        self.div = _march_divisors(alpha, gamma, t_step, self.a)
        xi = 2.0 * math.pi * np.fft.rfftfreq(self.xs.size, x_step)
        self.rate = gamma + 0.5 * xi**2

    def apply(self, field: np.ndarray) -> np.ndarray:
        """The ladder map T(field), by the causal FFT convolution that ``two_point_residual`` describes."""
        lags = np.exp(-np.outer(self.k * np.arange(self.nt), self.rate))  # row l: lag l*k
        lags[0] = 0.0  # the half-weighted diagonal is added in x below
        # over 2*nt rows the circular convolution does not wrap: lags reach nt - 1 rows back
        history = np.fft.fft(self.a[:, None] * np.fft.rfft(field, axis=1), 2 * self.nt, axis=0)
        history *= np.fft.fft(lags, 2 * self.nt, axis=0)
        ladder = np.fft.irfft(np.fft.ifft(history, axis=0)[: self.nt], self.xs.size, axis=1)
        ladder += 0.5 * self.a[:, None] * field
        return self.base + self.coeff * ladder

    def march(self) -> np.ndarray:
        """The fixed point, every mode's history sums by one ``_ladder_sums``, negative rounding clamped to 0."""
        spectra = np.fft.rfft(self.base, axis=1)
        sums = _ladder_sums(np.exp(-self.rate * self.k), spectra, (self.a / self.div)[:, None], self.coeff)
        field = np.fft.irfft(sums, self.xs.size, axis=1)
        field *= self.coeff
        field += self.base
        field /= self.div[:, None]
        return np.maximum(field, 0.0, out=field)


# The last operator built, keyed by its checked float arguments; march and apply only make new arrays, so it is shared.
_two_point_operator = functools.lru_cache(maxsize=1)(_TwoPointOperator)


def two_point_picard(
    alpha: float,
    gamma: float,
    t_max: float,
    t_step: float,
    x_half_width: float,
    x_step: float,
) -> SpaceTimeField:
    """Dressed two-point function of the binary model, d = 1.

    Solves the discretisation of
    D(t, x) = exp(-gamma*t) p_t(x) + gamma*beta * (ladder term) that is
    trapezoid in time and spectral in x by the forward march, exact up to
    rounding, for every np.fft.rfft mode at once (``_ladder_sums``).  The
    time grid takes the fewest whole t_step steps that reach t_max, and the
    spatial grid the fewest whole x_step steps that reach x_half_width on
    each side (see ``_grid_count``).  The grid's half-width must be at least
    6*sqrt of its last time, else GridTooNarrowError; that keeps the
    truncated Gaussian mass, and the periodic wrap of the spectral x grid,
    below 1e-8.  x_step must be at most sqrt(t_step), else ValueError: at
    that limit the first row's mass is off by 2*exp(-2*pi**2) = 5.4e-9.
    Negative entries are clamped to 0: they are below 1e-17 for x_step <=
    sqrt(t_step)/2 and up to about 4e-8 at the limit, which then bounds
    ``two_point_residual``.  A time step so coarse that the diagonal weight
    reaches 1 raises ValueError.
    """
    (k, nt), (h, half) = _grid_count(t_max, t_step), _grid_count(x_half_width, x_step)
    op = _two_point_operator(*_validate_alpha_gamma(alpha, gamma), nt, k, half, h)
    return SpaceTimeField(op.k, op.h, op.march())


def two_point_shape(t_max: float, t_step: float, x_half_width: float, x_step: float) -> tuple:
    """(times, nodes) of the grid ``two_point_picard`` solves on, counted as it counts them, allocating nothing.

    Raises ValueError as ``two_point_picard`` does for a step or span that is not finite and > 0, or a
    span/step past the float range.
    """
    (_, nt), (_, half) = _grid_count(t_max, t_step), _grid_count(x_half_width, x_step)
    return nt, 2 * half + 1


def two_point_residual(field: SpaceTimeField, alpha: float, gamma: float) -> float:
    """Sup-norm defect |T(D) - D| of a candidate two-point field, on the field's own grid.

    T is the discrete ladder map that ``two_point_picard`` solves.  Each Fourier
    mode's history sum is one causal convolution in time with the lag multipliers
    exp(-(gamma + xi**2/2)*l*t_step), evaluated directly, done by FFT over 2*nt rows
    (Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985), so it costs
    O(nt*log(nt)*nx) and shares no recursion with the march.  Raises the ValueError and
    GridTooNarrowError of ``two_point_picard`` for the same alpha, gamma and grid.  The
    operator last built, by a solve or a residual, is reused when alpha, gamma and the
    grid are the same, whichever field is passed: a hand-made field on a grid just
    solved reuses it too.
    """
    nt, nx = field.values.shape
    op = _two_point_operator(*_validate_alpha_gamma(alpha, gamma), nt, field.t_step, nx // 2, field.x_step)
    return float(np.max(np.abs(op.apply(field.values) - field.values)))
