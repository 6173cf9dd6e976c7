"""Property tests over the Monte Carlo entry points, the ladder solvers' grids and the two-point operator.

Every call either raises a documented exception (ValueError, or
PopulationExplosionError where the docstring names it) or returns finite
values inside the documented range.  Times include nan, +-inf and
negatives; counts include zero, negatives, a bool and a non-integer.
The population cap is 64 so that every run stays short.  Every ladder
solver's grid takes the fewest whole steps that reach its span.  On any
grid the two-point solver accepts, its operator matches the direct lag
sums and the free propagator, and the marched field's residual stays
within the clamp bound.  Every argument that a shared check in
``pring`` guards is rejected, at every public entry point that takes
it, with a ValueError whose message starts with the argument's name.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatfield import dyson, kernels, montecarlo, pring
from heatfield.montecarlo import (
    BranchingConfig,
    PopulationExplosionError,
    estimate_extinction,
    estimate_generating_function,
    estimate_mckean_product,
    feynman_kac_estimate,
    lifetime_ks,
    sample_brownian_path,
    sample_extinction_times,
    simulate_branching,
)
from test_dyson import direct_apply

CAP = 64
TIMES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0]))
COUNTS = st.one_of(st.integers(-2, 4), st.sampled_from([True, 2.5]))
ALPHAS = st.floats(0.0, 1.0)
SEEDS = st.integers(0, 2**32)
PROPERTY = settings(max_examples=50, deadline=None, database=None)

PHI = kernels.SampledFunction(-5.0, 0.1, 0.5 + 0.5 * np.cos(np.linspace(-5.0, 5.0, 101)))
U = kernels.SampledFunction.sample(lambda x: np.exp(-(x**2)), -8.0, 0.05, 321)


def config(alpha):
    return BranchingConfig(1.0, dyson.FertilityDistribution.binary(alpha), max_particles=CAP)


def outcome(fn, *args, allowed=(ValueError,), **kwargs):
    """fn(*args, **kwargs), or None if it raised one of the allowed exceptions."""
    try:
        return fn(*args, **kwargs)
    except allowed:
        return None


EXPLODES = (ValueError, PopulationExplosionError)


def assert_estimate(result, lo=0.0, hi=1.0, shape=()):
    if result is not None:
        est, err = result
        assert np.shape(est) == np.shape(err) == shape
        assert np.all((lo <= np.asarray(est)) & (np.asarray(est) <= hi))
        assert np.all(np.isfinite(err) & (np.asarray(err) >= 0.0))


@PROPERTY
@given(TIMES, COUNTS, COUNTS)
def test_branching_config(gamma, d, cap):
    made = outcome(BranchingConfig, gamma, dyson.FertilityDistribution.binary(0.5), d=d, max_particles=cap)
    if made is not None:
        assert 0.0 < made.gamma < math.inf
        assert made.d == 1 and made.max_particles >= 1  # the default x0 is a 1-d point


@PROPERTY
@given(ALPHAS, TIMES, st.lists(TIMES, max_size=4), SEEDS)
def test_simulate_branching(alpha, horizon, sample_times, seed):
    log = outcome(simulate_branching, config(alpha), horizon, sample_times, seed, allowed=EXPLODES)
    if log is not None:
        assert math.isfinite(log.final.time)
        assert np.all((log.sample_times >= 0.0) & (log.sample_times <= horizon))
        assert np.all(log.counts >= 0) and log.counts.shape == (len(sample_times),)
        assert all(0.0 <= e.time <= horizon for e in log.events)
        assert np.all(np.isfinite(log.final.positions))
        assert log.extinction_time == math.inf or 0.0 <= log.extinction_time <= horizon


@PROPERTY
@given(ALPHAS, TIMES, COUNTS, SEEDS)
def test_extinction(alpha, horizon, replicas, seed):
    times = outcome(sample_extinction_times, config(alpha), horizon, replicas, seed)
    if times is not None:
        assert times.shape == (replicas,)
        assert np.all((times == math.inf) | ((times >= 0.0) & (times <= horizon)))
    assert_estimate(outcome(estimate_extinction, config(alpha), horizon, replicas, seed))


# Offspring laws with probabilities on the 2**-20 grid, so the float law is exact.
GRID_LAWS = st.lists(st.integers(0, 2**20), max_size=5).map(
    lambda cuts: dyson.FertilityDistribution(np.diff([0, *sorted(cuts), 2**20]) / 2**20)
)


@PROPERTY
@given(GRID_LAWS)
def test_extinction_upper_bound(law):
    # pgf(qbar) <= qbar exactly, so qbar is at or above the smallest fixed point q;
    # qbar < 1 exactly when q < 1: mean offspring above 1, or one child for sure.
    qbar = montecarlo._extinction_upper_bound(BranchingConfig(1.0, law).offspring_cdf)
    s = Fraction(qbar)
    assert 0 < s <= 1 and sum(Fraction(p) * s**k for k, p in enumerate(law.p)) <= s
    mean = sum(k * Fraction(p) for k, p in enumerate(law.p))
    assert (qbar < 1.0) == (mean > 1 or law.p[1:2] == (1.0,))


@PROPERTY
@given(
    ALPHAS,
    st.one_of(st.floats(-0.5, 1.5), st.just(math.nan)),
    st.one_of(TIMES, st.lists(TIMES, max_size=4), st.lists(TIMES, max_size=4).map(sorted)),
    COUNTS,
    SEEDS,
)
def test_generating_function(alpha, theta, t, replicas, seed):
    # t is one time (a pair of floats back) or a list of times (a pair of arrays of its length).
    result = outcome(estimate_generating_function, config(alpha), theta, t, replicas, seed, allowed=EXPLODES)
    assert_estimate(result, shape=np.shape(t))


@PROPERTY
@given(ALPHAS, TIMES, COUNTS, SEEDS)
def test_mckean_product(alpha, t, replicas, seed):
    assert_estimate(outcome(estimate_mckean_product, config(alpha), PHI, t, replicas, seed, allowed=EXPLODES))


@PROPERTY
@given(TIMES, TIMES, COUNTS, COUNTS, SEEDS)
def test_feynman_kac(t, x, replicas, n_steps, seed):
    # u in [0, 1] and a potential >= 0 keep the estimate in [0, 1].
    assert_estimate(outcome(feynman_kac_estimate, U, lambda xs: 0.5 * xs**2, t, x, replicas, n_steps, seed))


@PROPERTY
@given(st.lists(TIMES, max_size=4), TIMES, COUNTS, SEEDS)
def test_brownian_path(x0, t, n_steps, seed):
    path = outcome(sample_brownian_path, x0 or 0.0, t, n_steps, seed)
    if path is not None:
        assert path.shape[0] == n_steps + 1 and np.all(np.isfinite(path))


@PROPERTY
@given(st.lists(TIMES, max_size=6), TIMES)
def test_lifetime_ks(times, rate):
    result = outcome(lifetime_ks, times, rate)
    if result is not None:
        stat, pvalue = result
        assert 0.0 <= stat <= 1.0 and 0.0 <= pvalue <= 1.0


@PROPERTY
@given(st.integers(-(2**70), 2**70), st.integers(0, 2**32))
def test_array_derived_stream_equals_derive_stream(seed, replica):
    (words,) = montecarlo._seed_words(seed, replica, replica + 1)
    rng = np.random.Generator(np.random.PCG64(montecarlo._seed_words_type()(words)))
    assert rng.bit_generator.state == montecarlo.derive_stream(seed, replica).bit_generator.state
    assert rng.random(3).tolist() == montecarlo.derive_stream(seed, replica).random(3).tolist()


GRID_STEPS = st.floats(0.01, 1.0)


def ladder_grids(span, step):
    """Every ladder solver's time nodes (from 0) and the two-point x nodes, over ``span`` at ``step``."""
    x_half_width = 1.01 * 6.0 * math.sqrt(span + step)  # wide enough for any last time < span + step
    field = dyson.two_point_picard(0.25, 1.0, span, step, x_half_width, math.sqrt(step))
    times = [
        dyson.one_point_ode(dyson.FertilityDistribution.binary(0.25), 1.0, 0.0, span, step).nodes,
        dyson.one_point_picard(0.25, 1.0, span, 2, step).nodes,
        dyson.mass_curve(0.25, 1.0, span, step).nodes,
        np.append(0.0, field.times),
    ]
    return times, field.xs, x_half_width


@PROPERTY
@given(st.floats(1e-3, 5.0), GRID_STEPS)
def test_ladder_grids_reach_their_span(span, step):
    # The fewest whole steps that reach the span: the last node is at or past it
    # (to 1e-12, relative, and the last node's own rounding) and less than a step beyond.
    times, xs, x_half_width = ladder_grids(span, step)
    for nodes, reach, h in [(t, span, step) for t in times] + [(xs, x_half_width, math.sqrt(step))]:
        assert reach * (1.0 - 1e-12) * (1.0 - 2.0**-50) <= nodes[-1] < reach + h


@PROPERTY
@given(st.integers(1, 300), GRID_STEPS)
def test_whole_span_takes_exactly_its_steps(k, step):
    times, _, _ = ladder_grids(k * step, step)
    assert [nodes.size for nodes in times] == [k + 1] * 4


@PROPERTY
@given(st.integers(1, 10**9), st.floats(1e-6, 1e3))
def test_grid_count_of_whole_span(k, step):
    assert dyson._grid_count(k * step, step) == (step, k)


@PROPERTY
@given(ALPHAS, st.floats(0.2, 3.0), st.integers(1, 40), st.floats(0.01, 0.5), st.floats(0.5, 1.0), st.floats(1.01, 1.5),
       SEEDS)
def test_two_point_operator(alpha, gamma, nt, t_step, x_ratio, width_ratio, seed):
    # Grids the solver accepts: x_step <= sqrt(t_step), half-width >= 6*sqrt(last time).
    x_step = x_ratio * math.sqrt(t_step)
    half = math.ceil(width_ratio * 6.0 * math.sqrt(nt * t_step) / x_step)
    op = dyson._TwoPointOperator(alpha, gamma, nt, t_step, half, x_step)
    for values in (op.march(), np.random.default_rng(seed).uniform(0.0, 0.4, size=op.base.shape)):
        want = direct_apply(op, values)
        assert np.max(np.abs(op.apply(values) - want)) <= 1e-15 * np.max(np.abs(want))
    times = op.k * np.arange(1, nt + 1)
    free = [[kernels.retarded_propagator_heat((0.0, 0.0), (t, x), gamma) for x in op.xs] for t in times]
    np.testing.assert_array_equal(op.base, free)
    field = dyson.two_point_picard(alpha, gamma, nt * t_step, t_step, half * x_step, x_step)
    assert 0.0 <= dyson.two_point_residual(field, alpha, gamma) <= 4e-8  # two_point_picard's clamp bound


FERTILITY = dyson.FertilityDistribution.binary(0.25)
FIELD = dyson.two_point_picard(0.25, 1.0, 0.2, 0.1, 3.0, 0.25)
# Bad values of each kind of shared argument check; counts also get one below their least value.
BAD = {
    "positive": [math.nan, math.inf, -math.inf, 0.0],
    "nonnegative": [math.nan, math.inf, -math.inf, -1.0],
    "probability": [math.nan, math.inf, -math.inf, -0.5, 1.5],
    "seed": [True, 1.7, np.float64(3.0), "5"],
}
# (entry point, valid arguments, [(argument, kind or least count, name its message starts with)]).
ENTRY_POINTS = [
    (dyson.FertilityDistribution.binary, dict(alpha=0.25), [("alpha", "probability", "alpha")]),
    (dyson.extinction_probability, dict(alpha=0.25), [("alpha", "probability", "alpha")]),
    (dyson.one_point_closed_form, dict(alpha=0.25, gamma=1.0, tau=1.0),
     [("alpha", "probability", "alpha"), ("gamma", "positive", "clock rate gamma")]),
    (dyson.one_point_ode, dict(fertility=FERTILITY, gamma=1.0, theta0=0.0, tau_max=1.0, step=0.1),
     [("gamma", "positive", "clock rate gamma"), ("theta0", "probability", "theta0"),
      ("tau_max", "positive", "grid span"), ("step", "positive", "grid step")]),
    (dyson.one_point_picard, dict(alpha=0.25, gamma=1.0, tau_max=1.0, order=2, step=0.1),
     [("alpha", "probability", "alpha"), ("gamma", "positive", "clock rate gamma"), ("order", 1, "order"),
      ("tau_max", "positive", "grid span"), ("step", "positive", "grid step")]),
    (dyson.mass_curve, dict(alpha=0.25, gamma=1.0, t_max=1.0, step=0.1),
     [("alpha", "probability", "alpha"), ("gamma", "positive", "clock rate gamma"),
      ("t_max", "positive", "grid span"), ("step", "positive", "grid step")]),
    (dyson.two_point_picard, dict(alpha=0.25, gamma=1.0, t_max=0.2, t_step=0.1, x_half_width=3.0, x_step=0.25),
     [("alpha", "probability", "alpha"), ("gamma", "positive", "clock rate gamma"),
      ("t_max", "positive", "grid span"), ("t_step", "positive", "grid step"),
      ("x_half_width", "positive", "grid span"), ("x_step", "positive", "grid step")]),
    (dyson.two_point_residual, dict(field=FIELD, alpha=0.25, gamma=1.0),
     [("alpha", "probability", "alpha"), ("gamma", "positive", "clock rate gamma")]),
    (dyson.SpaceTimeField, dict(t_step=0.1, x_step=0.1, values=np.ones((2, 3))),
     [("t_step", "positive", "t_step"), ("x_step", "positive", "x_step")]),
    (kernels.SampledFunction, dict(origin=0.0, step=0.1, values=[0.0, 1.0]), [("step", "positive", "grid step")]),
    (kernels.SampledFunction.sample, dict(f=np.sin, origin=0.0, step=0.1, count=5),
     [("step", "positive", "grid step"), ("count", 2, "count")]),
    (kernels.retarded_propagator_heat, dict(x=(0.0, 0.0), y=(1.0, 0.0), gamma=1.0),
     [("gamma", "nonnegative", "clock rate gamma")]),
    (kernels.event_probability, dict(gamma=1.0, dtau=1.0), [("gamma", "nonnegative", "clock rate gamma")]),
    (kernels.time_evolution, dict(energy=1.0, t=1.0), [("energy", "nonnegative", "energy")]),
    (montecarlo.derive_stream, dict(seed=0, replica=0), [("seed", "seed", "seed"), ("replica", 0, "replica")]),
    (sample_brownian_path, dict(x0=0.0, t=1.0, n_steps=4, seed=0, replica=0),
     [("t", "positive", "t"), ("n_steps", 1, "n_steps"), ("seed", "seed", "seed"), ("replica", 0, "replica")]),
    (feynman_kac_estimate, dict(u=U, v=np.cos, t=1.0, x=0.0, replicas=2, n_steps=4, seed=0),
     [("replicas", 2, "replicas"), ("t", "positive", "t"), ("n_steps", 1, "n_steps"), ("seed", "seed", "seed")]),
    (BranchingConfig, dict(gamma=1.0, fertility=FERTILITY, d=1, max_particles=CAP),
     [("gamma", "positive", "clock rate gamma"), ("d", 1, "d"), ("max_particles", 1, "max_particles")]),
    (simulate_branching, dict(config=config(0.25), horizon=1.0, seed=0, replica=0),
     [("horizon", "nonnegative", "horizon"), ("seed", "seed", "seed"), ("replica", 0, "replica")]),
    (montecarlo.sample_lifetimes, dict(gamma=1.0, horizon=1.0, replicas=2, seed=0),
     [("gamma", "positive", "clock rate gamma"), ("replicas", 1, "replicas"),
      ("horizon", "nonnegative", "horizon"), ("seed", "seed", "seed")]),
    (sample_extinction_times, dict(config=config(0.25), horizon=1.0, replicas=2, seed=0),
     [("horizon", "nonnegative", "horizon"), ("replicas", 1, "replicas"), ("seed", "seed", "seed")]),
    (estimate_extinction, dict(config=config(0.25), horizon=1.0, replicas=2, seed=0),
     [("horizon", "nonnegative", "horizon"), ("replicas", 1, "replicas"), ("seed", "seed", "seed")]),
    (estimate_generating_function, dict(config=config(0.25), theta=0.5, t=1.0, replicas=2, seed=0),
     [("theta", "probability", "theta"), ("t", "nonnegative", "t"), ("replicas", 2, "replicas"),
      ("seed", "seed", "seed")]),
    (estimate_mckean_product, dict(config=config(0.25), phi=PHI, t=1.0, replicas=2, seed=0),
     [("t", "nonnegative", "t"), ("replicas", 2, "replicas"), ("seed", "seed", "seed")]),
    (lifetime_ks, dict(times=[1.0], rate=1.0), [("rate", "positive", "rate")]),
    (pring.self_check, dict(cases=10, seed=0), [("cases", 1, "cases"), ("seed", "seed", "seed")]),
]
REJECTED = [
    pytest.param(fn, {**valid, arg: bad}, name, id=f"{fn.__qualname__}-{arg}={bad!r}")
    for fn, valid, checked in ENTRY_POINTS
    for arg, kind, name in checked
    for bad in (BAD[kind] if isinstance(kind, str) else [True, 2.5, kind - 1])
]

# A one-element array is not a number: the checks name the argument instead of numpy's TypeError.
ONE_ELEMENT = np.array([1.0])
REJECTED += [
    pytest.param(dyson.two_point_picard, dict(alpha=0.25, gamma=ONE_ELEMENT, t_max=0.2, t_step=0.1, x_half_width=3.0,
                                              x_step=0.25), "clock rate gamma", id="two_point_picard-gamma=array"),
    pytest.param(dyson.mass_curve, dict(alpha=0.25, gamma=ONE_ELEMENT, t_max=1.0), "clock rate gamma",
                 id="mass_curve-gamma=array"),
    pytest.param(sample_extinction_times, dict(config=config(0.25), horizon=ONE_ELEMENT, replicas=2, seed=0),
                 "horizon", id="sample_extinction_times-horizon=array"),
    pytest.param(kernels.heat_kernel, dict(t=ONE_ELEMENT, x=0.0, y=0.0), "t", id="heat_kernel-t=array"),
    pytest.param(dyson.FertilityDistribution.binary, dict(alpha=np.array([0.25])), "alpha", id="binary-alpha=array"),
    pytest.param(estimate_generating_function, dict(config=config(0.25), theta=np.array([0.5]), t=1.0, replicas=2,
                                                    seed=0), "theta", id="estimate_generating_function-theta=array"),
    pytest.param(kernels.retarded_propagator_heat, dict(x=(ONE_ELEMENT, 0.0), y=(2.0, 0.0), gamma=1.0), "x time",
                 id="retarded_propagator_heat-x_time=array"),
    pytest.param(kernels.retarded_propagator_heat, dict(x=(0.0, 0.0), y=(ONE_ELEMENT, 0.0), gamma=1.0), "y time",
                 id="retarded_propagator_heat-y_time=array"),
]
REJECTED += [
    pytest.param(fn, {**valid, arg: ONE_ELEMENT}, name, id=f"{fn.__qualname__}-{arg}=array")
    for fn, valid, arg, name in [
        (kernels.apply_semigroup, dict(u=U), "t", "t"),
        (kernels.ck_residual, dict(t=1.0, s=1.0, x=0.0, y=0.0), "t", "t"),
        (kernels.ck_residual, dict(t=1.0, s=1.0, x=0.0, y=0.0), "s", "s"),
        (kernels.event_probability, dict(gamma=1.0), "dtau", "duration dtau"),
        (kernels.time_evolution, dict(energy=1.0), "t", "t"),
        (kernels.SampledFunction, dict(step=0.1, values=[0.0, 1.0]), "origin", "grid origin"),
        (dyson.SpaceTimeField, dict(t_step=0.1, x_step=0.1, values=np.ones((2, 3))), "t_step", "t_step"),
        (dyson.SpaceTimeField, dict(t_step=0.1, x_step=0.1, values=np.ones((2, 3))), "x_step", "x_step"),
        (dyson.one_point_ode, dict(fertility=FERTILITY, gamma=1.0, theta0=0.0, tau_max=1.0), "step", "grid step"),
        (dyson.one_point_picard, dict(alpha=0.25, gamma=1.0, tau_max=1.0, order=2), "step", "grid step"),
        (dyson.mass_curve, dict(alpha=0.25, gamma=1.0, t_max=1.0), "step", "grid step"),
    ]
]
# A law that is not 1-d, and curve grids past 2**24 steps (the default step 1e-3/gamma; nothing is allocated).
REJECTED += [
    pytest.param(dyson.FertilityDistribution, dict(p=np.array([[0.5, 0.5]])), "offspring probability", id="law=2-d"),
    pytest.param(dyson.mass_curve, dict(alpha=0.25, gamma=1e300, t_max=1.0), "grid span", id="mass_curve-2**24"),
    pytest.param(dyson.one_point_picard, dict(alpha=0.25, gamma=1e300, tau_max=1.0, order=2), "grid span",
                 id="one_point_picard-2**24"),
    pytest.param(dyson.one_point_ode, dict(fertility=FERTILITY, gamma=1e300, theta0=0.0, tau_max=1.0), "grid span",
                 id="one_point_ode-2**24"),
]


@pytest.mark.parametrize("fn, kwargs, name", REJECTED)
def test_shared_checks_reject_and_name_the_argument(fn, kwargs, name):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must "):
        fn(**kwargs)
