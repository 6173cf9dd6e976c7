import math

import numpy as np
import pytest

from heatfield import kernels, pring
from heatfield.kernels import (
    DimensionMismatchError,
    GridTooNarrowError,
    NonPositiveTimeError,
    SampledFunction,
    apply_semigroup,
    ck_residual,
    event_probability,
    heat_kernel,
    retarded_propagator_heat,
    time_evolution,
)


def gaussian_pdf(x, var):
    return np.exp(-np.asarray(x) ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


class TestHeatKernel:
    def test_hand_values(self):
        # d=1, t=1, coincident points: (2*pi)**-0.5
        assert heat_kernel(1.0, 0.0, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-15)
        # d=2, t=0.5, separation 1: exp(-1)/pi
        assert heat_kernel(0.5, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(
            math.exp(-1) / math.pi, rel=1e-15
        )

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.integers(1, 4)
            x, y = rng.normal(size=(2, d))
            t = rng.uniform(0.05, 3.0)
            assert heat_kernel(t, x, y) == heat_kernel(t, y, x)

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_normalization(self, t):
        h = math.sqrt(t) / 8.0
        zs = 0.3 + np.arange(-8 * 8, 8 * 8 + 1) * h  # half-width 8*sqrt(t) around x
        vals = np.array([heat_kernel(t, 0.3, z) for z in zs])
        integral = h * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
        assert integral == pytest.approx(1.0, abs=1e-8)

    def test_errors(self):
        with pytest.raises(NonPositiveTimeError):
            heat_kernel(0.0, 0.0, 0.0)
        with pytest.raises(NonPositiveTimeError):
            heat_kernel(-1.0, 0.0, 0.0)
        with pytest.raises(DimensionMismatchError):
            heat_kernel(1.0, [0.0], [0.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            heat_kernel(1.0, [0.0] * 4, [0.0] * 4)


class TestSampledFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampledFunction(0.0, 0.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            SampledFunction(0.0, 0.1, [1.0])
        with pytest.raises(ValueError):
            SampledFunction(0.0, 0.1, [1.0, math.nan])

    def test_immutability_and_interp(self):
        u = SampledFunction(0.0, 1.0, [0.0, 2.0, 4.0])
        assert not u.values.flags.writeable
        assert u(0.5) == 1.0
        assert u(-3.0) == 0.0  # clamped to edge values
        assert u(9.0) == 4.0

    def test_step_nodes_and_interpolation(self):
        with pytest.raises(ValueError):
            SampledFunction(0.0, -1.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            SampledFunction(0.0, 1.0, [math.inf, 1.0])
        u = SampledFunction(1.0, 0.5, [0.0, 1.0, 4.0])
        np.testing.assert_array_equal(u.nodes, [1.0, 1.5, 2.0])
        assert u(1.25) == 0.5

    def test_nodes_are_cached_and_read_only(self):
        u = SampledFunction(-10.5, 0.01, np.zeros(2101))
        assert u.nodes is u.nodes
        assert not u.nodes.flags.writeable
        assert np.array_equal(u.nodes, -10.5 + 0.01 * np.arange(2101))
        with pytest.raises(ValueError):
            u.nodes[0] = 0.0


class TestSemigroup:
    def test_gaussian_spreads_by_t(self):
        u = SampledFunction.sample(lambda x: gaussian_pdf(x, 0.1), -7.0, 0.01, 1401)
        out = apply_semigroup(u, 0.4)
        inner = np.abs(out.nodes) < 3.0
        target = gaussian_pdf(out.nodes, 0.5)
        assert np.max(np.abs(out.values - target)[inner]) < 1e-8

    def test_flat_initial_condition_stays_flat_inside(self):
        nodes = -14.0 + 0.02 * np.arange(1401)
        u = SampledFunction(-14.0, 0.02, (np.abs(nodes) <= 7.0).astype(float))
        out = apply_semigroup(u, 1.0)
        inner = np.abs(out.nodes) <= 2.0
        assert np.max(np.abs(out.values[inner] - 1.0)) < 1e-6

    def test_composition_matches_single_step(self):
        u = SampledFunction.sample(lambda x: gaussian_pdf(x, 0.02), -12.0, 0.01, 2401)
        twice = apply_semigroup(apply_semigroup(u, 0.5), 0.5)
        once = apply_semigroup(u, 1.0)
        inner = np.abs(once.nodes) <= 3.0
        assert np.max(np.abs(twice.values - once.values)[inner]) < 1e-6

    def test_too_narrow_grid_raises(self):
        u = SampledFunction.sample(lambda x: gaussian_pdf(x, 0.1), -2.0, 0.01, 401)
        with pytest.raises(GridTooNarrowError):
            apply_semigroup(u, 1.0)

    def test_zero_function_passes_through(self):
        u = SampledFunction(0.0, 0.1, np.zeros(32))
        out = apply_semigroup(u, 5.0)
        assert np.all(out.values == 0.0)


class TestChapmanKolmogorov:
    @pytest.mark.parametrize(
        "t,s,x,y",
        [(0.5, 0.5, 0.0, 0.0), (0.3, 0.7, 0.0, 1.0), (1.0, 1.0, -1.0, 1.0)],
    )
    def test_consistency(self, t, s, x, y):
        assert ck_residual(t, s, x, y) < 1e-6

    def test_random_sample(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            t, s = rng.uniform(0.1, 2.0, size=2)
            x = rng.uniform(-1.0, 1.0)
            y = x + rng.uniform(-3.0, 3.0)
            assert ck_residual(t, s, x, y) < 1e-6

    def test_rejects_bad_durations(self):
        with pytest.raises(NonPositiveTimeError):
            ck_residual(0.0, 1.0, 0.0, 0.0)


class TestRetardedPropagator:
    def test_vanishes_backward_and_at_equal_times(self):
        assert retarded_propagator_heat((1.0, 0.0), (1.0, 0.5), 1.0) == 0.0
        assert retarded_propagator_heat((2.0, 0.0), (1.0, 0.5), 1.0) == 0.0

    def test_rate_zero_is_bare_kernel(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dt = rng.uniform(0.05, 2.0)
            x, y = rng.normal(size=2)
            assert retarded_propagator_heat((0.0, x), (dt, y), 0.0) == heat_kernel(dt, x, y)

    def test_hand_value(self):
        # d=1, gamma=1, dt=1, dx=0: exp(-1)/sqrt(2*pi)
        got = retarded_propagator_heat((0.0, 0.0), (1.0, 0.0), 1.0)
        assert got == pytest.approx(math.exp(-1) / math.sqrt(2 * math.pi), rel=1e-15)

    def test_is_decay_times_kernel(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dt = rng.uniform(0.05, 2.0)
            x, y = rng.normal(size=2)
            g = rng.uniform(0.0, 2.0)
            composed = math.exp(-g * dt) * heat_kernel(dt, x, y)
            assert retarded_propagator_heat((0.0, x), (dt, y), g) == composed

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            retarded_propagator_heat((0.0, 0.0), (1.0, 0.0), -0.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            retarded_propagator_heat((0.0, 0.0), (1.0, 0.0), gamma)


class TestEventProbability:
    def test_half_life_is_exact(self):
        assert event_probability(1.0, math.log(2.0)) == 0.5

    def test_degenerate_cases(self):
        assert event_probability(1.0, 0.0) == 0.0
        assert event_probability(0.0, 123.0) == 0.0

    def test_range_and_errors(self):
        assert 0.0 <= event_probability(2.0, 5.0) < 1.0
        with pytest.raises(ValueError):
            event_probability(-1.0, 1.0)
        with pytest.raises(ValueError):
            event_probability(1.0, -1.0)

    def test_infinite_rate_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            event_probability(math.inf, 0.0)

    def test_nan_rate_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            event_probability(math.nan, 1.0)

    def test_nan_duration_rejected(self):
        with pytest.raises(ValueError, match="dtau"):
            event_probability(1.0, math.nan)

    def test_infinite_duration(self):
        assert event_probability(2.0, math.inf) == 1.0
        assert event_probability(0.0, math.inf) == 0.0


class TestTimeEvolution:
    def test_identity_at_zero(self):
        assert time_evolution(3.0, 0.0) == pring.ONE

    def test_heat_projection(self):
        u = time_evolution(1.0, 1.0)
        assert pring.gamma_plus(u) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_unitarity_well_conditioned(self):
        # Absolute 1e-12 is attainable while cosh(E*t)**2 * eps stays
        # below it, i.e. |E*t| <= ~4.5.
        for et in np.linspace(0.0, 4.5, 19):
            u = time_evolution(1.0, et)
            unit = u * u.conj()
            assert abs(unit.re - 1.0) < 1e-12 and abs(unit.im) < 1e-12

    def test_unitarity_scaled_up_to_20(self):
        for et in np.linspace(0.0, 20.0, 41):
            u = time_evolution(1.0, et)
            unit = u * u.conj()
            scale = 1.0 + pring.magnitude(u) ** 2
            assert abs(unit.re - 1.0) / scale < 1e-12
            assert abs(unit.im) / scale < 1e-12

    def test_semigroup(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            energy = rng.uniform(0.0, 4.0)
            t, s = rng.uniform(-1.0, 1.0, size=2)
            lhs = time_evolution(energy, t) * time_evolution(energy, s)
            rhs = time_evolution(energy, t + s)
            scale = 1.0 + pring.magnitude(lhs)
            assert abs(lhs.re - rhs.re) / scale < 1e-12
            assert abs(lhs.im - rhs.im) / scale < 1e-12

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            time_evolution(-1.0, 1.0)
