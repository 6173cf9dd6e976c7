import dataclasses
import decimal
import hashlib
import math
import pickle
import re
import warnings
from itertools import accumulate

import numpy as np
import pytest
from scipy.integrate import simpson

from heatfield import dyson, kernels
from heatfield.dyson import (
    FertilityDistribution,
    StabilityViolationError,
    extinction_probability,
    mass_curve,
    one_point_closed_form,
    one_point_ode,
    one_point_picard,
    two_point_picard,
    two_point_residual,
)

BINARY_QUARTER = FertilityDistribution.binary(0.25)

# Classic RK4 of dA/dtau = alpha - A + (1-alpha)*A^2 at alpha = 0.25,
# step 1e-4, from A(0) = 0 to tau = 1 (independent of the library path).
RK4_ORACLE_QUARTER_AT_1 = 0.16439288929438495


def closed_form_oracle(alpha, gamma, tau):
    # A at 50 digits for the exact binary values of alpha, gamma and tau, from the Riccati
    # equation's two fixed points: A = alpha*(1 - E)/(max(alpha, beta) - min(alpha, beta)*E),
    # E = exp(-|alpha - beta|*gamma*tau), and gamma*tau/(gamma*tau + 2) at alpha = beta.
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, g, t = (decimal.Decimal(v) for v in (alpha, gamma, tau))
        b = 1 - a
        if a == b:
            return g * t / (g * t + 2)
        e = (-abs(a - b) * g * t).exp()
        return a * (1 - e) / (max(a, b) - min(a, b) * e)


def volterra_oracle(alpha, gamma, h, prev):
    # Direct O(n^2) trapezoid history sum of one Picard step, the full
    # discrete convolution minus the half-weight end corrections.
    f = gamma * (1.0 - alpha) * np.exp(-gamma * h * np.arange(prev.size))
    q = prev * prev
    return h * (np.convolve(f, q)[: prev.size] - 0.5 * (f[0] * q + f * q[0]))


def direct_two_point_march(alpha, gamma, t_max, t_step, x_half_width, x_step):
    # Forward march with each lag's Gaussian convolution taken as an
    # x-trapezoid sum on the grid, O(nt^2 nx^2), not spectrally.
    times = t_step * np.arange(1, round(t_max / t_step) + 1)
    half = round(x_half_width / x_step)
    xs = x_step * np.arange(-half, half + 1)
    base = np.array(
        [[kernels.retarded_propagator_heat((0.0, 0.0), (t, x), gamma) for x in xs] for t in times]
    )
    a = one_point_closed_form(alpha, gamma, times)
    coeff = gamma * (1.0 - alpha) * t_step
    field = np.empty_like(base)
    for j in range(times.size):
        ladder = np.zeros(xs.size)
        for m in range(j):
            w = times[j - m - 1]
            gauss = np.exp(-(xs**2) / (2.0 * w)) / math.sqrt(2.0 * math.pi * w)
            ladder += math.exp(-gamma * w) * a[m] * x_step * np.convolve(field[m], gauss, mode="same")
        field[j] = (base[j] + coeff * ladder) / (1.0 - 0.5 * coeff * a[j])
    return field


def direct_apply(op, field):
    # _TwoPointOperator.apply as a direct sum over the lags of each row, with the
    # lag multipliers exp(-(j - m)*k*rate) built afresh for every row.
    spectra = op.a[:, None] * np.fft.rfft(field, axis=1)
    out = np.empty_like(op.base)
    for j in range(1, op.nt + 1):
        lags = op.k * np.arange(j - 1, 0, -1)
        history = (np.exp(-np.outer(lags, op.rate)) * spectra[: j - 1]).sum(axis=0)
        ladder = 0.5 * op.a[j - 1] * field[j - 1] + np.fft.irfft(history, op.xs.size)
        out[j - 1] = op.base[j - 1] + op.coeff * ladder
    return out


def rk4_oracle(alpha, gamma, tau, h=1e-4):
    beta = 1.0 - alpha
    y = 0.0
    for _ in range(int(round(tau / h))):
        f = lambda v: gamma * (alpha - v + beta * v * v)
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return y


class TestFertility:
    def test_validation(self):
        with pytest.raises(ValueError):
            FertilityDistribution(())
        with pytest.raises(ValueError):
            FertilityDistribution((0.5, -0.1, 0.6))
        with pytest.raises(ValueError):
            FertilityDistribution((0.5, 0.4))
        with pytest.raises(ValueError):
            FertilityDistribution.binary(1.5)

    def test_non_finite_entries_rejected(self):
        # NaN compares false against every bound, so the sum check alone lets it through.
        for law in ((math.nan, 1.0), (math.inf, 1.0), (0.5, 0.5, math.nan)):
            with pytest.raises(ValueError):
                FertilityDistribution(law)

    def test_pgf(self):
        binary = FertilityDistribution.binary(0.3)
        phis = np.linspace(0.0, 1.0, 7)
        assert np.allclose(binary.pgf(phis), 0.3 + 0.7 * phis**2, rtol=0, atol=1e-15)
        assert binary.pgf(1.0) == pytest.approx(1.0, abs=1e-15)
        single = FertilityDistribution((0.0, 1.0))
        assert single.pgf(0.37) == 0.37


class TestClosedForm:
    def test_critical_spot_value(self):
        assert one_point_closed_form(0.5, 1.0, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_starts_at_zero(self):
        for alpha in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
            assert one_point_closed_form(alpha, 1.3, 0.0) == 0.0

    def test_matches_frozen_rk4_oracle(self):
        got = one_point_closed_form(0.25, 1.0, 1.0)
        assert got == pytest.approx(RK4_ORACLE_QUARTER_AT_1, abs=1e-8)

    def test_matches_live_rk4_oracle_across_alphas(self):
        for alpha in (0.1, 0.4, 0.6, 0.9):
            want = rk4_oracle(alpha, 2.0, 1.5, h=1e-4)
            assert one_point_closed_form(alpha, 2.0, 1.5) == pytest.approx(want, abs=1e-9)

    def test_degenerate_branches(self):
        taus = np.linspace(0.0, 5.0, 11)
        assert np.all(one_point_closed_form(0.0, 1.0, taus) == 0.0)
        np.testing.assert_allclose(
            one_point_closed_form(1.0, 1.0, taus), -np.expm1(-taus), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize(
        "alpha", [0.0, 2.0**-60, 2.0**-54, 1e-9, 0.1, 0.25, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 0.75, 0.9, 1 - 1e-12, 1.0]
    )
    def test_relative_error_against_a_50_digit_oracle(self, alpha, gamma):
        taus = np.geomspace(1e-8, 200.0, 49)
        got = one_point_closed_form(alpha, gamma, taus)
        want = [closed_form_oracle(alpha, gamma, tau) for tau in taus.tolist()]
        if alpha == 0.0:
            assert np.all(got == 0.0)
            return
        worst = max(abs(decimal.Decimal(g) - w) / w for g, w in zip(got.tolist(), want))
        assert worst <= decimal.Decimal("1e-15"), float(worst)

    @pytest.mark.parametrize("alpha", [1e-300, 3.4e-193, 2.0**-55])
    def test_alpha_too_small_to_move_s_off_1(self, alpha):
        # 1 - 2*alpha rounds to 1, where artanh(s) used to raise "math domain error";
        # A = alpha*(1 - exp(-gamma*tau)) + O(alpha**2).
        taus = np.linspace(0.0, 5.0, 11)
        np.testing.assert_allclose(one_point_closed_form(alpha, 1.3, taus), -alpha * np.expm1(-1.3 * taus), rtol=1e-15)
        assert np.all(two_point_picard(alpha, 1.3, 1.0, 0.1, 6.5, 0.1).values >= 0.0)

    def test_monotone_increasing(self):
        taus = np.linspace(0.0, 20.0, 400)
        for alpha in (0.1, 0.5, 0.9):
            vals = one_point_closed_form(alpha, 1.0, taus)
            assert np.all(np.diff(vals) > 0)

    def test_long_time_limits(self):
        for alpha in (0.1, 0.25, 0.75, 0.9, 1.0):
            got = one_point_closed_form(alpha, 1.0, 1e3)
            assert got == pytest.approx(extinction_probability(alpha), abs=1e-6)
        assert one_point_closed_form(0.5, 1.0, 1e5) == pytest.approx(1.0, abs=1e-4)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            one_point_closed_form(1.2, 1.0, 1.0)
        with pytest.raises(ValueError):
            one_point_closed_form(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            one_point_closed_form(0.5, 1.0, -0.1)

    def test_nan_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            one_point_closed_form(0.25, 1.0, math.nan)
        with pytest.raises(ValueError, match="tau"):
            one_point_closed_form(0.25, 1.0, np.array([0.5, math.nan]))


class TestExtinctionProbability:
    def test_branches(self):
        assert extinction_probability(0.25) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert extinction_probability(0.5) == 1.0
        assert extinction_probability(0.0) == 0.0
        assert extinction_probability(1.0) == 1.0

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            extinction_probability(alpha)

    def test_every_alpha_check_keeps_its_message(self):
        # One check serves all three; binary formats alpha as a float.
        for call, got in (
            (lambda: FertilityDistribution.binary(2), "2.0"),
            (lambda: extinction_probability(2), "2"),
            (lambda: one_point_closed_form(2, 1.0, 1.0), "2"),
            (lambda: mass_curve(-1, 1.0, 1.0), "-1"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(f'alpha must lie in [0, 1], got {got}')}$"):
                call()


class TestOnePointOde:
    def test_matches_closed_form(self):
        curve = one_point_ode(BINARY_QUARTER, 1.0, 0.0, 5.0, 1e-3)
        closed = one_point_closed_form(0.25, 1.0, curve.nodes)
        assert np.max(np.abs(curve.values - closed)) < 1e-8

    def test_single_offspring_is_fixed_point(self):
        curve = one_point_ode(FertilityDistribution((0.0, 1.0)), 1.0, 0.37, 2.0, 1e-2)
        assert np.all(curve.values == 0.37)

    def test_theta_one_stays_one(self):
        curve = one_point_ode(FertilityDistribution((0.3, 0.2, 0.5)), 1.0, 1.0, 2.0, 1e-2)
        assert np.max(np.abs(curve.values - 1.0)) < 1e-12

    def test_pgf_root_is_stationary(self):
        # 1/3 solves pgf(phi) = phi for the binary alpha = 0.25 law.
        curve = one_point_ode(BINARY_QUARTER, 1.0, 1.0 / 3.0, 5.0, 1e-3)
        assert np.max(np.abs(curve.values - 1.0 / 3.0)) < 1e-9

    def test_unstable_step_raises(self):
        with pytest.raises(StabilityViolationError):
            one_point_ode(FertilityDistribution.binary(0.0), 1.0, 0.9, 200.0, 50.0)

    @pytest.mark.parametrize("step", [1e60, 1e200])
    def test_overflowing_step_raises(self, step):
        # The RK4 stages overflow to inf and then NaN, which compares false against both bounds.
        with pytest.raises(StabilityViolationError, match=re.escape("range [nan, nan]")):
            one_point_ode(BINARY_QUARTER, 1.0, 0.0, 1.0, step=step)

    def test_validation(self):
        with pytest.raises(ValueError):
            one_point_ode(BINARY_QUARTER, 1.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            one_point_ode(BINARY_QUARTER, -1.0, 0.5, 1.0)

    def test_non_finite_grid_rejected(self):
        # Each used to reach int(round(inf)) and raise OverflowError.
        with pytest.raises(ValueError, match="span"):
            one_point_ode(BINARY_QUARTER, 1.0, 0.0, math.inf)
        with pytest.raises(ValueError, match="span"):
            mass_curve(0.25, 1.0, math.inf)
        with pytest.raises(ValueError, match="step"):
            one_point_picard(0.25, 1.0, 1.0, 3, step=math.nan)
        with pytest.raises(ValueError, match="step"):
            two_point_picard(0.5, 1.0, 1.0, math.inf, 6.5, 0.1)
        with pytest.raises(ValueError, match="span"):
            two_point_picard(0.5, 1.0, 1.0, 0.1, math.inf, 0.1)

    def test_infinite_gamma_names_gamma(self):
        for call in (
            lambda: mass_curve(0.25, math.inf, 1.0),
            lambda: one_point_ode(BINARY_QUARTER, math.inf, 0.0, 1.0),
            lambda: one_point_closed_form(0.25, math.inf, 1.0),
        ):
            with pytest.raises(ValueError, match="gamma"):
                call()


class TestOnePointPicard:
    def test_first_order_is_bare_death_integral(self):
        curve = one_point_picard(0.25, 1.0, 5.0, order=1)
        want = 0.25 * -np.expm1(-curve.nodes)
        assert np.max(np.abs(curve.values - want)) < 1e-6

    def test_orders_increase_pointwise(self):
        prev = np.zeros(5001)
        for order in range(1, 7):
            curve = one_point_picard(0.5, 1.0, 5.0, order)
            assert np.all(curve.values >= prev - 1e-15)
            prev = curve.values

    def test_high_order_reaches_closed_form(self):
        curve = one_point_picard(0.5, 1.0, 5.0, order=30)
        closed = one_point_closed_form(0.5, 1.0, curve.nodes)
        assert np.max(np.abs(curve.values - closed)) < 1e-3

    def test_each_order_matches_direct_convolution(self):
        alpha, gamma, h = 0.5, 1.0, 1e-3
        base = one_point_picard(alpha, gamma, 5.0, 1).values
        prev = base
        for order in range(2, 9):
            curve = one_point_picard(alpha, gamma, 5.0, order)
            want = base + volterra_oracle(alpha, gamma, h, prev)
            assert np.max(np.abs(curve.values - want)) < 1e-13
            prev = curve.values

    @pytest.mark.parametrize("order", [2.5, True, 0, np.float64(3.0)])
    def test_order_must_be_an_integer_at_least_1(self, order):
        # 2.5 used to raise an undocumented TypeError and True ran as order 1.
        with pytest.raises(ValueError, match="order"):
            one_point_picard(0.25, 1.0, 1.0, order, step=0.1)

    def test_iterate_outside_unit_band_raises(self):
        # Step 3 used to return A = 1.61 and 2.61 at order 5.
        with pytest.raises(StabilityViolationError, match="Picard iterate left"):
            one_point_picard(0.25, 1.0, 5.0, 5, step=3.0)

    def test_band_checked_before_iterates_overflow(self):
        # Step 2 at order 40 used to overflow: a numpy RuntimeWarning, then SampledFunction's error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StabilityViolationError):
                one_point_picard(0.25, 1.0, 20.0, 40, step=2.0)

    @pytest.mark.parametrize("step, bias", [(0.2, 2.2e-3), (1.0, 0.068)])
    def test_coarse_step_bias_as_documented(self, step, bias):
        curve = one_point_picard(0.25, 1.0, 20.0, 200, step=step)
        worst = np.max(np.abs(curve.values - one_point_closed_form(0.25, 1.0, curve.nodes)))
        assert worst == pytest.approx(bias, rel=0.03)

    def test_updates_contract_from_second_order(self):
        curves = [one_point_picard(0.5, 1.0, 5.0, order) for order in range(1, 9)]
        gaps = [np.max(np.abs(b.values - a.values)) for a, b in zip(curves, curves[1:])]
        assert all(later < earlier for earlier, later in zip(gaps[1:], gaps[2:]))


class TestMassCurve:
    def test_pure_death_is_exponential(self):
        curve = mass_curve(1.0, 2.0, 3.0, step=1e-3)
        np.testing.assert_array_equal(curve.values, np.exp(-2.0 * curve.nodes))

    def test_starts_at_one(self):
        assert mass_curve(0.5, 1.0, 1.0).values[0] == 1.0

    def test_satisfies_equation_under_independent_quadrature(self):
        gamma, alpha = 1.0, 0.5
        curve = mass_curve(alpha, gamma, 2.0, step=1e-3)
        times = curve.nodes
        decay = np.exp(-gamma * times)
        a_vals = one_point_closed_form(alpha, gamma, times)
        worst = 0.0
        for idx in range(200, 2001, 200):
            w = times[: idx + 1]
            integrand = (
                gamma * (1 - alpha) * np.exp(-gamma * w) * a_vals[idx::-1] * curve.values[idx::-1]
            )
            rhs = decay[idx] + simpson(integrand, x=w)
            worst = max(worst, abs(curve.values[idx] - rhs))
        assert worst < 1e-6

    def test_trapezoid_defect_is_roundoff_to_t_40(self):
        # The discrete equation itself, evaluated at every integer time.
        # An absolute stopping tolerance on a curve that decays to 1e-5
        # once left a relative defect of 4e-3 at t = 40.
        alpha, gamma, h = 0.1, 1.0, 1e-3
        curve = mass_curve(alpha, gamma, 40.0)
        m = curve.values
        t = curve.nodes
        f = gamma * (1 - alpha) * np.exp(-gamma * t)
        q = one_point_closed_form(alpha, gamma, t) * m
        worst = 0.0
        for i in range(1000, m.size, 1000):
            conv = h * (np.dot(f[: i + 1], q[i::-1]) - 0.5 * (f[0] * q[i] + f[i] * q[0]))
            worst = max(worst, abs(m[i] - math.exp(-gamma * t[i]) - conv) / m[i])
        assert worst <= 1e-12


def picard_loop(alpha, gamma, tau_max, order, step=None):
    # one_point_picard as it was before the scan: each history sum carried node by node.
    h, n = dyson._curve_grid(gamma, tau_max, step)
    survival = np.exp(-gamma * (h * np.arange(n + 1)))
    base = np.concatenate(([0.0], np.cumsum(0.5 * h * (survival[1:] + survival[:-1]))))
    base *= gamma * alpha
    c = 0.5 * h * gamma * (1.0 - alpha)
    r = math.exp(-gamma * h)
    a = np.zeros(n + 1)
    for _ in range(order):
        q = a * a
        s = accumulate(q[:-1].tolist(), lambda acc, qk: r * (acc + qk), initial=0.0)
        a = base + c * (2.0 * np.fromiter(s, float, n + 1) + q)
    return a


def mass_curve_loop(alpha, gamma, t_max, step=None):
    # mass_curve as it was before the scan: the forward march, one node at a time.
    h, n = dyson._curve_grid(gamma, t_max, step)
    times = h * np.arange(n + 1)
    base = np.exp(-gamma * times)
    a_curve = one_point_closed_form(alpha, gamma, times)
    div = dyson._march_divisors(alpha, gamma, h, a_curve)
    r = math.exp(-gamma * h)
    coeff = h * gamma * (1.0 - alpha)
    m = base.copy()
    s = q = 0.0
    for i in range(1, n + 1):
        s = r * (s + q)
        m[i] = (base[i] + coeff * s) / div[i]
        q = a_curve[i] * m[i]
    return m


SCAN_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)
SCAN_GAMMAS = (0.3, 1.0, 2.5)


class TestScanAgainstLoops:
    """The array scans against the node-by-node loops they replaced, to 1e-12 relative."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 1000, 4097])
    def test_linear_scan_solves_the_recurrence(self, n):
        rng = np.random.default_rng(n)
        r, u, d = 0.97, rng.random(n) * 1e-2, rng.random(n)
        want, s = [], 0.0
        for ui, di in zip(u.tolist(), d.tolist()):
            s = r * (1.0 + ui) * s + di
            want.append(s)
        np.testing.assert_allclose(dyson._linear_scan(r, d.copy(), u.copy()), want, rtol=1e-13, atol=0)
        want, s = [], 0.0
        for di in d.tolist():
            s = r * s + di
            want.append(s)
        np.testing.assert_allclose(dyson._linear_scan(r, d.copy()), want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("alpha", SCAN_ALPHAS)
    @pytest.mark.parametrize("gamma", SCAN_GAMMAS)
    def test_short_grids(self, alpha, gamma):
        for steps in (1, 2, 3):
            span = steps * 0.1
            np.testing.assert_allclose(
                mass_curve(alpha, gamma, span, step=0.1).values, mass_curve_loop(alpha, gamma, span, 0.1), rtol=1e-12, atol=0
            )
            for order in (1, 2, 5):
                np.testing.assert_allclose(
                    one_point_picard(alpha, gamma, span, order, step=0.1).values,
                    picard_loop(alpha, gamma, span, order, 0.1),
                    rtol=1e-12,
                    atol=0,
                )

    @pytest.mark.parametrize("alpha", SCAN_ALPHAS)
    @pytest.mark.parametrize("gamma", SCAN_GAMMAS)
    def test_default_grids(self, alpha, gamma):
        np.testing.assert_allclose(mass_curve(alpha, gamma, 3.0).values, mass_curve_loop(alpha, gamma, 3.0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            one_point_picard(alpha, gamma, 2.0, 6).values, picard_loop(alpha, gamma, 2.0, 6), rtol=1e-12, atol=0
        )

    def test_benchmark_curves(self):
        np.testing.assert_allclose(mass_curve(0.1, 1.0, 40.0).values, mass_curve_loop(0.1, 1.0, 40.0), rtol=1e-12, atol=0)
        for alpha in (0.25, 0.5, 0.75):
            np.testing.assert_allclose(
                one_point_picard(alpha, 1.0, 5.0, 20).values, picard_loop(alpha, 1.0, 5.0, 20), rtol=1e-12, atol=0
            )

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_degenerate_laws_are_exact(self, alpha):
        # alpha = 0: A = 0 and M = exp(-gamma*t); alpha = 1: no ladder term.  Both exactly.
        np.testing.assert_array_equal(mass_curve(alpha, 2.0, 3.0).values, mass_curve_loop(alpha, 2.0, 3.0))
        np.testing.assert_array_equal(one_point_picard(alpha, 2.0, 3.0, 4).values, picard_loop(alpha, 2.0, 3.0, 4))


@pytest.fixture(scope="module")
def field():
    return two_point_picard(0.5, 1.0, t_max=1.0, t_step=0.05, x_half_width=6.5, x_step=0.1)


class TestTwoPoint:
    def test_nonnegative_and_symmetric(self, field):
        assert np.all(field.values >= 0.0)
        np.testing.assert_allclose(field.values, field.values[:, ::-1], rtol=0, atol=1e-14)

    def test_fixed_point_residual(self, field):
        residual = two_point_residual(field, 0.5, 1.0)
        assert residual < 1e-6
        assert residual < 1e-13  # the march solves the discrete equation, not to a tolerance

    def test_matches_direct_x_trapezoid_march(self, field):
        want = direct_two_point_march(0.5, 1.0, 1.0, 0.05, 6.5, 0.1)
        assert np.max(np.abs(field.values - want)) < 1e-11

    def test_under_resolved_x_step_rejected(self):
        # x_step = .5 at t_step = .01 used to return a field whose slice
        # mass missed mass_curve by 0.985.
        with pytest.raises(ValueError, match="x_step"):
            two_point_picard(0.5, 1.0, t_max=1.0, t_step=0.01, x_half_width=6.5, x_step=0.5)

    def test_x_step_at_sqrt_t_step_accepted(self):
        field = two_point_picard(0.5, 1.0, t_max=0.5, t_step=0.01, x_half_width=5.0, x_step=0.1)
        assert np.all(field.values >= 0.0)
        assert two_point_residual(field, 0.5, 1.0) < 1e-6
        mass = mass_curve(0.5, 1.0, 0.5, step=1e-3)(field.times)
        assert np.max(np.abs(field.spatial_mass() - mass)) < 2e-4

    def test_slice_mass_matches_mass_curve(self, field):
        mass = mass_curve(0.5, 1.0, 1.0, step=1e-3)
        want = mass(field.times)
        assert np.max(np.abs(field.spatial_mass() - want)) < 2e-4

    def test_pure_death_equals_retarded_propagator_exactly(self):
        field = two_point_picard(1.0, 0.7, t_max=1.0, t_step=0.1, x_half_width=6.5, x_step=0.1)
        sampled = np.array(
            [
                [kernels.retarded_propagator_heat((0.0, 0.0), (t, x), 0.7) for x in field.xs]
                for t in field.times
            ]
        )
        np.testing.assert_array_equal(field.values, sampled)

    def test_narrow_grid_rejected(self):
        with pytest.raises(kernels.GridTooNarrowError):
            two_point_picard(0.5, 1.0, t_max=4.0, t_step=0.1, x_half_width=3.0, x_step=0.1)

    def test_coarse_step_rejected(self):
        # At gamma*step = 10 the diagonal weight 0.5*step*gamma*beta*A
        # exceeds 1: the discrete equation has no nonnegative solution.
        with pytest.raises(ValueError, match="too coarse"):
            two_point_picard(0.5, 10.0, t_max=2.0, t_step=1.0, x_half_width=9.0, x_step=0.1)
        with pytest.raises(ValueError, match="too coarse"):
            mass_curve(0.5, 10.0, 2.0, step=1.0)


def test_curve_solvers_return_sampled_functions():
    curves = (
        mass_curve(0.5, 1.0, 1.0, step=0.1),
        one_point_ode(BINARY_QUARTER, 1.0, 0.0, 1.0, 0.1),
        one_point_picard(0.25, 1.0, 1.0, 3, step=0.1),
    )
    for curve in curves:
        assert isinstance(curve, kernels.SampledFunction)
        np.testing.assert_allclose(curve.nodes, 0.1 * np.arange(11), rtol=0, atol=1e-15)
        assert curve(0.15) == pytest.approx(0.5 * (curve.values[1] + curve.values[2]), abs=1e-15)


class TestGridRule:
    # Every solver takes the fewest whole steps that reach its span.  The first
    # spans here are not whole numbers of steps: round(span / step) steps would
    # stop short of them, and reads past a grid's end are clamped.
    def test_one_point_ode_reaches_its_span(self):
        curve = one_point_ode(BINARY_QUARTER, 1.2345, 0.5, 1.0)
        np.testing.assert_array_equal(curve.nodes, (1e-3 / 1.2345) * np.arange(1236))
        fine = one_point_ode(BINARY_QUARTER, 1.2345, 0.5, 1.0, 1e-6)
        assert abs(curve(1.0) - fine(1.0)) < 1e-8
        assert abs(curve(1.0) - 0.4349366) < 1e-8

    def test_one_point_picard_and_mass_curve_reach_their_span(self):
        np.testing.assert_array_equal(one_point_picard(0.25, 1.0, 1.0, 20, step=0.3).nodes, 0.3 * np.arange(5))
        np.testing.assert_array_equal(mass_curve(0.25, 1.0, 1.0, step=0.4).nodes, 0.4 * np.arange(4))

    def test_two_point_field_reaches_its_span(self):
        field = two_point_picard(0.5, 1.0, 2.0, 0.45, 10.0, 0.1)
        np.testing.assert_array_equal(field.times, 0.45 * np.arange(1, 6))
        assert field.times[-1] == 2.25

    @pytest.mark.parametrize("grid", [(2.0, 0.025, 10.0, 0.05), (2.0, 0.45, 10.0, 0.1), (0.1, 0.3, 3.35, 0.3)])
    def test_two_point_shape_is_the_solved_shape(self, grid):
        assert dyson.two_point_shape(*grid) == two_point_picard(0.5, 1.0, *grid).values.shape

    def test_two_point_shape_allocates_nothing(self):
        # 20,000 x 2,001 nodes: 320 MB as one float64 field.
        assert dyson.two_point_shape(2.0, 1e-4, 10.0, 1e-2) == (20000, 2001)
        with pytest.raises(ValueError, match="^grid span must take a finite number of steps"):
            dyson.two_point_shape(1e300, 1e-300, 10.0, 0.1)

    def test_span_below_half_a_step_takes_one_step(self):
        np.testing.assert_array_equal(one_point_picard(0.25, 1.0, 0.1, 2, step=0.3).nodes, [0.0, 0.3])
        assert dyson._grid_count(1e-9, 1.0) == (1.0, 1)

    def test_benchmark_spans_keep_their_nodes(self):
        # Whole spans keep their round(span / step) steps, and so every byte: the
        # benchmark's one-point runs to tau 5 (and 6), its mass curve to 40 and its
        # two-point fields to t 2 and x 10 on the coarse and the fine grid.
        for tau in (5.0, 6.0):
            want = 1e-3 * np.arange(round(tau * 1e3) + 1)
            np.testing.assert_array_equal(one_point_picard(0.25, 1.0, tau, 1).nodes, want)
            np.testing.assert_array_equal(one_point_ode(BINARY_QUARTER, 1.0, 0.0, tau).nodes, want)
        np.testing.assert_array_equal(mass_curve(0.1, 1.0, 40.0).nodes, 1e-3 * np.arange(40001))
        for t_step, x_step in ((0.05, 0.1), (0.025, 0.05)):
            field = two_point_picard(0.5, 1.0, 2.0, t_step, 10.0, x_step)
            np.testing.assert_array_equal(field.times, t_step * np.arange(1, round(2.0 / t_step) + 1))
            half = round(10.0 / x_step)
            np.testing.assert_array_equal(field.xs, x_step * np.arange(-half, half + 1))

    def test_narrow_grid_message_names_the_last_time(self):
        # The field's last row is at t = 2.25, past t_max = 2, so 8.5 is too narrow.
        with pytest.raises(
            kernels.GridTooNarrowError,
            match=re.escape("spatial half-width 8.5 must be >= 6*sqrt(2.25) = 9, 2.25 being the grid's last time"),
        ):
            two_point_picard(0.5, 1.0, 2.0, 0.45, 8.5, 0.1)

    def test_residual_reads_the_grid_from_the_field(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 0.4, size=(7, 181))
        field = dyson.SpaceTimeField(0.3, 0.1, values)
        op = dyson._TwoPointOperator(0.5, 1.0, 7, 0.3, 90, 0.1)
        want = float(np.max(np.abs(op.apply(field.values) - field.values)))
        assert two_point_residual(field, 0.5, 1.0) == want

    def test_residual_reuses_the_solved_operator(self):
        # The operator is memoised by its arguments: a solve and its residual build one, the
        # residual of a hand-made copy of the field builds none and equals it bit for bit.
        build = dyson._two_point_operator
        build.cache_clear()
        field = two_point_picard(0.25, 1.0, 2.0, 0.05, 10.0, 0.1)
        copy = dyson.SpaceTimeField(field.t_step, field.x_step, field.values)
        assert repr(copy) == repr(field)
        residual = two_point_residual(field, 0.25, 1.0)
        assert build.cache_info().misses == 1
        assert two_point_residual(copy, 0.25, 1.0) == residual
        assert build.cache_info().misses == 1
        # Another alpha or gamma gets its own operator, once for both fields.
        for alpha, gamma in ((0.5, 1.0), (0.25, 1.5)):
            assert two_point_residual(field, alpha, gamma) == two_point_residual(copy, alpha, gamma)
        assert build.cache_info().misses == 3
        # A numpy scalar or a 0-d array is the key of the equal float.
        assert two_point_residual(copy, np.float64(0.25), np.array(1.5)) == two_point_residual(copy, 0.25, 1.5)
        assert build.cache_info().misses == 3
        with pytest.raises(ValueError, match="alpha"):
            two_point_residual(field, math.nan, 1.0)

    def test_field_is_a_plain_value(self):
        # A solved field carries no operator: it has only its three fields, and pickles
        # as a hand-made field with the same values does.
        assert [f.name for f in dataclasses.fields(dyson.SpaceTimeField)] == ["t_step", "x_step", "values"]
        field = two_point_picard(0.25, 1.0, 2.0, 0.025, 10.0, 0.05)
        copy = dyson.SpaceTimeField(field.t_step, field.x_step, field.values.copy())
        assert abs(len(pickle.dumps(field)) - len(pickle.dumps(copy))) <= 1024

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.75, 1.0])
    def test_apply_equals_direct_lags(self, alpha):
        # The benchmark's coarse and fine grids, and grids of 1, 2 and 7 rows, on the
        # march's field and on a random one.  The FFT convolution sums the lags in
        # another order; at alpha = 1 the ladder's coefficient is 0 and apply is exact.
        rng = np.random.default_rng(11)
        for grid in ((40, 0.05, 100, 0.1), (80, 0.025, 200, 0.05)) + tuple((nt, 0.3, 90, 0.1) for nt in (1, 2, 7)):
            op = dyson._TwoPointOperator(alpha, 1.0, *grid)
            for values in (op.march(), rng.uniform(0.0, 0.4, size=op.base.shape)):
                want = direct_apply(op, values)
                if alpha == 1.0:
                    np.testing.assert_array_equal(op.apply(values), want)
                assert np.max(np.abs(op.apply(values) - want)) <= 1e-15 * np.max(np.abs(want))

    def test_field_steps_must_be_positive_and_finite(self):
        for t_step, x_step in ((0.0, 0.1), (0.1, -0.1), (math.nan, 0.1), (0.1, math.inf)):
            with pytest.raises(ValueError, match="^[tx]_step must be finite and > 0, got "):
                dyson.SpaceTimeField(t_step, x_step, np.ones((2, 3)))
        with pytest.raises(ValueError, match="time row"):
            dyson.SpaceTimeField(0.1, 0.1, np.ones((0, 3)))

    def test_field_needs_an_odd_node_count_and_finite_values(self):
        with pytest.raises(ValueError, match="odd node count"):
            dyson.SpaceTimeField(0.1, 0.1, np.ones((2, 4)))
        for bad in (math.nan, math.inf, -math.inf):
            values = np.ones((2, 3))
            values[1, 2] = bad
            with pytest.raises(ValueError, match="^field values must be finite$"):
                dyson.SpaceTimeField(0.1, 0.1, values)


def row_march(op):
    # _TwoPointOperator.march as it was before the scan: each mode's history
    # carried forward one time row at a time, through irfft and rfft.
    field = np.empty_like(op.base)
    step = np.exp(-op.rate * op.k)
    history = np.zeros(op.rate.size, dtype=complex)
    for j in range(1, op.nt + 1):
        ladder = np.fft.irfft(history, op.xs.size)
        field[j - 1] = (op.base[j - 1] + op.coeff * ladder) / op.div[j - 1]
        history = step * (history + op.a[j - 1] * np.fft.rfft(field[j - 1]))
    return np.maximum(field, 0.0, out=field)


# (nt, t_step, half, x_step): the benchmark's coarse and fine grids (t 2, half-width 10),
# and grids of 1, 2 and 3 rows.
MARCH_GRIDS = [(40, 0.05, 100, 0.1), (80, 0.025, 200, 0.05), (1, 0.3, 90, 0.1), (2, 0.3, 90, 0.1), (3, 0.3, 90, 0.1)]


class TestMarchAgainstRows:
    """The scanned march against the row-by-row march it replaced."""

    @pytest.mark.parametrize("alpha", SCAN_ALPHAS)
    @pytest.mark.parametrize("grid", MARCH_GRIDS)
    def test_agrees_to_rounding(self, alpha, grid):
        op = dyson._TwoPointOperator(alpha, 1.0, *grid)
        want = row_march(op)
        assert np.max(np.abs(op.march() - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("grid", MARCH_GRIDS)
    def test_pure_death_is_exact(self, grid):
        op = dyson._TwoPointOperator(1.0, 0.7, *grid)
        np.testing.assert_array_equal(op.march(), row_march(op))
        np.testing.assert_array_equal(op.march(), op.base)

    def test_benchmark_mass_curve_bytes_are_pinned(self):
        # sha256 of the float64 bytes of the benchmark's mass curve, re-pinned when A became
        # one cancellation-free expression: the curve moved by at most 2.1e-15 relative, A itself
        # by at most 1.4e-13 relative at its first nodes, where the old tanh form cancelled.
        values = mass_curve(0.1, 1.0, 40.0).values
        assert hashlib.sha256(values.astype("<f8").tobytes()).hexdigest() == (
            "b0fb1f46c5215948112afa64662086f3baaec75151bf402d1b8a455b7ec00ba1"
        )


def mass_closed_form(alpha, gamma, t):
    # M(t) = exp(gamma * int_0^t (beta*A - 1)), which the coth form of A integrates to
    # exp(-gamma*t/2) * sinh(c) / sinh(c + s*gamma*t/2), s = |1 - 2*alpha|, c = artanh(s);
    # at alpha = 1/2, exp(-gamma*t/2) * 2 / (2 + gamma*t).
    t = np.asarray(t, dtype=float)
    s = abs(1.0 - 2.0 * alpha)
    if s == 0.0:
        return np.exp(-0.5 * gamma * t) * 2.0 / (2.0 + gamma * t)
    c = math.atanh(s)
    return np.exp(-0.5 * gamma * t) * math.sinh(c) / np.sinh(c + 0.5 * s * gamma * t)


class TestClosedFormMass:
    """D(t, x) = M(t) p_t(x): each Fourier mode obeys the mass curve's equation at rate gamma + xi**2/2."""

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.75])
    def test_two_point_field_converges_at_second_order(self, alpha):
        errors = []
        for halvings in range(3):
            field = two_point_picard(alpha, 1.0, 2.0, 0.05 / 2**halvings, 10.0, 0.1 / 2**halvings)
            t, x = field.times[:, None], field.xs[None, :]
            want = mass_closed_form(alpha, 1.0, t) * np.exp(-(x**2) / (2.0 * t)) / np.sqrt(2.0 * math.pi * t)
            errors.append(np.max(np.abs(field.values - want)))
        assert 3.5 <= errors[0] / errors[1] <= 4.5
        assert 3.5 <= errors[1] / errors[2] <= 4.5
        assert errors[0] < 1e-5

    def test_critical_law_has_the_rational_form(self):
        t = np.linspace(0.0, 5.0, 11)
        np.testing.assert_allclose(mass_closed_form(0.5, 1.3, t), mass_closed_form(0.5 + 1e-9, 1.3, t), rtol=1e-7)

    @pytest.mark.parametrize("alpha", SCAN_ALPHAS)
    @pytest.mark.parametrize("gamma", SCAN_GAMMAS)
    def test_mass_curve_matches_it(self, alpha, gamma):
        curve = mass_curve(alpha, gamma, 10.0)
        assert np.max(np.abs(curve.values - mass_closed_form(alpha, gamma, curve.nodes))) < 1e-8
