import hashlib
import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

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


def _fixed(x):
    # A double as an exact integer multiple of 2**-1074 (every double is one).
    p, q = float(x).as_integer_ratio()
    return p * (2**1074 // q)


def exact_semigroup(u, t):
    """Each node's exact sum of the double products a_j * K_(i-j) that apply_semigroup forms,
    rounded once to a double, and the rounded exact sum of their magnitudes."""
    h, n = u.step, u.values.size
    weights = np.full(n, h)
    weights[0] = weights[-1] = 0.5 * h
    a = [_fixed(v) for v in (u.values * weights).tolist()]
    kern = [_fixed(v) for v in ((2.0 * math.pi * t) ** -0.5 * np.exp(-((h * np.arange(n)) ** 2) / (2.0 * t))).tolist()]
    reach = max(k for k in range(n) if kern[k]) if any(kern) else -1
    sums, mags = [], []
    for i in range(n):
        terms = [a[j] * kern[abs(i - j)] for j in range(max(i - reach, 0), min(i + reach + 1, n)) if a[j]]
        sums.append(float(Fraction(sum(terms), 2**2148)))
        mags.append(float(Fraction(sum(map(abs, terms)), 2**2148)))
    return np.array(sums), np.array(mags)


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

    def test_overflowing_normalisation_names_the_duration(self):
        # (2*pi*t)**-1.5 used to raise a bare OverflowError in d = 3.
        with pytest.raises(ValueError, match="duration 1e-310 is too short"):
            heat_kernel(1e-310, [0.0] * 3, [0.0] * 3)
        with pytest.raises(ValueError, match="duration 1e-310 is too short"):
            heat_kernel(1e-310, [0.0] * 2, np.zeros((4, 2)))
        with pytest.raises(ValueError, match="duration 1e-310 is too short"):
            heat_kernel(np.float64(1e-310), [0.0] * 3, [1.0] * 3)  # numpy's power would return inf
        with pytest.raises(ValueError, match="too short"):
            retarded_propagator_heat((0.0, [0.0] * 3), (1e-300, [0.0] * 3), 1.0)
        assert heat_kernel(1e-206, [0.0] * 3, [1.0] * 3) == 0.0  # the normalisation is finite
        assert heat_kernel(1e-310, 0.0, 0.0) == (2.0 * math.pi * 1e-310) ** -0.5

    def test_infinite_duration_gives_zero(self):
        # The density of an endless walk is 0; the gamma-0 clock factor exp(-0.0 * inf) was NaN.
        for d in (1, 2, 3):
            assert heat_kernel(math.inf, [0.0] * d, [1.0] * d) == 0.0
            assert heat_kernel(math.inf, [0.0] * d, np.zeros((3, d))).tolist() == [0.0] * 3
            for gamma in (0.0, 0.5):
                assert retarded_propagator_heat((0.0, [0.0] * d), (math.inf, [1.0] * d), gamma) == 0.0
        assert heat_kernel(math.inf, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(ValueError, match="^point coordinates must be finite$"):
            heat_kernel(1.0, [0.0, bad], [0.0, 0.0])
        with pytest.raises(ValueError, match="^point coordinates must be finite$"):
            heat_kernel(1.0, 0.0, bad)


class TestArrayTargets:
    """An (m, d) y is m target points: m values, each bit for bit the one-point call."""

    @staticmethod
    def targets(rng, d):
        rows = rng.normal(scale=2.0, size=(40, d))
        rows[0] = 0.0  # r = 0 against a source at the origin
        return rows

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_heat_kernel_rows_equal_scalar_calls(self, d):
        rng = np.random.default_rng(10 + d)
        rows = self.targets(rng, d)
        for x in (np.zeros(d), rng.normal(size=d)):
            for t in (1e-3, 0.37, 2.0, 40.0):
                got = heat_kernel(t, x, rows)
                assert got.shape == (len(rows),)
                assert got.tobytes() == np.array([heat_kernel(t, x, y) for y in rows]).tobytes()
        assert heat_kernel(0.5, np.zeros(d), np.zeros((1, d)))[0] == heat_kernel(0.5, np.zeros(d), np.zeros(d))
        if d == 1:  # past the origin -r2/(2t) overflows to -inf: quietly, as in the one-point calls
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = heat_kernel(1e-320, 0.0, np.array([[0.0], [1.0]]))
                assert got.tobytes() == np.array([heat_kernel(1e-320, 0.0, y) for y in (0.0, 1.0)]).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_propagator_rows_equal_scalar_calls(self, d):
        rng = np.random.default_rng(20 + d)
        rows = self.targets(rng, d)
        x = rng.normal(size=d)
        for gamma in (0.0, 0.3, 2.5):
            for tx, ty in ((0.0, 0.05), (1.25, 3.0), (0.0, 0.0), (2.0, 1.0)):
                got = retarded_propagator_heat((tx, x), (ty, rows), gamma)
                want = [retarded_propagator_heat((tx, x), (ty, y), gamma) for y in rows]
                assert got.shape == (len(rows),)
                assert got.tobytes() == np.array(want).tobytes()

    def test_backward_times_give_m_zeros(self):
        for ty in (1.0, 0.5):
            got = retarded_propagator_heat((1.0, [0.0, 0.0]), (ty, np.ones((7, 2))), 1.0)
            assert got.shape == (7,) and not np.any(got)

    def test_one_dimensional_y_is_one_point(self):
        # [0, 1, 2] is a point of dimension 3, not three points in d = 1.
        assert heat_kernel(1.0, [0.0, 0.0, 0.0], [0.0, 1.0, 2.0]) == heat_kernel(1.0, [0.0] * 3, [[0.0, 1.0, 2.0]])[0]
        with pytest.raises(DimensionMismatchError):
            heat_kernel(1.0, 0.0, [0.0, 1.0, 2.0])

    def test_errors(self):
        with pytest.raises(DimensionMismatchError, match="dimension 1..3"):
            heat_kernel(1.0, [0.0] * 4, np.zeros((3, 4)))
        with pytest.raises(DimensionMismatchError, match="dimension 1..3"):
            heat_kernel(1.0, [0.0] * 4, [0.0] * 4)  # a 1-d y of size 4
        with pytest.raises(DimensionMismatchError, match="dimension mismatch: 2 vs 3"):
            heat_kernel(1.0, [0.0, 0.0], np.zeros((5, 3)))
        with pytest.raises(DimensionMismatchError, match="got shape \\(2, 3, 1\\)"):
            heat_kernel(1.0, 0.0, np.zeros((2, 3, 1)))
        with pytest.raises(DimensionMismatchError):  # the source stays one point
            heat_kernel(1.0, np.zeros((2, 1)), np.zeros((2, 1)))
        rows = np.zeros((4, 2))
        rows[2, 1] = math.nan
        with pytest.raises(ValueError, match="^point coordinates must be finite$"):
            heat_kernel(1.0, [0.0, 0.0], rows)
        with pytest.raises(ValueError, match="^point coordinates must be finite$"):
            retarded_propagator_heat((0.0, [0.0, 0.0]), (1.0, rows), 1.0)
        with pytest.raises(NonPositiveTimeError):
            heat_kernel(0.0, 0.0, np.zeros((3, 1)))


class TestSampledFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampledFunction(0.0, 0.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            SampledFunction(0.0, 0.1, [1.0])
        with pytest.raises(ValueError):
            SampledFunction(0.0, 0.1, [1.0, math.nan])

    @pytest.mark.parametrize("origin, step", [(0.0, math.inf), (math.nan, 0.1), (-math.inf, 0.1), (0.0, math.nan)])
    def test_non_finite_grid_rejected(self, origin, step):
        # Each used to build NaN nodes and evaluate to NaN.
        with pytest.raises(ValueError, match="origin" if step == 0.1 else "step"):
            SampledFunction(origin, step, [1.0, 2.0])

    @pytest.mark.parametrize("count", [10.9, True, 1])
    def test_sample_needs_an_integer_count_of_two_or_more(self, count):
        # 10.9 used to sample 10 nodes, and True and 1 failed later on the values.
        with pytest.raises(ValueError, match=f"^count must be an integer >= 2, got {count!r}$"):
            SampledFunction.sample(pytest.fail, 0.0, 0.1, count)

    def test_sample_takes_a_numpy_integer_count(self):
        u = SampledFunction.sample(lambda x: 2.0 * x, 1.0, 0.5, np.int64(5))
        np.testing.assert_array_equal(u.values, [2.0, 3.0, 4.0, 5.0, 6.0])

    @pytest.mark.parametrize("origin, step", [(math.nan, 0.1), (0.0, math.nan), (math.inf, 0.1), (0.0, -math.inf)])
    def test_bad_grid_is_blamed_before_its_nan_values(self, origin, step):
        # A NaN node makes a NaN value: the grid's message, not "sampled values must be finite".
        match = "^grid origin must be finite" if step == 0.1 else "^grid step must be finite and > 0"
        with pytest.raises(ValueError, match=match):
            SampledFunction(origin, step, [math.nan, math.nan])
        with pytest.raises(ValueError, match=match):
            SampledFunction.sample(pytest.fail, origin, step, 3)

    @pytest.mark.parametrize("origin, step, count", [(1e308, 1e308, 3), (-1e308, 1e308, 3), (1.0, 1e308, 2**20)])
    def test_grid_whose_last_node_overflows_is_rejected(self, origin, step, count):
        # (1e308, 1e308) used to give the nodes [1e308, inf, inf] with only numpy RuntimeWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^grid last node origin \+ step\*\(n - 1\) = .* must be finite$"):
                SampledFunction(origin, step, np.zeros(count))
            with pytest.raises(ValueError, match="^grid last node"):
                SampledFunction.sample(pytest.fail, origin, step, count)

    def test_grid_reaching_the_largest_double_is_kept(self):
        u = SampledFunction(0.0, sys.float_info.max / 2, [1.0, 2.0, 3.0])
        assert u.nodes[-1] == sys.float_info.max

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

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_non_positive_duration_rejected(self, t):
        u = SampledFunction.sample(lambda x: gaussian_pdf(x, 0.1), -7.0, 0.01, 1401)
        with pytest.raises(NonPositiveTimeError, match="^duration must be > 0"):
            apply_semigroup(u, t)

    def test_zero_function_passes_through(self):
        u = SampledFunction(0.0, 0.1, np.zeros(32))
        out = apply_semigroup(u, 5.0)
        assert np.all(out.values == 0.0)

    @staticmethod
    def _grid(f, count=301, origin=-37.5, step=0.25):
        return SampledFunction.sample(f, origin, step, count)

    def _edge_touching(self):
        # Nonzero at both edges, below the support threshold there, so the grid check passes.
        values = gaussian_pdf(-37.8 + 0.25 * np.arange(301), 0.25)
        values[0], values[-1] = 1e-300, 3e-310
        return SampledFunction(-37.5, 0.25, values)

    # Grids on which u * w, the kernel or both have exact zeros and subnormal tails, and the
    # edge cases of the trimmed sum; the last case's u * w spans three pieces, each convolved
    # with a kernel of 77 nodes.
    ORACLE_CASES = {
        "gaussian": lambda self: (self._grid(lambda x: gaussian_pdf(x - 0.3, 0.25)), 1.0),
        "narrow kernel": lambda self: (self._grid(lambda x: gaussian_pdf(x, 0.2), 401, -20.0, 0.1), 0.05),
        "one-node kernel": lambda self: (self._grid(lambda x: gaussian_pdf(x, 0.25)), 1e-5),
        "kernel without zeros": lambda self: (self._grid(lambda x: gaussian_pdf(x, 0.25), 101, -12.5), 1.0),
        "near 1e300": lambda self: (self._grid(lambda x: np.exp(690.0 - x**2 / 0.25)), 1.0),
        "near 1e300, one-node kernel": lambda self: (self._grid(lambda x: np.exp(690.0 - x**2 / 0.25)), 1e-13),
        "all subnormal": lambda self: (self._grid(lambda x: 2.0**-1040 * np.exp(-(x**2) / 0.5)), 1.0),
        "two nodes": lambda self: (SampledFunction(1.0, 0.5, [3.0, 5e-320]), 1e-300),
        "support at both edges": lambda self: (self._edge_touching(), 1.0),
        "three pieces": lambda self: (self._grid(lambda x: gaussian_pdf(x, 0.36), 5001, -25.0, 0.01), 1e-4),
    }

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_within_two_ulps_of_the_exact_sum(self, case):
        # Two ulps per cell is also within 4.5e-16 relative wherever the exact sum is normal.
        u, t = self.ORACLE_CASES[case](self)
        out = apply_semigroup(u, t).values
        exact, _ = exact_semigroup(u, t)
        assert np.all(np.isfinite(out)) and np.all(out >= 0.0)
        assert np.all(np.abs(out - exact) <= 2.0 * np.spacing(exact))
        assert np.count_nonzero(exact == 0.0) < out.size  # not vacuous

    def test_indicator_within_1e_15_relative_of_the_exact_sum(self):
        # Near the jumps a cell sums some 20 comparable terms, which the blocked BLAS order can
        # round 3 ulps (4e-16 relative) off; 2 ulps holds where a few terms dominate.
        u = self._grid(lambda x: ((x >= -2.0) & (x <= 3.5)).astype(float))
        out = apply_semigroup(u, 2.0).values
        exact, _ = exact_semigroup(u, 2.0)
        assert np.all(np.abs(out - exact) <= np.maximum(1e-15 * exact, 2.0 * np.spacing(exact)))

    def test_signed_u_within_two_ulps_of_the_summed_magnitudes(self):
        u = self._grid(lambda x: np.sin(3.0 * x) * gaussian_pdf(x, 0.5))
        out = apply_semigroup(u, 1.0).values
        exact, magnitudes = exact_semigroup(u, 1.0)
        assert np.all(np.abs(out - exact) <= 2.0 * np.spacing(magnitudes))

    def test_u_times_weights_underflowing_to_zeros_gives_zeros(self):
        values = np.zeros(301)
        values[[100, 150, 151]] = 5e-324  # times the weight 0.25 rounds to 0
        out = apply_semigroup(SampledFunction(-37.5, 0.25, values), 1.0)
        assert np.all(out.values == 0.0)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # Here u * w spans some 15,000 nodes, past OpenBLAS's 10,000-term threading cutoff for
        # one dot; each thread count runs in a fresh process.
        script = (
            "import hashlib, math\n"
            "import numpy as np\n"
            "from heatfield import kernels\n"
            "u = kernels.SampledFunction.sample(lambda x: np.exp(-2.0 * x**2) / math.sqrt(0.5 * math.pi),"
            " -50.0, 0.0025, 40001)\n"
            "print(hashlib.sha256(kernels.apply_semigroup(u, 1.0).values.tobytes()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1] and len(digests[0]) == len(hashlib.sha256().hexdigest())


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

    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 10.0])
    def test_grid_of_duration_ratios(self, t):
        # One duration short beside the other used to return p_{t+s}(x, y) itself, up to 0.24, as
        # the residual: the quadrature sampled past the narrow factor's spike.
        for s, x, y in itertools.product((1e-3, 0.5, 3.0), (-1.0, 0.0), (0.0, 2.5)):
            assert ck_residual(t, s, x, y) <= 1e-13 * max(1.0, heat_kernel(t + s, x, y))

    @pytest.mark.parametrize(
        "t, s", [(1e-9, 1.0), (1.0, 1e-9), (1e-9, 1e-9), (1e-9, 1e6), (1e6, 1e-3), (2.3e-9, 1.1e-8)]
    )
    def test_wide_duration_ratios(self, t, s):
        for x, y in ((0.0, 0.0), (-4.2, -4.2 + 3.0 * math.sqrt(t + s)), (1.0, 1.0 + 0.5 * math.sqrt(t + s))):
            composed = heat_kernel(t + s, x, y)
            assert composed > 0.0 and ck_residual(t, s, x, y) <= 1e-8 * composed


class TestRetardedPropagator:
    def test_vanishes_backward_and_at_equal_times(self):
        assert retarded_propagator_heat((1.0, 0.0), (1.0, 0.5), 1.0) == 0.0
        assert retarded_propagator_heat((2.0, 0.0), (1.0, 0.5), 1.0) == 0.0

    @pytest.mark.parametrize("ty", [2.0, 1.0, 0.5])  # forward, equal and backward times
    def test_space_points_are_checked_in_either_time_order(self, ty):
        with pytest.raises(DimensionMismatchError, match="dimension 1..3"):
            retarded_propagator_heat((1.0, [math.nan] * 5), (ty, [math.nan] * 4), 1.0)
        with pytest.raises(DimensionMismatchError, match="dimension 1..3"):
            retarded_propagator_heat((1.0, [0.0] * 4), (ty, np.zeros((3, 4))), 1.0)
        with pytest.raises(DimensionMismatchError, match="dimension mismatch: 2 vs 3"):
            retarded_propagator_heat((1.0, [0.0, 0.0]), (ty, np.zeros((3, 3))), 1.0)
        with pytest.raises(ValueError, match="^point coordinates must be finite$"):
            retarded_propagator_heat((1.0, 0.0), (ty, math.inf), 1.0)
        with pytest.raises(ValueError, match="^point coordinates must be finite$"):
            retarded_propagator_heat((1.0, [0.0, 0.0]), (ty, [[0.0, 0.0], [math.nan, 0.0]]), 1.0)

    def test_nan_time_rejected(self):
        for y in (0.5, np.zeros((3, 1))):
            with pytest.raises(NonPositiveTimeError):
                retarded_propagator_heat((0.0, 0.0), (math.nan, y), 1.0)

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

    @pytest.mark.parametrize("gamma, dtau", [(1e300, np.float64(1e300)), (np.float64(1e300), 1e300),
                                             (1e300, np.float64(math.inf)), (np.float64(2.0), np.float64(0.5))])
    def test_computes_with_the_checked_floats(self, gamma, dtau):
        # numpy scalars used to be multiplied as given, printing "overflow encountered in scalar multiply".
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = event_probability(gamma, dtau)
        assert type(value) is float
        assert value == -math.expm1(-float(gamma) * float(dtau))


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

    def test_overflow_names_energy_times_t(self):
        # exp(|energy*t|) overflows past log(float max): a ValueError naming energy*t, not libm's OverflowError.
        edge = math.log(sys.float_info.max)
        assert math.isfinite(pring.magnitude(time_evolution(1.0, -edge)))
        for energy, t in ((1.0, -1000.0), (1.0, 1000.0), (1e308, 10.0), (1.0, math.nan), (0.0, math.inf)):
            with pytest.raises(ValueError, match=r"^energy\*t must be finite"):
                time_evolution(energy, t)
        with pytest.raises(ValueError, match="^energy must be finite"):
            time_evolution(math.nan, 1.0)


def test_grid_densities_take_libm_exp_per_cell():
    # Whole rows of the clocked density (the two-point operator's build)
    # equal the scalar formula with math.exp bit for bit; numpy's vector
    # exp differs from libm in the last bits on some hosts.
    r2 = np.linspace(0.0, 400.0, 2001) ** 1.5
    for t, gamma in ((0.025, 1.0), (0.7, 0.3), (2.0, 2.5)):
        row = kernels._clocked_density(t, r2, gamma, 1)
        want = [math.exp(-gamma * t) * ((2.0 * math.pi * t) ** -0.5 * math.exp(-v / (2.0 * t))) for v in r2.tolist()]
        assert row.tobytes() == np.array(want).tobytes()
        assert [kernels._clocked_density(t, v, gamma, 1) for v in r2[:50].tolist()] == want[:50]
