"""End-to-end acceptance runs, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and then asserts, so the suite doubles as a human-readable report:

    pytest -v -s tests/test_acceptance.py
"""

import math
import time

import numpy as np
from scipy import stats

import heatfield as hf
from heatfield import dyson, kernels, montecarlo, pring

BINARY = hf.FertilityDistribution.binary


def report(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_extinction_reproduction():
    # Survivors stop at L = min(cap, n*) = 64 particles, n* the smallest n
    # with qbar**n <= 2**-100 (qbar >= q = 1/3): a tree of 65 dies out
    # with probability at most qbar**65 = 9.7e-32, so the classification
    # bias is far below the statistical resolution.  The 1e4 cap is
    # never reached.
    config = hf.BranchingConfig(1.0, BINARY(0.25), max_particles=10_000)
    started = time.perf_counter()
    p_hat, stderr = hf.estimate_extinction(config, horizon=60.0, replicas=20_000, seed=7)
    elapsed = time.perf_counter() - started
    deviation = abs(p_hat - 1.0 / 3.0)
    ok = deviation < 3.0 * stderr and deviation < 0.010 and elapsed < 60.0
    report(
        1,
        "extinction reproduction",
        ok,
        f"p_hat={p_hat:.5f} vs 1/3, |dev|={deviation:.5f} < min(3*se={3 * stderr:.5f}, 0.010), "
        f"runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_2_closed_form_vs_ode():
    worst = 0.0
    for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
        curve = hf.one_point_ode(BINARY(alpha), 1.0, 0.0, 10.0, step=1e-3)
        closed = hf.one_point_closed_form(alpha, 1.0, curve.nodes)
        worst = max(worst, float(np.max(np.abs(curve.values - closed))))
    spot = abs(hf.one_point_closed_form(0.5, 1.0, 2.0) - 0.5)
    ok = worst < 1e-8 and spot <= 1e-12
    report(
        2,
        "closed form vs ODE",
        ok,
        f"sup|ode-closed|={worst:.2e} < 1e-8 over five alphas; |A(2)-0.5|={spot:.1e} <= 1e-12",
    )


def test_criterion_3_diagram_summation():
    first = hf.one_point_picard(0.5, 1.0, 5.0, order=1)
    bare = 0.5 * -np.expm1(-first.nodes)
    first_err = float(np.max(np.abs(first.values - bare)))
    monotone = True
    prev = np.zeros_like(first.values)
    for order in range(1, 7):
        curve = hf.one_point_picard(0.5, 1.0, 5.0, order)
        monotone &= bool(np.all(curve.values >= prev - 1e-15))
        prev = curve.values
    deep = hf.one_point_picard(0.5, 1.0, 5.0, order=30)
    closed = hf.one_point_closed_form(0.5, 1.0, deep.nodes)
    deep_err = float(np.max(np.abs(deep.values - closed)))
    ok = first_err < 1e-6 and monotone and deep_err < 1e-3
    report(
        3,
        "diagram summation",
        ok,
        f"order-1 err={first_err:.2e} < 1e-6; orders 1..6 monotone={monotone}; "
        f"order-30 sup err={deep_err:.2e} < 1e-3",
    )


def test_criterion_4_generating_function_duality():
    config = hf.BranchingConfig(1.0, BINARY(0.25))
    est, stderr = hf.estimate_generating_function(config, theta=0.5, t=1.0, replicas=20_000, seed=5)
    curve = hf.one_point_ode(BINARY(0.25), 1.0, 0.5, 1.0)
    want = float(curve.values[-1])
    ok = abs(est - want) < 3.0 * stderr
    report(
        4,
        "generating-function duality",
        ok,
        f"mc={est:.5f} vs ode={want:.5f}, |dev|={abs(est - want):.5f} < 3*se={3 * stderr:.5f}",
    )


def test_criterion_5_markov_semigroup_identities():
    rng = np.random.default_rng(7)
    worst_ck = 0.0
    for _ in range(10):
        t, s = rng.uniform(0.1, 2.0, size=2)
        x = rng.uniform(-1.0, 1.0)
        y = x + rng.uniform(-3.0, 3.0)
        worst_ck = max(worst_ck, hf.ck_residual(t, s, x, y))
    u = hf.SampledFunction.sample(
        lambda x: np.exp(-(x**2) / 0.04) / math.sqrt(0.04 * math.pi), -12.0, 0.01, 2401
    )
    twice = hf.apply_semigroup(hf.apply_semigroup(u, 0.5), 0.5)
    once = hf.apply_semigroup(u, 1.0)
    inner = np.abs(once.nodes) <= 3.0
    sup = float(np.max(np.abs(twice.values - once.values)[inner]))
    ok = worst_ck < 1e-6 and sup < 1e-6
    report(
        5,
        "Markov/semigroup identities",
        ok,
        f"max CK residual={worst_ck:.2e} < 1e-6 over 10 samples; "
        f"sup|P_.5 P_.5 - P_1|={sup:.2e} < 1e-6",
    )


def test_criterion_6_clock_law():
    gamma = 2.0
    config = hf.BranchingConfig(gamma, hf.FertilityDistribution((1.0,)))
    times = []
    for r in range(10_000):
        log = hf.simulate_branching(config, 10.0, (), seed=17, replica=r)
        if log.events:
            times.append(log.events[0].time)
    times = np.asarray(times)
    mean_dev = abs(float(times.mean()) - 0.5)
    pvalue = stats.kstest(times, "expon", args=(0.0, 1.0 / gamma)).pvalue
    exact_half = hf.event_probability(1.0, math.log(2.0)) == 0.5
    ok = mean_dev < 0.015 and pvalue > 0.01 and exact_half
    report(
        6,
        "clock law",
        ok,
        f"|mean-0.5|={mean_dev:.4f} < 0.015; KS p={pvalue:.3f} > 0.01; "
        f"event_probability(1, ln 2) == 0.5: {exact_half}",
    )


def test_criterion_7_ring_algebra():
    errs = pring.self_check(cases=10_000, seed=2)
    worst = max(errs.values())
    ok = worst < 1e-12
    report(
        7,
        "ring algebra",
        ok,
        f"max defect over {len(errs)} property suites x 1e4 cases = {worst:.2e} < 1e-12",
    )


def test_criterion_8_feynman_kac():
    gamma, t = 0.4, 1.0
    u = hf.SampledFunction.sample(lambda x: np.exp(-(x**2) / 0.5), -10.5, 0.01, 2101)
    evolved = hf.apply_semigroup(u, t)
    want = math.exp(-gamma * t) * float(evolved(0.0))
    est, stderr = hf.feynman_kac_estimate(
        u, lambda xs: np.full(xs.shape, gamma), t, 0.0, replicas=10_000, n_steps=200, seed=23
    )
    ok = abs(est - want) < 3.0 * stderr
    report(
        8,
        "Feynman-Kac",
        ok,
        f"mc={est:.5f} vs exp(-gamma t)*(P_t u)(0)={want:.5f}, "
        f"|dev|={abs(est - want):.5f} < 3*se={3 * stderr:.5f}",
    )


def test_criterion_9_two_point_self_consistency():
    field = hf.two_point_picard(
        0.5, 1.0, t_max=2.0, t_step=0.05, x_half_width=10.0, x_step=0.1
    )
    residual = hf.two_point_residual(field, 0.5, 1.0)
    mass = hf.mass_curve(0.5, 1.0, 2.0, step=1e-3)
    mass_gap = float(np.max(np.abs(field.spatial_mass() - mass(field.times))))
    bare = hf.two_point_picard(
        1.0, 1.0, t_max=2.0, t_step=0.05, x_half_width=10.0, x_step=0.1
    )
    sampled = np.array(
        [
            [kernels.retarded_propagator_heat((0.0, 0.0), (t, x), 1.0) for x in bare.xs]
            for t in bare.times
        ]
    )
    degenerate_exact = bool(np.array_equal(bare.values, sampled))
    ok = residual < 1e-6 and mass_gap < 2e-4 and degenerate_exact
    report(
        9,
        "two-point self-consistency",
        ok,
        f"fixed-point residual={residual:.2e} < 1e-6; max slice-mass gap={mass_gap:.2e} < 2e-4; "
        f"beta=0 equals retarded propagator exactly: {degenerate_exact}",
    )
