"""Workload definitions: operations, their inputs and their correctness gates.

A workload is an endless sequence of *cycles*; a cycle is a fixed list of
operations.  Every operation is one public call into heatfield: either
``heatfield.cli.main([...])`` on a generated config file, or a public
estimator or solver.  Inputs come only from the workload seed and the
cycle index, so the same seed gives the same inputs.  Monte Carlo seeds
change from cycle to cycle (a result cache cannot pass as a speed-up);
the deterministic solvers see the same grid every cycle.

Each operation has a gate, checked outside the timed region, against an
analytic or self-consistency reference.  Monte Carlo gates are 5 sigma
wide so that a documented change of the draw sequence does not trip them
by chance.  Library names are looked up through their module at call
time, so the tracer sees the calls it wraps.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import heatfield.cli
import heatfield.dyson
import heatfield.kernels
import heatfield.montecarlo

cli = heatfield.cli
dyson = heatfield.dyson
kernels = heatfield.kernels
montecarlo = heatfield.montecarlo

WHY = {
    "extinction": (
        "About 2/3 of the replicas walk ~22k mass-only jump-chain events to the "
        "10k cap, so the montecarlo jump chain is >95% of the time: early stopping, "
        "CDF-compare sampling and a replica pool act here, the solvers are absent."
    ),
    "short_mc": (
        "Replicas cost tens to hundreds of microseconds, so stream derivation, "
        "Generator construction, tree-event bookkeeping and any pool dispatch cost "
        "dominate; early stopping does not apply (gf needs N_t exactly)."
    ),
    "ladder": (
        "Deterministic solvers only: the two-point operator build (scalar propagator "
        "calls), O(n^2) Picard sweeps and the long mass curve dominate, so marching, "
        "a vectorized build and FFT act here while montecarlo is absent."
    ),
}

BINARY_ALPHA = 0.25
EXTINCTION_HORIZON = 60.0
EXTINCTION_REPLICAS = 200
EXTINCTION_OPS_PER_CYCLE = 8
MCKEAN_T = 6.0
FK_GAMMA, FK_T = 0.4, 1.0
TWOPOINT_ALPHAS = (0.1, 0.25, 0.5, 0.75)
TWOPOINT_GRIDS = {"coarse": (0.05, 0.1), "fine": (0.025, 0.05)}  # (t.step, x.step)
# op_tail_s is the latency at this percentile.  Fixed per workload, so that
# it picks the same kind of operation however many cycles a run completes.
# short_mc's four kinds of operation cost about the same, so its upper
# percentiles mostly measure host jitter: between a calm and a contended
# ten-seed set on a shared 2-vCPU Xeon guest its p85 moved 16% and p75 6%.
# Well over ten operations lie beyond it in a 30 s Monte Carlo run, and
# 4 to 9 in a ladder run.
TAIL_PERCENTILE = {"extinction": 90.0, "short_mc": 75.0, "ladder": 85.0}
MASS_CURVE_ARGS = (0.1, 1.0, 40.0)
SEMIGROUP_MAX_ERROR = 1e-6
KS_MIN_PVALUE = 5.7e-7


class GateFailure(Exception):
    """An operation ran but its output missed its reference."""


@dataclass
class Op:
    """One timed call plus the untimed gate applied to its result."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    csv: str | None = None  # output path, for CLI operations


def _finite(value) -> bool:
    return isinstance(value, bool) or math.isfinite(float(value))


def _require(ok: bool, message: str):
    if not ok:
        raise GateFailure(message)


class Workload:
    """Builds the cycles of one workload inside a work directory."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.mass_rel_residual = 0.0  # known defect, reported and not gated
        os.makedirs(workdir, exist_ok=True)
        self._references()

    # -- references, computed once at set-up -----------------------------
    def _references(self):
        if self.name == "extinction":
            self.ext_ref = dyson.one_point_closed_form(BINARY_ALPHA, 1.0, EXTINCTION_HORIZON)
        elif self.name == "short_mc":
            law = dyson.FertilityDistribution.binary(BINARY_ALPHA)
            self.gt_lo = float(dyson.one_point_ode(law, 1.0, 0.4, MCKEAN_T).values[-1])
            self.gt_hi = float(dyson.one_point_ode(law, 1.0, 0.6, MCKEAN_T).values[-1])
            self.fk_u = kernels.SampledFunction.sample(
                lambda x: np.exp(-(x**2) / 0.5), -10.5, 0.01, 2101
            )
            self.fk_ref = math.exp(-FK_GAMMA * FK_T) * float(
                kernels.apply_semigroup(self.fk_u, FK_T)(0.0)
            )
            self.mckean_config = montecarlo.BranchingConfig(1.0, law)

    def cycle(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        return getattr(self, "_cycle_" + self.name)(rng)

    # -- CLI plumbing -----------------------------------------------------
    def _cli(self, kind: str, slot: str, params: dict, gate) -> Op:
        cfg = os.path.join(self.workdir, f"{slot}.cfg")
        csv = os.path.join(self.workdir, f"{slot}.csv")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in params.items())

        def check(code):
            _require(code == 0, f"exit code {code}")
            with open(csv + ".manifest.json", encoding="utf-8") as fh:
                estimates = json.load(fh)["estimates"]
            _require(all(_finite(v) for v in estimates.values()), f"non-finite output {estimates}")
            gate(estimates)

        return Op(f"cli.{kind}.{slot}", lambda: cli.main([kind, "--config", cfg, "--out", csv]), check, csv)

    # -- extinction ---------------------------------------------------------
    def _cycle_extinction(self, rng):
        def gate(est):
            dev = abs(est["final_mc_estimate"] - self.ext_ref)
            _require(dev <= 5.0 * est["final_mc_stderr"], f"extinction off by {dev:g}")

        return [
            self._cli(
                "extinction",
                f"extinction{i}",
                {
                    "alpha": BINARY_ALPHA,
                    "gamma": 1.0,
                    "horizon": EXTINCTION_HORIZON,
                    "replicas": EXTINCTION_REPLICAS,
                    "seed": int(seed),
                    "max.particles": 10_000,
                },
                gate,
            )
            for i, seed in enumerate(rng.integers(0, 2**31, EXTINCTION_OPS_PER_CYCLE))
        ]

    # -- short_mc -----------------------------------------------------------
    def _cycle_short_mc(self, rng):
        ops = []
        for i in range(3):
            seeds = [int(s) for s in rng.integers(0, 2**31, 4)]
            ops.append(
                self._cli(
                    "gf",
                    f"gf{i}",
                    {"alpha": BINARY_ALPHA, "gamma": 1.0, "theta": 0.5, "t.max": 1.0,
                     "replicas": 150, "seed": seeds[0]},
                    lambda est: _require(est["max_abs_deviation_in_stderr"] <= 5.0, f"gf {est}"),
                )
            )
            ops.append(
                self._cli(
                    "clock",
                    f"clock{i}",
                    {"gamma": 2.0, "dtau.max": 3.0, "replicas": 2000, "seed": seeds[1]},
                    _clock_gate,
                )
            )
            ops.append(self._mckean(i, seeds[2], rng))
            ops.append(self._feynman_kac(i, seeds[3]))
        return ops

    def _mckean(self, i, seed, rng):
        # phi takes values in [0.4, 0.6], so E[prod phi] lies between the
        # generating functions G_t(0.4) and G_t(0.6).
        xs = np.arange(-40.0, 40.0 + 1e-9, 0.1)
        freq, phase = rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        phi = kernels.SampledFunction(-40.0, 0.1, 0.5 + 0.1 * np.sin(freq * xs + phase))

        def check(result):
            est, err = result
            _require(_finite(est) and _finite(err), f"non-finite {result}")
            lo, hi = self.gt_lo - 5.0 * err, self.gt_hi + 5.0 * err
            _require(lo <= est <= hi, f"mckean {est:g} outside [{lo:g}, {hi:g}]")

        return Op(
            f"montecarlo.estimate_mckean_product.{i}",
            lambda: montecarlo.estimate_mckean_product(self.mckean_config, phi, MCKEAN_T, 150, seed),
            check,
        )

    def _feynman_kac(self, i, seed):
        def potential(xs):
            return np.full(xs.shape, FK_GAMMA)

        def check(result):
            est, err = result
            _require(_finite(est) and _finite(err), f"non-finite {result}")
            _require(abs(est - self.fk_ref) <= 5.0 * err, f"fk {est:g} vs {self.fk_ref:g}")

        return Op(
            f"montecarlo.feynman_kac_estimate.{i}",
            lambda: montecarlo.feynman_kac_estimate(self.fk_u, potential, FK_T, 0.0, 1000, 200, seed),
            check,
        )

    # -- ladder -------------------------------------------------------------
    def _cycle_ladder(self, rng):
        def twopoint_gate(est):
            _require(est["residual"] < 1e-6, f"twopoint residual {est['residual']:g}")
            _require(est["max_mass_mismatch"] < 2e-4, f"twopoint mass {est['max_mass_mismatch']:g}")

        def onepoint_gate(est):
            _require(est["sup_ode_vs_closed"] <= 1e-8, f"onepoint ode {est}")
            _require(est["sup_picard_vs_closed"] <= 1e-3, f"onepoint picard {est}")

        def onepoint(alpha):
            params = {"alpha": alpha, "gamma": 1.0, "tau.max": 5.0, "picard.order": 20}
            return self._cli("onepoint", f"onepoint_{alpha}", params, onepoint_gate)

        def twopoint(alpha, grid):
            t_step, x_step = TWOPOINT_GRIDS[grid]
            params = {"alpha": alpha, "gamma": 1.0, "t.max": 2.0, "t.step": t_step,
                      "x.halfwidth": 10.0, "x.step": x_step}
            return self._cli("twopoint", f"twopoint_{grid}_{alpha}", params, twopoint_gate)

        ring = self._cli(
            "ring-check",
            "ring-check",
            {"cases": 10_000, "seed": int(rng.integers(0, 2**31))},
            lambda est: _require(est["all_passed"] is True, f"ring-check {est}"),
        )
        mass = Op("dyson.mass_curve", lambda: dyson.mass_curve(*MASS_CURVE_ARGS), self._check_mass_curve)
        # Cheap calls between the grid solves: 6 of 16 operations cost
        # 0.1-0.2 s, 4 coarse solves 0.3-0.5 s, ring-check ~0.7 s, 4 fine
        # solves 1.5-2.5 s and the mass curve ~3 s, so the median falls in
        # the middle of the coarse block and TAIL_PERCENTILE inside the fine one.
        a, b, c, d = TWOPOINT_ALPHAS
        return [
            onepoint(0.25), twopoint(a, "coarse"), twopoint(a, "fine"), self._semigroup(0, rng),
            twopoint(b, "coarse"), twopoint(b, "fine"), onepoint(0.5), ring, self._semigroup(1, rng),
            onepoint(0.75), twopoint(c, "coarse"), twopoint(c, "fine"), self._semigroup(2, rng),
            twopoint(d, "coarse"), twopoint(d, "fine"), mass,
        ]

    def _semigroup(self, i, rng):
        # A Gaussian initial condition evolves into a Gaussian of variance
        # sigma**2 + t, which is the analytic reference for the CSV.
        center, sigma, t = rng.uniform(-1.0, 1.0), rng.uniform(0.3, 0.7), 1.0
        params = {"t": t, "grid.origin": -48.0, "grid.step": 0.01, "grid.count": 9601,
                  "u.kind": "gaussian", "u.center": center, "u.sigma": sigma}
        op = self._cli("semigroup", f"semigroup{i}", params, lambda est: None)
        cli_check = op.check

        def check(code):
            cli_check(code)
            x, _, evolved = np.loadtxt(op.csv, delimiter=",", skiprows=1, unpack=True)
            var = sigma**2 + t
            exact = np.exp(-((x - center) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
            err = float(np.max(np.abs(evolved - exact)))
            _require(err < SEMIGROUP_MAX_ERROR, f"semigroup off by {err:g}")

        op.check = check
        return op

    def _check_mass_curve(self, curve):
        values = np.asarray(curve.values)
        _require(values.size > 1 and bool(np.all(np.isfinite(values))), "mass curve not finite")
        alpha, gamma, _ = MASS_CURVE_ARGS
        self.mass_rel_residual = mass_curve_rel_residual(curve, alpha, gamma)


def _clock_gate(est):
    # KS p-values are uniform on correct code; 5.7e-7 is the two-sided 5 sigma
    # tail, the false-alarm rate of every other Monte Carlo gate here.
    _require(est["ks_pvalue"] > KS_MIN_PVALUE, f"clock KS p = {est['ks_pvalue']:g}")
    dev = abs(est["lifetime_mean"] - est["lifetime_mean_expected"])
    _require(dev <= 5.0 * est["lifetime_mean_stderr"], f"clock mean off by {dev:g}")


def mass_curve_rel_residual(curve, alpha: float, gamma: float) -> float:
    """Largest relative defect of M = exp(-gamma t) + (trapezoid ladder term).

    The discrete equation is evaluated directly at every integer time
    with the closed-form one-point function; the worst node is the last.
    """
    m = np.asarray(curve.values, dtype=float)
    h = float(curve.step)
    t = h * np.arange(m.size)
    f = gamma * (1.0 - alpha) * np.exp(-gamma * t)
    q = dyson.one_point_closed_form(alpha, gamma, t) * m
    worst = 0.0
    for i in range(int(round(1.0 / h)), m.size, int(round(1.0 / h))):
        conv = h * (np.dot(f[: i + 1], q[i::-1]) - 0.5 * (f[0] * q[i] + f[i] * q[0]))
        worst = max(worst, abs(m[i] - math.exp(-gamma * t[i]) - conv) / abs(m[i]))
    return worst
