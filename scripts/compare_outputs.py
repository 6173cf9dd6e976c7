"""Check that two source trees give the same CLI and library outputs.

    python3 scripts/compare_outputs.py --parent PATH [--change PATH]

Runs the same configs through ``heatfield.cli`` of each tree (``PATH/src``
on ``PYTHONPATH``, one subprocess per run) and requires, for every run,
the same CSV sha256 and the same value for every manifest ``estimates``
key the parent writes (the change may add keys).  The configs are the
benchmark's extinction runs (alpha 0.25, horizon 60, 200 replicas,
cap 10k, eight seeds) plus other laws and caps, ``gf`` runs, both kinds
again at 257 and 600 replicas (more than one 256-replica chunk of the
mass-only walker), the benchmark's ``clock`` runs (gamma 2, dtau.max 3,
2000 replicas, seeds 0, 5, 2**31 - 1 and 40,000) and ``clock`` at 2
replicas, at gamma 1e-3 and 1e3 and at seed 2**40, ``kernel`` runs in
d = 1, 2 and 3 and at gamma 0, at r.min > 0 and on a one-cell grid, the
benchmark's ``onepoint`` runs (alpha 0.25, 0.5 and 0.75, tau.max 5) and
``twopoint`` runs (four alphas on its coarse and
fine grids), ``gf`` at gamma 1.2345, whose t.max is not a whole
number of solver steps, the benchmark's ``semigroup`` shape (a Gaussian
on 9601 nodes from -48 at step 0.01, t 1) at two centres and sigmas and
an ``indicator`` run on the same grid, whose CSVs hold zeros,
subnormals and doubles of every size that the CSV writer formats with
numpy or with ``%``, ``ring-check`` at 10k cases with seeds 0 and
2**31 - 1, and ``onepoint`` and ``twopoint`` runs whose grids' spans
are not whole numbers of steps (one of them exits 2).

It then runs library calls that no CLI subcommand makes, in one
subprocess per tree (this script with ``--library``), and requires
identical results: ``estimate_mckean_product`` as the benchmark calls it
(binary 0.25, t 6, 150 replicas, phi = 0.5 + 0.1 sin(freq x + phase)),
its exact float pair, the exact float pair of ``feynman_kac_estimate``
as the benchmark calls it (u a Gaussian on 2101 nodes, constant potential
0.4, t 1, x 0, 1000 replicas of 200 steps) and at 257 replicas of 7000
steps and 2 replicas of 3 steps (potential x**2 / 2), which span many
lockstep passes, one row per pass and the smallest run, a sha256 of
40 ``simulate_branching`` trees (events, survivors, counts at six
times, extinction time) for three offspring laws in d = 1, 2 and 3,
the exact floats of
``estimate_extinction`` and ``estimate_generating_function`` (cap 10k,
one time or several) at 257 to 600 replicas, a sha256 of the exact
float64 bytes of the benchmark's ``mass_curve(0.1, 1, 40)``, and the exact
float of ``two_point_residual`` at alpha 0.25 on a seeded random field
on the benchmark's fine two-point grid (80 x 401), where the defect is
O(1), so that a rounding move in the ladder map shows on its own, and a
sha256 of 600 replicas' lifetimes at gamma 2 to horizon 1.5 (seed 17) and
gamma 0.5 to horizon 8 (seed 2**40), some of them past the horizon: from
``sample_lifetimes`` in a tree that has it, else from the first events of
pure-death ``simulate_branching`` trees, so that the two routes are
compared bit for bit, a sha256 of ``heat_kernel`` and
``retarded_propagator_heat`` values at (m, d) arrays of target points in
d = 1, 2 and 3 (r = 0 among them, gamma 0 and dt <= 0 too), falling back
to one call per target in a tree whose kernels take one point only, and
the exact floats of ``estimate_extinction`` on an ascending grid of 41
horizons, or of one scalar call per horizon in a tree without grids.

Where a CSV's sha256 differs, each column's largest relative deviation
|change - parent| / |parent| is printed under the run (0 where both
cells are equal, including two NaNs; inf where the parent's cell is 0
or not finite; a text column reads ``same`` or ``differs``).  A column
that differs also shows, in brackets, its largest |change - parent|
divided by its largest |parent|, which stays finite where a cell moves
off or onto 0 (inf only for a column of zeros, or a change that is not
finite), its largest distance in ulps of the parent's cell
(|change - parent| / ``math.ulp(parent)``, finite at 0 and for
subnormals; inf where a cell is not finite) and the counts of cells
that moved off 0 and onto 0.  The ``mass_curve`` and ``residual``
deviations are printed beside their values, and every manifest estimate
that differs with its two values.  ``--change`` defaults to the tree
holding this script.  Exits 1 unless every run is identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import struct
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXTINCTION = {"alpha": 0.25, "gamma": 1.0, "horizon": 60.0, "replicas": 200, "max.particles": 10_000}
SEMIGROUP = {"t": 1.0, "grid.origin": -48.0, "grid.step": 0.01, "grid.count": 9601}
RUNS = (
    [("extinction", dict(EXTINCTION, seed=seed)) for seed in (1, 7, 931, 123456, 2**31 - 1, 55, 808, 40_000)]
    + [
        ("extinction", dict(EXTINCTION, alpha=alpha, seed=3, **extra))
        for alpha, extra in ((0.1, {}), (0.4, {}), (0.49, {"max.particles": 2000, "horizon": 20.0}),
                             (0.0, {"horizon": 5.0}), (0.5, {"horizon": 5.0}), (1.0, {}),
                             (0.25, {"max.particles": 40}))
    ]
    + [("gf", {"alpha": 0.25, "gamma": 1.0, "theta": theta, "t.max": 1.0, "replicas": 150, "seed": seed})
       for theta, seed in ((0.5, 11), (0.0, 12), (0.9, 13))]
    + [(kind, dict(params, replicas=replicas, seed=seed))  # across the 256-replica chunk of the walker
       for kind, params in (("extinction", EXTINCTION),
                            ("gf", {"alpha": 0.25, "gamma": 1.0, "theta": 0.5, "t.max": 1.0}))
       for replicas, seed in ((257, 21), (600, 22))]
    + [("clock", {"gamma": 2.0, "dtau.max": 3.0, "replicas": 2000, "seed": seed}) for seed in (0, 5, 2**31 - 1, 40_000)]
    + [("clock", {"gamma": gamma, "dtau.max": 3.0, "replicas": replicas, "seed": seed})
       for gamma, replicas, seed in ((2.0, 2, 8), (1e-3, 2000, 9), (1e3, 2000, 10), (2.0, 2000, 2**40))]
    + [("kernel", {"gamma": 0.3, "d": d, "t.min": 0.05, "t.max": 3.0, "t.count": 40, "r.max": 6.0, "r.count": 60})
       for d in (1, 2, 3)]
    + [("kernel", dict({"d": 2, "t.min": 0.05, "t.max": 3.0, "t.count": 40, "r.max": 6.0, "r.count": 60}, **extra))
       for extra in ({"gamma": 0.0}, {"gamma": 0.3, "r.min": 0.75})]
    + [("kernel", {"gamma": 1.5, "d": 3, "t.min": 0.4, "t.max": 0.4, "t.count": 1, "r.min": 2.5, "r.max": 2.5,
                   "r.count": 1})]
    + [("onepoint", {"alpha": alpha, "gamma": 1.0, "tau.max": 5.0, "picard.order": 20}) for alpha in (0.25, 0.5, 0.75)]
    + [("twopoint", {"alpha": alpha, "gamma": 1.0, "t.max": 2.0, "t.step": t_step, "x.halfwidth": 10.0,
                     "x.step": x_step})
       for alpha in (0.1, 0.25, 0.5, 0.75) for t_step, x_step in ((0.05, 0.1), (0.025, 0.05))]
    + [("gf", {"alpha": 0.25, "gamma": 1.2345, "theta": 0.5, "t.max": 1.0, "replicas": 150, "seed": 14})]
    + [("semigroup", dict(SEMIGROUP, **{"u.center": center, "u.sigma": sigma}))
       for center, sigma in ((-0.7, 0.3), (0.45, 0.65))]
    + [("semigroup", dict(SEMIGROUP, **{"u.kind": "indicator", "u.lo": -1.5, "u.hi": 0.25}))]
    + [("ring-check", {"cases": 10_000, "seed": seed}) for seed in (0, 2**31 - 1)]
)

# Grids whose span is not a whole number of steps: the solvers take the fewest steps that reach it.
TWOPOINT_045 = {"alpha": 0.5, "gamma": 1.0, "t.max": 2.0, "t.step": 0.45, "x.step": 0.1}
RUNS += [
    ("onepoint", {"alpha": 0.25, "gamma": 1.0, "tau.max": 1.0, "tau.step": 0.3}),
    ("twopoint", dict(TWOPOINT_045, **{"x.halfwidth": 10.0})),
    ("twopoint", dict(TWOPOINT_045, **{"x.halfwidth": 8.5})),  # t runs on to 2.25 and 8.5 < 6*sqrt(2.25): exit 2
]

LIBRARY_RUNS = (
    [("mckean", {"seed": seed, "freq": freq, "phase": phase})
     for seed, freq, phase in ((0, 0.2, 0.0), (5, 1.1, 2.0), (2**31 - 1, 2.0, 4.5), (40_000, 0.7, 6.0))]
    + [("fk", {"potential": potential, "replicas": replicas, "n_steps": n_steps, "seed": seed})
       for potential, replicas, n_steps, seeds in (("constant", 1000, 200, (0, 5, 2**31 - 1)),
                                                   ("harmonic", 257, 7000, (3,)), ("harmonic", 2, 3, (4, 40_000)))
       for seed in seeds]
    + [("tree", {"law": law, "d": d}) for law in ((0.25, 0.0, 0.75), (0.3, 0.2, 0.1, 0.4), (1.0,)) for d in (1, 2, 3)]
    + [("extinction", {"alpha": alpha, "horizon": horizon, "replicas": replicas, "seed": seed})
       for alpha, horizon, replicas, seed in ((0.25, 60.0, 600, 3), (0.4, 60.0, 257, 4), (0.5, 5.0, 300, 5))]
    + [("gf", {"alpha": alpha, "theta": theta, "t": t, "replicas": replicas, "seed": seed})
       for alpha, theta, t, replicas, seed in ((0.25, 0.5, 1.0, 600, 6), (0.25, 0.0, [0.5, 1.0, 2.0], 257, 7),
                                               (0.4, 0.9, [0.25, 3.0], 300, 8))]
    + [("mass_curve", {"alpha": 0.1, "gamma": 1.0, "t_max": 40.0})]
    + [("residual", {"alpha": 0.25, "seed": 19})]
    + [("lifetimes", {"gamma": gamma, "horizon": horizon, "seed": seed})
       for gamma, horizon, seed in ((2.0, 1.5, 17), (0.5, 8.0, 2**40))]
    + [("kernel_rows", {"d": d, "seed": 40 + d}) for d in (1, 2, 3)]
    + [("extinction_curve", {"alpha": alpha, "horizon": horizon, "replicas": replicas, "seed": seed})
       for alpha, horizon, replicas, seed in ((0.25, 60.0, 300, 9), (0.4, 20.0, 257, 10))]
)


def library_value(kind: str, params: dict):
    """The result of one library run, exactly (floats as hex), from the heatfield on sys.path."""
    import numpy as np

    from heatfield import dyson, kernels, montecarlo

    if kind in ("extinction", "extinction_curve", "gf"):
        config = montecarlo.BranchingConfig(1.0, dyson.FertilityDistribution.binary(params["alpha"]), max_particles=10_000)
        if kind == "extinction":
            result = montecarlo.estimate_extinction(config, params["horizon"], params["replicas"], params["seed"])
        elif kind == "extinction_curve":  # a grid of horizons, or one scalar call per horizon in a tree without grids
            taus, replicas, seed = np.linspace(0.0, params["horizon"], 41), params["replicas"], params["seed"]
            try:
                result = montecarlo.estimate_extinction(config, taus, replicas, seed)
            except TypeError:
                result = list(zip(*(montecarlo.estimate_extinction(config, tau, replicas, seed) for tau in taus.tolist())))
        else:
            result = montecarlo.estimate_generating_function(
                config, params["theta"], np.array(params["t"]), params["replicas"], params["seed"]
            )
        return [[v.hex() for v in np.atleast_1d(value).tolist()] for value in result]
    if kind == "mass_curve":  # size, hash, then the values themselves for the deviation
        values = dyson.mass_curve(params["alpha"], params["gamma"], params["t_max"]).values
        return [values.size, hashlib.sha256(values.astype("<f8").tobytes()).hexdigest(), values.tolist()]
    if kind == "residual":
        values = np.random.default_rng(params["seed"]).uniform(0.0, 0.4, size=(80, 401))
        return dyson.two_point_residual(dyson.SpaceTimeField(0.025, 0.05, values), params["alpha"], 1.0).hex()
    if kind == "lifetimes":  # sample_lifetimes, or the first events of pure-death trees in a tree without it
        gamma, horizon, seed = params["gamma"], params["horizon"], params["seed"]
        if hasattr(montecarlo, "sample_lifetimes"):
            times = montecarlo.sample_lifetimes(gamma, horizon, 600, seed)
        else:
            config = montecarlo.BranchingConfig(gamma, dyson.FertilityDistribution((1.0,)))
            logs = [montecarlo.simulate_branching(config, horizon, (), seed, replica=r) for r in range(600)]
            times = np.array([log.events[0].time if log.events else math.inf for log in logs])
        return hashlib.sha256(np.asarray(times, dtype="<f8").tobytes()).hexdigest()
    if kind == "kernel_rows":  # array targets, or one call per target in a tree without them
        d, rng = params["d"], np.random.default_rng(params["seed"])
        x, rows = rng.normal(size=d), rng.normal(scale=2.0, size=(300, d))
        rows[0] = x  # r = 0
        calls = [lambda y, t=t: kernels.heat_kernel(t, x, y) for t in (1e-3, 0.37, 4.0)] + [
            lambda y, tx=tx, ty=ty, gamma=gamma: kernels.retarded_propagator_heat((tx, x), (ty, y), gamma)
            for tx, ty, gamma in ((0.0, 0.37, 0.0), (0.5, 2.0, 1.3), (1.0, 1.0, 0.7), (2.0, 1.0, 0.7))
        ]
        try:
            kernels.heat_kernel(1.0, 0.0, np.zeros((1, 1)))
            arrays = True
        except kernels.DimensionMismatchError:
            arrays = False
        digest = hashlib.sha256()
        for call in calls:
            values = call(rows) if arrays else [call(y) for y in rows]
            digest.update(np.asarray(values, dtype="<f8").tobytes())
        return digest.hexdigest()
    if kind == "mckean":
        xs = np.arange(-40.0, 40.0 + 1e-9, 0.1)
        phi = kernels.SampledFunction(-40.0, 0.1, 0.5 + 0.1 * np.sin(params["freq"] * xs + params["phase"]))
        config = montecarlo.BranchingConfig(1.0, dyson.FertilityDistribution.binary(0.25))
        return [value.hex() for value in montecarlo.estimate_mckean_product(config, phi, 6.0, 150, params["seed"])]
    if kind == "fk":
        u = kernels.SampledFunction.sample(lambda x: np.exp(-(x**2) / 0.5), -10.5, 0.01, 2101)
        potentials = {"constant": lambda xs: np.full(xs.shape, 0.4), "harmonic": lambda xs: 0.5 * xs**2}
        result = montecarlo.feynman_kac_estimate(
            u, potentials[params["potential"]], 1.0, 0.0, params["replicas"], params["n_steps"], params["seed"]
        )
        return [value.hex() for value in result]
    d = params["d"]
    config = montecarlo.BranchingConfig(1.0, dyson.FertilityDistribution(params["law"]), d=d, x0=(0.5, -1.25, 2.0)[:d])
    digest = hashlib.sha256()
    for r in range(40):
        log = montecarlo.simulate_branching(config, 2.5, np.linspace(0.0, 2.5, 6), seed=31, replica=r)
        for e in log.events:
            digest.update(struct.pack("<d2q", e.time, e.parent, len(e.children)))
            digest.update(repr((e.kind, e.children)).encode())
            digest.update(np.asarray(e.position, dtype=float).tobytes())
        digest.update(repr(log.final.ids).encode())
        digest.update(np.ascontiguousarray(log.final.positions, dtype=float).tobytes())
        digest.update(np.asarray(log.counts, dtype=np.int64).tobytes())
        digest.update(struct.pack("<d", log.extinction_time))
    return digest.hexdigest()


def run_library(tree: str):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    command = [sys.executable, os.path.abspath(__file__), "--library"]
    return json.loads(subprocess.run(command, env=env, check=True, capture_output=True, text=True).stdout)


def run(tree: str, kind: str, params: dict, out: str):
    cfg = os.path.join(os.path.dirname(out), "run.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in params.items())
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    command = [sys.executable, "-m", "heatfield.cli", kind, "--config", cfg, "--out", out]
    if subprocess.run(command, env=env, capture_output=True).returncode not in (0, 2):
        raise RuntimeError(f"{kind} {params} did not run in {tree}")
    with open(out + ".manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    return manifest.get("csv_sha256", manifest["error"]), manifest["estimates"]


def relative_deviation(old: list, new: list) -> float:
    """Largest |new - old| / |old| over paired floats (equal cells, NaN pairs too, count 0)."""
    worst = 0.0
    for a, b in zip(old, new):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            finite = a and math.isfinite(a) and math.isfinite(b)
            worst = max(worst, abs(b - a) / abs(a) if finite else math.inf)
    return worst


def scaled_deviation(old: list, new: list) -> float:
    """Largest |new - old| over paired floats divided by the largest finite |old| (equal cells, NaN pairs too, count 0)."""
    worst = max((abs(b - a) for a, b in zip(old, new) if a != b and not (math.isnan(a) and math.isnan(b))), default=0.0)
    scale = max((abs(a) for a in old if math.isfinite(a)), default=0.0)
    if not worst:
        return 0.0
    return worst / scale if math.isfinite(worst) and scale else math.inf


def ulp_distance(old: list, new: list) -> float:
    """Largest |new - old| in ulps of old over paired floats (equal cells, NaN pairs too, count 0)."""
    worst = 0.0
    for a, b in zip(old, new):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            worst = max(worst, abs(b - a) / math.ulp(a) if math.isfinite(a) and math.isfinite(b) else math.inf)
    return worst


def column_deviations(old_csv: str, new_csv: str) -> str:
    """Each column's largest relative deviation between two CSVs with the same header, and if it differs its scaled
    deviation, ulp distance and moves off and onto 0."""
    tables = []
    for path in (old_csv, new_csv):
        with open(path, encoding="utf-8", newline="") as fh:
            tables.append(list(csv.reader(fh)))
    (old_head, *old_rows), (new_head, *new_rows) = tables
    if old_head != new_head or len(old_rows) != len(new_rows):
        return f"header or row count differs ({len(old_rows)} vs {len(new_rows)} rows)"
    parts = []
    for name, old, new in zip(old_head, zip(*old_rows), zip(*new_rows)):
        try:
            old, new = list(map(float, old)), list(map(float, new))
            deviation = relative_deviation(old, new)
            off, onto = sum(a == 0 != b for a, b in zip(old, new)), sum(b == 0 != a for a, b in zip(old, new))
            scaled = (f" [{scaled_deviation(old, new):.2g} of max, {ulp_distance(old, new):.3g} ulps,"
                      f" {off} off 0, {onto} onto 0]") if deviation else ""
            parts.append(f"{name} {deviation:.2g}{scaled}")
        except ValueError:
            parts.append(f"{name} {'same' if old == new else 'differs'}")
    return ", ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="source tree of the parent commit")
    parser.add_argument("--change", default=HERE, help="source tree of the change (default: this one)")
    parser.add_argument("--library", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.library:
        print(json.dumps([library_value(kind, params) for kind, params in LIBRARY_RUNS]))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    failures = 0
    with tempfile.TemporaryDirectory() as workdir:
        old_csv, new_csv = os.path.join(workdir, "parent.csv"), os.path.join(workdir, "change.csv")
        for kind, params in RUNS:
            old_sha, old_est = run(args.parent, kind, params, old_csv)
            new_sha, new_est = run(args.change, kind, params, new_csv)
            same = old_sha == new_sha and all(new_est.get(key) == value for key, value in old_est.items())
            added = {key: new_est[key] for key in new_est.keys() - old_est.keys()}
            failures += not same
            print(f"{'same' if same else 'DIFFERENT'}  {kind} {params}  sha256 {new_sha[:12]}  added {added}")
            if old_sha != new_sha and os.path.exists(old_csv) and os.path.exists(new_csv):
                print(f"    largest relative deviation by column: {column_deviations(old_csv, new_csv)}")
            moved = {key: (value, new_est.get(key)) for key, value in old_est.items() if new_est.get(key) != value}
            if moved:
                print(f"    estimates that differ (parent, change): {moved}")
            for path in (old_csv, new_csv):
                if os.path.exists(path):
                    os.remove(path)
    for (kind, params), old, new in zip(LIBRARY_RUNS, run_library(args.parent), run_library(args.change)):
        failures += old != new
        shown = new
        if kind == "mass_curve":
            deviation = relative_deviation(old[2], new[2]) if old[0] == new[0] else math.inf
            shown = new[:2] + [f"largest relative deviation {deviation:.2g}"]
        if kind == "residual":
            old_value, new_value = float.fromhex(old), float.fromhex(new)
            shown = f"{new_value!r}, relative deviation {relative_deviation([old_value], [new_value]):.2g}"
        if kind == "extinction_curve":  # the pair at the last of its 41 horizons
            shown = [values[-1] for values in new]
        print(f"{'same' if old == new else 'DIFFERENT'}  library {kind} {params}  {shown}")
    total = len(RUNS) + len(LIBRARY_RUNS)
    print(f"{total - failures} of {total} runs identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
