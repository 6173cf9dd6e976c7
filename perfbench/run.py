"""heatfield benchmark: run one workload for a fixed time, check it, report metrics.

    python3 perfbench/run.py --workload {extinction,short_mc,ladder} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Operations run one after another in this process.  The
benchmark starts no threads; its only child processes are the set-up
probes, run one at a time before any operation is timed.  The loop runs
whole cycles of operations (see ``workloads.py``) until ``--seconds``
have passed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
fresh interpreters that import numpy and heatfield and generate the
inputs),
``wall_s`` (median over cycles of the summed operation latencies),
``op_p50_s``, ``op_tail_s`` (latency at the workload's fixed tail
percentile; the count of operations beyond it is printed) and
``peak_rss_mb``.  ``fail_ratio`` is printed and carried by the
``attempted``/``failed`` fields of the result.  Times are scaled to a
reference host speed measured around each operation (see ``HostSpeed``);
the measured seconds are printed beside them.

``--trace 1`` runs the loop for half the time untraced, then for half
the time with heatfield's public functions wrapped in spans, and reports
per-module self times and counts per cycle plus ``trace.overhead_s``.

The last line of standard output is the JSON result.  A fuller record
(environment, per-operation latencies) and the spans of the last traced
run of each workload go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 9
CAL_REFERENCE_S = 0.0057  # median calibration_kernel() on an uncontended 2-vCPU Xeon guest
CAL_INTERVAL_S = 0.25
CAL_NEIGHBOURS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_benchmark():
    if not os.path.isfile(os.path.join(SRC, "heatfield", "__init__.py")):
        raise ImportError(f"no heatfield sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import workloads  # imports heatfield and numpy

    return workloads


def calibration_kernel() -> float:
    """Seconds taken by fixed work independent of heatfield.

    Scalar Python arithmetic, small numpy vector calls and fresh PCG64
    generators with short draws: the kinds of work heatfield's solvers and
    replicas spend their time on.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += math.exp(-i * 1e-4) * (i % 7)
    x = np.linspace(0.0, 1.0, 2000)
    for _ in range(200):
        acc += float(np.sum(np.sqrt(x + acc * 1e-12)))
    cdf = np.array([0.25, 0.25, 1.0])
    for stream in range(60):
        rng = np.random.Generator(np.random.PCG64(stream))
        ks = np.searchsorted(cdf, rng.random(256), side="right")
        acc += float(np.sum(np.cumsum(rng.standard_exponential(256) / (1.0 + ks))))
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host runs, sampled between operations.

    On a shared host other tenants slow all code alike, by up to 2x for
    stretches of many seconds (seen on a 2-vCPU Xeon guest).  Each
    operation's latency is scaled by CAL_REFERENCE_S over the median
    calibration time of the samples taken nearest to it, which cancels
    such stretches; the measured seconds are printed and recorded too.
    """

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self, force=False):
        if force or time.perf_counter() - self.times[-1] >= CAL_INTERVAL_S:
            self.samples.append(calibration_kernel())
            self.times.append(time.perf_counter())

    def scale_at(self, moment) -> float:
        nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - moment))
        return CAL_REFERENCE_S / statistics.median(self.samples[i] for i in nearest[:CAL_NEIGHBOURS])


def measure_setup(args):
    """Seconds taken by fresh interpreters that do exactly the set-up work.

    Returns (measured, scaled): each probe is scaled by the mean of the
    calibration times taken just before and just after it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    measured, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = calibration_kernel()
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        measured.append(time.perf_counter() - start)
        scaled.append(measured[-1] * 2.0 * CAL_REFERENCE_S / (before + calibration_kernel()))
    return measured, scaled


def run_loop(workload, seconds, tracer=None):
    """Run whole cycles until ``seconds`` pass; one list of records per cycle."""
    cycles, speed = [], HostSpeed()
    deadline = time.perf_counter() + seconds
    op_id = 0
    while True:
        records = []
        for op in workload.cycle(len(cycles)):
            speed.sample(force=not records and not cycles)
            scope = tracer.operation(op_id) if tracer else contextlib.nullcontext()
            op_id += 1
            latency = None
            start = time.perf_counter()
            try:
                with scope:
                    result = op.run()
                latency = time.perf_counter() - start
                op.check(result)
                ok = True
            except (Exception, SystemExit):  # noqa: BLE001 - a failed operation is counted
                latency = latency if latency is not None else time.perf_counter() - start
                print(f"operation {op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
                ok = False
            size = os.path.getsize(op.csv) if op.csv and os.path.exists(op.csv) else 0
            records.append({"op": op.name, "start": start, "latency_s": latency, "ok": ok, "csv_bytes": size})
        cycles.append(records)
        if time.perf_counter() >= deadline:
            speed.sample(force=True)
            for r in (r for records in cycles for r in records):
                r["scaled_s"] = r["latency_s"] * speed.scale_at(r["start"] + r["latency_s"] / 2)
            return cycles, speed


def repeat_is_identical(workload) -> bool:
    """Run the first operation of cycle 0 twice; its CSVs must match byte for byte."""
    op = workload.cycle(0)[0]
    outputs = []
    try:
        for _ in range(2):
            op.check(op.run())
            with open(op.csv, "rb") as fh:
                outputs.append(fh.read())
    except (Exception, SystemExit):  # noqa: BLE001
        print(f"repeat check failed:\n{traceback.format_exc()}", file=sys.stderr)
        return False
    return outputs[0] == outputs[1]


def cycle_seconds(cycles, key="scaled_s"):
    return [sum(r[key] for r in records) for records in cycles]


def mean_scale(cycles):
    return sum(cycle_seconds(cycles)) / sum(cycle_seconds(cycles, "latency_s"))


def latency_metrics(cycles, key, tail_percentile):
    latencies = sorted(r[key] for records in cycles for r in records)
    rank = math.ceil(tail_percentile / 100.0 * len(latencies))  # nearest rank: an observed latency
    return {
        "wall_s": statistics.median(cycle_seconds(cycles, key)),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": latencies[rank - 1],
    }, {"percentile": tail_percentile, "operations": len(latencies), "beyond": len(latencies) - rank}


def end_to_end(cycles, setup, tail_percentile):
    """End-to-end metrics as (scaled value, unit, measured value)."""
    scaled, tail = latency_metrics(cycles, "scaled_s", tail_percentile)
    measured, _ = latency_metrics(cycles, "latency_s", tail_percentile)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (statistics.median(setup[1]), "s", statistics.median(setup[0]))}
    metrics.update((name, (scaled[name], "s", measured[name])) for name in scaled)
    metrics["peak_rss_mb"] = (rss, "MB", rss)
    return metrics, tail


def per_layer(tracer, traced, untraced, workload):
    """Per-module metrics per traced cycle; times scaled by the traced loop's mean scale."""
    cycles = len(traced)
    k = mean_scale(traced)
    layers = tracer.summary()
    counters = tracer.counters

    def self_s(name):
        return k * layers[name]["self_s"] / cycles if name in layers else 0.0

    def calls(name):
        return layers[name]["calls"] / cycles if name in layers else 0.0

    def per(name, counter):
        # Inclusive microseconds of the span per unit of work it was given.
        count = counters[name][counter]
        return 1e6 * k * layers[name]["total_s"] / count if count and name in layers else 0.0

    ext, branching = "montecarlo.sample_extinction_times", "montecarlo.simulate_branching"
    replicas = counters[ext]["replicas"]
    events = counters[branching]["events"]
    branching_s = k * layers[branching]["total_s"] if branching in layers else 0.0
    overhead = statistics.median(cycle_seconds(traced)) - statistics.median(cycle_seconds(untraced))
    metrics = {
        f"{ext}.s": (self_s(ext), "s"),
        f"{ext}.us_per_replica": (per(ext, "replicas"), "us"),
        f"{ext}.survivor_share": (counters[ext]["survivors"] / replicas if replicas else 0.0, "1"),
        "montecarlo.estimate_generating_function.s": (self_s("montecarlo.estimate_generating_function"), "s"),
        "montecarlo.estimate_generating_function.us_per_replica": (
            per("montecarlo.estimate_generating_function", "replicas"), "us"),
        f"{branching}.s": (self_s(branching), "s"),
        f"{branching}.calls": (calls(branching), "count"),
        f"{branching}.events": (events / cycles, "count"),
        f"{branching}.events_per_s": (events / branching_s if branching_s else 0.0, "1/s"),
        "montecarlo.estimate_mckean_product.s": (self_s("montecarlo.estimate_mckean_product"), "s"),
        "montecarlo.feynman_kac_estimate.s": (self_s("montecarlo.feynman_kac_estimate"), "s"),
        "montecarlo.derive_stream.calls": (calls("montecarlo.derive_stream"), "count"),
        "montecarlo.derive_stream.s": (self_s("montecarlo.derive_stream"), "s"),
        "dyson.two_point_picard.s": (self_s("dyson.two_point_picard"), "s"),
        "dyson.two_point_residual.s": (self_s("dyson.two_point_residual"), "s"),
        "dyson.two_point.cells": (counters["dyson.two_point_picard"]["cells"] / cycles, "count"),
        "dyson.retarded_propagator_heat.calls": (calls("dyson.retarded_propagator_heat"), "count"),
        "dyson.retarded_propagator_heat.s": (self_s("dyson.retarded_propagator_heat"), "s"),
        "dyson.mass_curve.s": (self_s("dyson.mass_curve"), "s"),
        "dyson.mass_curve.rel_residual": (workload.mass_rel_residual, "1"),
        "dyson.one_point_picard.s": (self_s("dyson.one_point_picard"), "s"),
        "dyson.one_point_ode.s": (self_s("dyson.one_point_ode"), "s"),
        "kernels.apply_semigroup.s": (self_s("kernels.apply_semigroup"), "s"),
        "pring.self_check.s": (self_s("pring.self_check"), "s"),
        "pring.self_check.us_per_case": (per("pring.self_check", "cases"), "us"),
        "cli.parse_config.s": (self_s("cli.parse_config"), "s"),
        "cli.run_experiment.self_s": (self_s("cli.run_experiment"), "s"),
        "cli.csv_bytes": (sum(r["csv_bytes"] for c in traced for r in c) / cycles, "bytes"),
        "trace.overhead_s": (overhead, "s"),
    }
    return {name: (value, unit, None) for name, (value, unit) in metrics.items()}


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def environment(workload_name, seed, why):
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")]
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = ((_read(f"{index}/{name}") or "").strip() for name in ("level", "type", "size"))
        caches[f"L{level}" + ("" if kind == "Unified" else kind[:1].lower())] = size
    head = (_read(os.path.join(ROOT, ".git", "HEAD")) or "").strip()
    if head.startswith("ref: "):
        head = (_read(os.path.join(ROOT, ".git", head[5:])) or "").strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else platform.processor(),
        "caches": caches,
        "git_commit": head or None,
        "workload": workload_name,
        "seed": seed,
        "why": why,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bench = import_benchmark()
    except ImportError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.workload not in bench.WHY:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(bench.WHY)}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    if args.setup_probe:
        try:
            bench.Workload(args.workload, args.seed, workdir).cycle(0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    setup = measure_setup(args) if args.trace == 0 else None
    try:
        workload = bench.Workload(args.workload, args.seed, workdir)
        cycles, speed = run_loop(workload, args.seconds if args.trace == 0 else args.seconds / 2)
        identical = repeat_is_identical(workload)
        traced = []
        if args.trace == 1:
            import heatfield
            from tracer import Tracer

            tracer = Tracer(heatfield)
            tracer.install()
            try:
                traced, _ = run_loop(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for c in cycles + traced for r in c]
    attempted = len(records) + 1  # the repeat check counts as one operation
    failed = sum(not r["ok"] for r in records) + (not identical)
    env = environment(args.workload, args.seed, bench.WHY[args.workload])
    record = {"environment": env, "byte_identical_repeat": identical, "cycles": cycles,
              "calibration_s": speed.samples, "scale": mean_scale(cycles)}

    if args.trace == 0:
        metrics, tail = end_to_end(cycles, setup, bench.TAIL_PERCENTILE[args.workload])
        record.update(tail=tail, setup_probes_s=setup[0], setup_probes_scaled_s=setup[1])
        for name, (value, unit, raw) in metrics.items():
            print(f"{name:12s} {value:<12.6g} {unit:3s} (measured {raw:.6g})")
        print(f"{'fail_ratio':12s} {failed / attempted:<12.6g} 1   ({failed} of {attempted} operations)")
        print(f"op_tail_s is the p{tail['percentile']:.4g} latency: "
              f"{tail['beyond']} of {tail['operations']} operations lie beyond it")
        print(f"times are scaled by {record['scale']:.4f} on average to a calibration kernel time "
              f"of {CAL_REFERENCE_S} s")
        print(f"dyson.mass_curve.rel_residual {workload.mass_rel_residual:.3g} (reported, not gated)")
    else:
        metrics = per_layer(tracer, traced, cycles, workload)
        record.update(traced_cycles=traced)
        os.makedirs(WORK, exist_ok=True)
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.npz"))
    print("environment " + json.dumps(env, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    record["result"] = result
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
