"""Config-driven experiment runner.

Usage: ``heatfield <subcommand> --config <file> [--out <path>]``.

Config files are line oriented: blank lines and ``#`` comments are
ignored, every other line is ``key = value`` with dotted lowercase
keys.  Values are decimal numbers except for the output path ``out``
and enumerated choices such as ``u.kind``.  Each subcommand validates
its keys against the target operation's preconditions before running
anything, writes one CSV (fixed column order, Unix newlines; doubles at
17 significant digits, integers as decimals, booleans as 0/1, ring-check
property names verbatim) and a JSON manifest next to it.  Runs are bit
reproducible within one ``environment``, which the manifest records
(Python, numpy, platform, libc, the BLAS build, numpy's enabled CPU
features and any variable that changes numpy's SIMD dispatch or the
OpenBLAS kernel): there, identical configs give byte-identical CSVs.
The BLAS build is numpy's build-time string, whose core is the build
machine's; the OpenBLAS kernel picked at load is not recorded unless
``OPENBLAS_CORETYPE`` is set.
The ``kernel``, ``gf``, ``clock``, ``ring-check``, ``extinction`` and
``onepoint`` CSVs were also measured byte-identical with numpy's AVX-512
dispatch off and with its AVX2 dispatch off as well; ``semigroup`` and
``twopoint`` bytes can change with the BLAS kernel or the SIMD level.
No drawn number depends on either.

Exit status: 0 on success, 1 on config parse/validation errors, a
missing output directory or an output path that is a directory (checked
before anything runs; no file is written), 2 when the computation
itself fails (the manifest then records the error).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import math
import os
import platform
import re
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__, dyson, kernels, montecarlo, pring
from ._digits import float_cells

__all__ = ["ParseError", "ValidationError", "ExperimentConfig", "parse_config", "run_experiment", "main"]


class ParseError(Exception):
    """Config file unreadable or malformed; message carries path and line."""


class ValidationError(Exception):
    """A config value violates the target operation's preconditions."""


_KEY_RE = re.compile(r"^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*)*$")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict
    out: str | None = None


def _positive(x):
    return 0 < x < math.inf


def _non_negative(x):
    return 0 <= x < math.inf


def _unit_interval(x):
    return 0.0 <= x <= 1.0


# key -> (python type, default or REQUIRED, predicate, constraint text)
_REQUIRED = object()

_SCHEMAS = {
    "kernel": {
        "gamma": (float, 0.0, _non_negative, "gamma >= 0"),
        "d": (int, 1, lambda v: 1 <= v <= 3, "d in {1, 2, 3}"),
        "t.min": (float, _REQUIRED, _positive, "t.min > 0"),
        "t.max": (float, _REQUIRED, _positive, "t.max > 0"),
        "t.count": (int, _REQUIRED, lambda v: v >= 1, "t.count >= 1"),
        "r.min": (float, 0.0, _non_negative, "r.min >= 0"),
        "r.max": (float, _REQUIRED, _non_negative, "r.max >= 0"),
        "r.count": (int, _REQUIRED, lambda v: v >= 1, "r.count >= 1"),
    },
    "semigroup": {
        "t": (float, _REQUIRED, _positive, "t > 0"),
        "grid.origin": (float, _REQUIRED, math.isfinite, "grid.origin finite"),
        "grid.step": (float, _REQUIRED, _positive, "grid.step > 0"),
        "grid.count": (int, _REQUIRED, lambda v: v >= 2, "grid.count >= 2"),
        "u.kind": (str, "gaussian", lambda v: v in ("gaussian", "indicator"), "u.kind in {gaussian, indicator}"),
        "u.center": (float, 0.0, math.isfinite, "u.center finite"),
        "u.sigma": (float, 0.5, _positive, "u.sigma > 0"),
        "u.lo": (float, -1.0, math.isfinite, "u.lo finite"),
        "u.hi": (float, 1.0, math.isfinite, "u.hi finite"),
    },
    "clock": {
        "gamma": (float, _REQUIRED, _positive, "gamma > 0"),
        "dtau.max": (float, _REQUIRED, _positive, "dtau.max > 0"),
        "dtau.count": (int, 51, lambda v: v >= 2, "dtau.count >= 2"),
        "replicas": (int, 10_000, lambda v: v >= 2, "replicas >= 2"),
        "seed": (int, 0, _non_negative, "seed >= 0"),
    },
    "extinction": {
        "alpha": (float, _REQUIRED, _unit_interval, "alpha in [0, 1]"),
        "gamma": (float, _REQUIRED, _positive, "gamma > 0"),
        "horizon": (float, 60.0, _non_negative, "horizon >= 0"),
        "replicas": (int, _REQUIRED, lambda v: v >= 1, "replicas >= 1"),
        "seed": (int, 0, _non_negative, "seed >= 0"),
        "max.particles": (int, 1_000_000, lambda v: v >= 1, "max.particles >= 1"),
        "tau.count": (int, 121, lambda v: v >= 2, "tau.count >= 2"),
    },
    "onepoint": {
        "alpha": (float, _REQUIRED, _unit_interval, "alpha in [0, 1]"),
        "gamma": (float, _REQUIRED, _positive, "gamma > 0"),
        "tau.max": (float, _REQUIRED, _positive, "tau.max > 0"),
        "tau.step": (float, None, _positive, "tau.step > 0"),
        "picard.order": (int, 20, lambda v: v >= 1, "picard.order >= 1"),
    },
    "gf": {
        "alpha": (float, _REQUIRED, _unit_interval, "alpha in [0, 1]"),
        "gamma": (float, _REQUIRED, _positive, "gamma > 0"),
        "theta": (float, _REQUIRED, _unit_interval, "theta in [0, 1]"),
        "t.max": (float, _REQUIRED, _positive, "t.max > 0"),
        "t.count": (int, 11, lambda v: v >= 2, "t.count >= 2"),
        "replicas": (int, _REQUIRED, lambda v: v >= 2, "replicas >= 2"),
        "seed": (int, 0, _non_negative, "seed >= 0"),
        "max.particles": (int, 1_000_000, lambda v: v >= 1, "max.particles >= 1"),
    },
    "twopoint": {
        "alpha": (float, _REQUIRED, _unit_interval, "alpha in [0, 1]"),
        "gamma": (float, _REQUIRED, _positive, "gamma > 0"),
        "t.max": (float, _REQUIRED, _positive, "t.max > 0"),
        "t.step": (float, _REQUIRED, _positive, "t.step > 0"),
        "x.halfwidth": (float, _REQUIRED, _positive, "x.halfwidth > 0"),
        "x.step": (float, _REQUIRED, _positive, "x.step > 0"),
    },
    "ring-check": {
        "cases": (int, 10_000, lambda v: v >= 1, "cases >= 1"),
        "seed": (int, 0, _non_negative, "seed >= 0"),
    },
}


def _read_pairs(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ParseError(f"{path}: cannot read config ({err})") from err
    pairs = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not _KEY_RE.match(key):
            raise ParseError(f"{path}:{lineno}: invalid key {key!r} (dotted lowercase)")
        if not value:
            raise ParseError(f"{path}:{lineno}: empty value for {key!r}")
        if key in pairs:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _convert(key, text, target):
    try:
        return target(text)
    except ValueError as err:
        raise ValidationError(f"{key}: expected {target.__name__}, got {text!r}") from err


# The grid CSVs' row counts, checked before anything runs: a grid of at most 2**24 rows, the curve solvers' bound.
_MAX_CSV_ROWS = 2**24
_CSV_ROWS = {
    "kernel": ("t.count, r.count", lambda p: p["t.count"] * p["r.count"]),
    "semigroup": ("grid.count", lambda p: p["grid.count"]),
    "twopoint": (
        "t.max, t.step, x.halfwidth, x.step",
        lambda p: math.prod(dyson.two_point_shape(p["t.max"], p["t.step"], p["x.halfwidth"], p["x.step"])),
    ),
}


def parse_config(path: str, kind: str) -> ExperimentConfig:
    """Read, type, and validate a config file against one subcommand."""
    if kind not in _SCHEMAS:
        raise ValidationError(f"unknown experiment kind {kind!r}")
    pairs = _read_pairs(path)
    declared = pairs.pop("experiment", None)
    if declared is not None and declared != kind:
        raise ValidationError(f"experiment: config declares {declared!r}, subcommand is {kind!r}")
    out = pairs.pop("out", None)
    schema = _SCHEMAS[kind]
    params = {}
    for key, value in pairs.items():
        if key not in schema:
            raise ValidationError(f"{key}: unknown key for '{kind}'")
        target, _, check, constraint = schema[key]
        typed = _convert(key, value, target)
        if not check(typed):
            raise ValidationError(f"{key}: must satisfy {constraint}, got {typed!r}")
        params[key] = typed
    for key, (target, default, check, constraint) in schema.items():
        if key in params:
            continue
        if default is _REQUIRED:
            raise ValidationError(f"{key}: required for '{kind}' ({constraint})")
        params[key] = default
    if kind == "kernel":
        if params["t.max"] < params["t.min"]:
            raise ValidationError("t.max: must be >= t.min")
        if params["r.max"] < params["r.min"]:
            raise ValidationError("r.max: must be >= r.min")
    if kind == "semigroup" and params["u.kind"] == "indicator" and params["u.hi"] < params["u.lo"]:
        raise ValidationError("u.hi: must be >= u.lo")
    if kind in _CSV_ROWS:
        keys, count = _CSV_ROWS[kind]
        try:
            rows = count(params)
        except ValueError as err:  # a twopoint span/step past the float range
            raise ValidationError(f"{keys}: {err}") from None
        if rows > _MAX_CSV_ROWS:
            raise ValidationError(f"{keys}: the CSV must have at most 2**24 rows, got {rows}")
    return ExperimentConfig(kind=kind, params=params, out=out)


def _run_kernel(p):
    d, gamma = p["d"], p["gamma"]
    origin = np.zeros(d)
    t_grid = np.linspace(p["t.min"], p["t.max"], p["t.count"])
    r_grid = np.linspace(p["r.min"], p["r.max"], p["r.count"])
    targets = np.zeros((r_grid.size, d))
    targets[:, 0] = r_grid
    rows = t_grid.tolist()
    columns = {
        "t": _Levels(t_grid, np.repeat(np.arange(t_grid.size), r_grid.size)),
        "r": _Levels(r_grid, np.tile(np.arange(r_grid.size), t_grid.size)),
        "heat_kernel": np.concatenate([kernels.heat_kernel(t, origin, targets) for t in rows]),
        "retarded_propagator": np.concatenate(
            [kernels.retarded_propagator_heat((0.0, origin), (t, targets), gamma) for t in rows]
        ),
    }
    return columns, {}


def _run_semigroup(p):
    def u0(nodes):
        if p["u.kind"] == "gaussian":
            sig = p["u.sigma"]
            return np.exp(-((nodes - p["u.center"]) ** 2) / (2 * sig * sig)) / math.sqrt(2 * math.pi * sig * sig)
        return ((nodes >= p["u.lo"]) & (nodes <= p["u.hi"])).astype(float)

    u = kernels.SampledFunction.sample(u0, p["grid.origin"], p["grid.step"], p["grid.count"])  # checks the grid first
    evolved = kernels.apply_semigroup(u, p["t"])
    return {"x": u.nodes, "u": u.values, "evolved": evolved.values}, {}


def _run_clock(p):
    gamma, replicas, seed = p["gamma"], p["replicas"], p["seed"]
    dtau = np.linspace(0.0, p["dtau.max"], p["dtau.count"])
    columns = {"dtau": dtau, "event_probability": [kernels.event_probability(gamma, d) for d in dtau]}
    # Single-particle lifetimes to a horizon long enough that the no-event probability
    # exp(-50) is negligible.
    times = montecarlo.sample_lifetimes(gamma, 50.0 / gamma, replicas, seed)
    times = times[np.isfinite(times)]
    stat, pvalue = montecarlo.lifetime_ks(times, gamma)
    estimates = {
        "lifetime_mean": float(np.mean(times)),
        "lifetime_mean_stderr": float(np.std(times, ddof=1) / math.sqrt(times.size)),
        "lifetime_mean_expected": 1.0 / gamma,
        "ks_statistic": stat,
        "ks_pvalue": pvalue,
    }
    return columns, estimates


def _run_extinction(p):
    config = montecarlo.BranchingConfig(
        p["gamma"],
        dyson.FertilityDistribution.binary(p["alpha"]),
        max_particles=p["max.particles"],
    )
    taus = np.linspace(0.0, p["horizon"], p["tau.count"])
    p_hat, stderr = montecarlo.estimate_extinction(config, taus, p["replicas"], p["seed"])
    analytic = dyson.one_point_closed_form(p["alpha"], p["gamma"], taus)
    stop_level, stop_bias_bound = config.extinction_stop  # the level the walks above stopped at
    estimates = {
        "final_analytic": float(analytic[-1]),
        "final_mc_estimate": float(p_hat[-1]),
        "final_mc_stderr": float(stderr[-1]),
        "eventual_extinction": dyson.extinction_probability(p["alpha"]),
        "stop_level": stop_level,
        "stop_bias_bound": stop_bias_bound,
    }
    return {"tau": taus, "analytic": analytic, "mc_estimate": p_hat, "mc_stderr": stderr}, estimates


def _run_onepoint(p):
    fertility = dyson.FertilityDistribution.binary(p["alpha"])
    ode = dyson.one_point_ode(fertility, p["gamma"], 0.0, p["tau.max"], p["tau.step"])
    picard = dyson.one_point_picard(p["alpha"], p["gamma"], p["tau.max"], p["picard.order"], p["tau.step"])
    closed = dyson.one_point_closed_form(p["alpha"], p["gamma"], ode.nodes)
    estimates = {
        "sup_ode_vs_closed": float(np.max(np.abs(ode.values - closed))),
        "sup_picard_vs_closed": float(np.max(np.abs(picard.values - closed))),
    }
    return {"tau": ode.nodes, "closed_form": closed, "ode": ode.values, "picard": picard.values}, estimates


def _run_gf(p):
    theta, replicas, seed = p["theta"], p["replicas"], p["seed"]
    fertility = dyson.FertilityDistribution.binary(p["alpha"])
    config = montecarlo.BranchingConfig(p["gamma"], fertility, max_particles=p["max.particles"])
    ts = np.linspace(0.0, p["t.max"], p["t.count"])
    # The ODE on the fewest whole sub-steps of the output spacing with gamma*step <= 0.01, read on its
    # nodes: every output time is a node, so no interpolation error enters the column.
    spacing = p["t.max"] / (p["t.count"] - 1)
    sub = math.ceil(spacing * p["gamma"] / 0.01)
    analytic = dyson.one_point_ode(fertility, p["gamma"], theta, p["t.max"], spacing / sub).values[::sub]
    est, err = montecarlo.estimate_generating_function(config, theta, ts[1:], replicas, seed)
    est, err = np.append(theta, est), np.append(0.0, err)  # N_0 = 1 exactly: no replica mean at t = 0
    seen = err > 0  # theta = 1 (and t = 0) gives stderr 0, which measures no deviation
    estimates = {"max_abs_deviation_in_stderr": float(np.max(np.abs(est - analytic)[seen] / err[seen], initial=0.0))}
    return {"t": ts, "ode": analytic, "mc_estimate": est, "mc_stderr": err}, estimates


def _run_twopoint(p):
    field = dyson.two_point_picard(p["alpha"], p["gamma"], p["t.max"], p["t.step"], p["x.halfwidth"], p["x.step"])
    residual = dyson.two_point_residual(field, p["alpha"], p["gamma"])
    # The mass curve on the fewest whole sub-steps of t.step with gamma*step <= 1e-3, read on the field's times.
    sub = math.ceil(field.t_step * p["gamma"] / 1e-3)
    mass = dyson.mass_curve(p["alpha"], p["gamma"], field.times[-1], field.t_step / sub).values[sub::sub]
    slice_mass = field.spatial_mass()
    nt, nx = field.values.shape
    per_time = np.repeat(np.arange(nt), nx)
    columns = {
        "t": _Levels(field.times, per_time),
        "x": _Levels(field.xs, np.tile(np.arange(nx), nt)),
        "dtilde": field.values.ravel(),
        "slice_mass": _Levels(slice_mass, per_time),
        "mass_curve": _Levels(mass, per_time),
    }
    estimates = {
        "residual": residual,
        "max_mass_mismatch": float(np.max(np.abs(slice_mass - mass))),
    }
    return columns, estimates


def _run_ring_check(p):
    tol = 1e-12
    errs = pring.self_check(p["cases"], p["seed"])
    defects = np.array(list(errs.values()))
    passed = defects < tol
    columns = {
        "property": list(errs),
        "cases": np.full(defects.size, p["cases"]),
        "max_defect": defects,
        "tolerance": np.full(defects.size, tol),
        "passed": passed,
    }
    return columns, {"max_defect": float(defects.max()), "all_passed": bool(passed.all())}


_RUNNERS = {
    "kernel": _run_kernel,
    "semigroup": _run_semigroup,
    "clock": _run_clock,
    "extinction": _run_extinction,
    "onepoint": _run_onepoint,
    "gf": _run_gf,
    "twopoint": _run_twopoint,
    "ring-check": _run_ring_check,
}


_CSV_BLOCK = 2048
# Bytes of cells per write: each piece's tobytes and translate copies stay below glibc's
# 128 KiB mmap threshold, so they reuse freed heap rather than fault in fresh pages.
_CSV_PIECE = 65536
_CELL_WIDTH = 25  # the longest %.17g text, -2.2250738585072014e-308, and its separator
_CELL_FORMATS = {"i": "%d", "b": "%d", "U": "%s"}  # floats: "%.17g"


class _Levels(NamedTuple):
    """A float CSV column whose cell i is ``levels[codes[i]]``: _write_csv formats each level once per file."""

    levels: np.ndarray
    codes: np.ndarray


def _level_column(name, col: _Levels) -> _Levels:
    levels, codes = np.asarray(col.levels), np.asarray(col.codes)
    if levels.ndim != 1 or levels.dtype.kind != "f" or codes.ndim != 1 or codes.dtype.kind not in "iu":
        raise ValueError(f"CSV column {name!r}: levels must be a 1-d float array and codes a 1-d integer array")
    if codes.size and not (codes.min() >= 0 and codes.max() < levels.size):
        raise ValueError(f"CSV column {name!r}: codes must lie in [0, {levels.size}), got {codes.min()} to {codes.max()}")
    return _Levels(levels.astype(np.float64, copy=False), codes.astype(np.intp, copy=False))


def _csv_block(cols: list, slots: list, levels, table):
    # The cells of one block of rows, as every row's indices into ``table``, a table of
    # fixed-width cells kept for the file.  Its first rows are the file's levels, formatted
    # when the table is made: a level column's block holds its codes, and slots[j] is the
    # row of its first level.  Every other column is a level column whose levels are its
    # distinct cells in this block, formatted once and placed after the file's levels: the
    # float columns share one np.unique on their int64 view, which compares bit patterns, so
    # -0.0 and 0.0 and NaN payloads stay apart, and float_cells (_digits) left-justifies every
    # value in a field of one width with the bytes of "%.17g" and NUL padding; other columns'
    # cells are NUL-padded UTF-8.  Every table cell ends in ','.  The table is made anew when
    # the widest text cell of a block changes its width.
    kinds = [col.dtype.kind if slot is None else None for col, slot in zip(cols, slots)]
    floats = [j for j, kind in enumerate(kinds) if kind == "f"]
    index = np.empty((len(cols[0]), len(cols)), dtype=np.intp)
    for j in (j for j, slot in enumerate(slots) if slot is not None):
        np.add(cols[j], slots[j], out=index[:, j])
    keys = np.empty((len(index), len(floats)))
    for i, j in enumerate(floats):
        keys[:, i] = cols[j]
    distinct, inverse = np.unique(keys.view(np.int64), return_inverse=True)
    inverse += levels.size
    index[:, floats] = inverse.reshape(keys.shape)
    words, head = [], levels.size + distinct.size
    for j in (j for j, kind in enumerate(kinds) if kind not in ("f", None)):
        values, inverse = np.unique(cols[j], return_inverse=True)
        index[:, j] = inverse + (head + len(words))
        words += [(_CELL_FORMATS[kinds[j]] % v).encode("utf-8") for v in values.tolist()]
    width = max([_CELL_WIDTH] + [len(word) + 1 for word in words])
    if table.shape[1] != width:  # room for every cell of a block as long as this one: only the last is shorter
        table = np.empty((levels.size + len(index) * (len(kinds) - kinds.count(None)), width), np.uint8)
        float_cells(levels, table[: levels.size])
    float_cells(distinct.view(np.float64), table[levels.size : head])
    text = b"".join(w.ljust(width - 1, b"\0") + b"," for w in words)
    table[head : head + len(words)] = np.frombuffer(text, np.uint8).reshape(len(words), width)
    return table, index


def _write_csv(path: str, columns: dict) -> str:
    # Rows are formatted _CSV_BLOCK at a time (_csv_block) and written in pieces of at most
    # _CSV_PIECE bytes of cells: each piece gathers its cells into one buffer kept for the
    # file (grown only for a row longer than a piece), the last byte of every CSV row
    # becomes '\n', and dropping the NULs leaves the text.  A _Levels column's levels are
    # formatted once, for the first block.  Returns the sha256 of the bytes.
    cols = [_level_column(name, col) if isinstance(col, _Levels) else np.asarray(col) for name, col in columns.items()]
    lengths = [len(col.codes if isinstance(col, _Levels) else col) for col in cols]
    rows = min(lengths, default=0)
    if any(n != rows for n in lengths):
        raise ValueError(f"CSV columns differ in length: {dict(zip(columns, lengths))}")
    levels = [col.levels for col in cols if isinstance(col, _Levels)]
    starts = iter(np.cumsum([0] + [v.size for v in levels]).tolist())
    slots = [next(starts) if isinstance(col, _Levels) else None for col in cols]
    levels = np.concatenate([np.empty(0)] + levels)
    header = (",".join(columns) + "\n").encode("utf-8")
    digest = hashlib.sha256(header)
    buffer, table = np.empty(_CSV_PIECE, np.uint8), np.empty((0, 0), np.uint8)
    with open(path, "wb") as fh:
        fh.write(header)
        for lo in range(0, rows, _CSV_BLOCK):
            block = [(col.codes if isinstance(col, _Levels) else col)[lo : lo + _CSV_BLOCK] for col in cols]
            table, index = _csv_block(block, slots, levels, table)
            cells = table.view(f"V{table.shape[1]}").ravel()
            row_bytes = index.shape[1] * cells.itemsize
            step = max(1, _CSV_PIECE // row_bytes)
            if buffer.size < row_bytes:
                buffer = np.empty(row_bytes, np.uint8)
            for start in range(0, len(index), step):
                part = index[start : start + step]
                piece = buffer[: len(part) * row_bytes]
                np.take(cells, part, out=piece.view(cells.dtype).reshape(part.shape))
                piece[row_bytes - 1 :: row_bytes] = ord("\n")
                data = piece.tobytes().translate(None, b"\0")
                digest.update(data)
                fh.write(data)
    return digest.hexdigest()


# Environment variables that change numpy's SIMD dispatch or the OpenBLAS kernel, and so CSV bytes.
_DISPATCH_VARIABLES = ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


# OpenBLAS's report of the kernel it runs, in the 64-bit-int OpenBLAS of numpy 2 wheels and of numpy 1.22-1.26 wheels.
_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_")


def _blas_core() -> str | None:
    # The OpenBLAS core that runs here (DYNAMIC_ARCH builds pick one at load), from the OpenBLAS that numpy's
    # wheel bundles (numpy.libs on Linux and Windows, numpy/.dylibs on macOS); None where none reports it.
    root = os.path.dirname(np.__file__)
    folders = [folder for folder in (os.path.join(os.path.dirname(root), "numpy.libs"), os.path.join(root, ".dylibs"))
               if os.path.isdir(folder)]
    for path in [os.path.join(f, name) for f in folders for name in sorted(os.listdir(f)) if "openblas" in name]:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _CORENAME_SYMBOLS:
            corename = getattr(library, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                name = corename()
                return name.decode("ascii", "replace").strip() if name else None
    return None


@functools.cache
def _environment() -> dict:
    # What a run's bytes rest on besides its config, found once per process, at its first run.
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    build = (blas.get("name"), blas.get("version"), blas.get("openblas configuration"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "libc": " ".join(platform.libc_ver()).strip(),
        "blas": "; ".join(str(part).strip() for part in build if part) or "unknown",
        "blas_core": _blas_core(),
        "cpu_features": " ".join(name for name, enabled in __cpu_features__.items() if enabled),
        "dispatch_variables": {name: os.environ[name] for name in _DISPATCH_VARIABLES if name in os.environ},
    }


def run_experiment(config: ExperimentConfig, out: str | None = None) -> int:
    """Execute one experiment: write its CSV and manifest, return exit code.

    The manifest is written even when the computation fails, with the
    error recorded and status "error" (exit code 2).  When the directory
    of the CSV path does not exist or the path is itself a directory,
    nothing runs or is written (exit 1).
    """
    csv_path = out or config.out or f"{config.kind}.csv"
    folder = os.path.dirname(csv_path) or "."
    if not os.path.isdir(folder) or os.path.isdir(csv_path):
        problem = f"{csv_path!r} is a directory" if os.path.isdir(csv_path) else f"no such directory {folder!r}"
        print(f"heatfield {config.kind}: out: {problem}", file=sys.stderr)
        return 1
    manifest_path = csv_path + ".manifest.json"
    manifest = {
        "command": config.kind,
        "config": dict(sorted(config.params.items())),
        "library_version": __version__,
        "environment": _environment(),
        "csv": csv_path,
        "status": "ok",
        "error": None,
        "estimates": {},
    }
    started = time.perf_counter()
    try:
        columns, estimates = _RUNNERS[config.kind](config.params)
        manifest["csv_sha256"] = _write_csv(csv_path, columns)
        manifest["estimates"] = estimates
        code = 0
    except Exception as err:  # noqa: BLE001 - every library error maps to exit 2
        manifest["status"] = "error"
        manifest["error"] = f"{type(err).__name__}: {err}"
        print(f"heatfield {config.kind}: {manifest['error']}", file=sys.stderr)
        code = 2
    manifest["duration_seconds"] = time.perf_counter() - started
    with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use, not at import, and reused by every later main() call.
    parser = argparse.ArgumentParser(
        prog="heatfield",
        description="Branching Brownian motion experiments: analytic solvers vs Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in _SCHEMAS:
        s = sub.add_parser(kind, help=f"run the '{kind}' experiment")
        s.add_argument("--config", required=True, help="key = value config file")
        s.add_argument("--out", default=None, help="CSV output path (default <kind>.csv)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = parse_config(args.config, args.command)
    except (ParseError, ValidationError) as err:
        print(f"heatfield {args.command}: {err}", file=sys.stderr)
        return 1
    return run_experiment(config, args.out)


if __name__ == "__main__":
    sys.exit(main())
