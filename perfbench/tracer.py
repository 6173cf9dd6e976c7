"""Span tracer that wraps heatfield's public functions from outside.

Each target is patched in the namespace where its caller looks it up:
``dyson.retarded_propagator_heat`` because dyson imports that name
directly, ``montecarlo.simulate_branching`` and ``derive_stream`` because
the estimators read them as module globals, ``cli.parse_config`` because
``cli.main`` does.  A target that a later version of the library no longer
binds is skipped, and its metrics read 0.

Spans live in memory as (id, parent id, operation id, name, start, end)
and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
import types
from collections import defaultdict

import numpy as np

# namespace -> names wrapped there.  Leaf helpers called in tight inner
# loops (heat_kernel, the pring arithmetic) are left unwrapped so that
# their cost stays in the self time of the span that calls them.
TARGETS = {
    "cli": ("main", "parse_config", "run_experiment"),
    "montecarlo": (
        "derive_stream",
        "simulate_branching",
        "sample_extinction_times",
        "estimate_extinction",
        "estimate_generating_function",
        "estimate_mckean_product",
        "feynman_kac_estimate",
        "lifetime_ks",
    ),
    "dyson": (
        "one_point_closed_form",
        "one_point_ode",
        "one_point_picard",
        "extinction_probability",
        "mass_curve",
        "two_point_picard",
        "two_point_residual",
        "retarded_propagator_heat",
    ),
    "kernels": ("apply_semigroup", "event_probability"),
    "pring": ("self_check",),
}

# Call arguments summed into counters of the same name, per span name.
_ARG_COUNTERS = ("replicas", "cases")


def _result_counters(name, result):
    if name == "montecarlo.simulate_branching":
        return {"events": len(result.events)}
    if name == "montecarlo.sample_extinction_times":
        return {"survivors": int(np.sum(np.isinf(result)))}
    if name == "dyson.two_point_picard":
        return {"cells": int(np.asarray(result.values).size)}
    return {}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.counters = defaultdict(lambda: defaultdict(int))
        self._stack = [-1]
        self._next_id = 0
        self._saved = []
        self.op_id = -1
        self.enabled = False  # spans are recorded only inside operation()

    def install(self):
        for module_name, names in TARGETS.items():
            module = getattr(self.package, module_name)
            for name in names:
                fn = getattr(module, name, None)
                if isinstance(fn, types.FunctionType):
                    self._saved.append((module, name, fn))
                    setattr(module, name, self._wrap(f"{module_name}.{name}", fn))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _name_index(self, label):
        if label not in self._index:
            self._index[label] = len(self.names)
            self.names.append(label)
        return self._index[label]

    @contextlib.contextmanager
    def operation(self, op_id):
        """Record spans for one benchmark operation, under a root span ``op``."""
        self.op_id, self.enabled = op_id, True
        token = self._open()
        try:
            yield
        finally:
            self._close(token, self._name_index("op"))
            self.enabled = False

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, token, index):
        end = time.perf_counter()
        sid, parent, start = token
        self._stack.pop()
        self.spans.append((sid, parent, self.op_id, index, start, end))

    def _wrap(self, label, fn):
        index = self._name_index(label)
        signature = inspect.signature(fn)
        counted = [p for p in _ARG_COUNTERS if p in signature.parameters]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            token = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(token, index)
            counts = self.counters[label]
            if counted:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for param in counted:
                    counts[param] += int(bound.arguments[param])
            for counter, value in _result_counters(label, result).items():
                counts[counter] += value
            return result

        return wrapper

    def summary(self):
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        covered = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            covered[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _, _, index, start, end in self.spans:
            entry = out[self.names[index]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered.get(sid, 0.0)
        return out

    def write(self, path):
        spans = np.array(self.spans, dtype=float).reshape(-1, 6)
        ids = spans[:, :4].astype(np.int64)
        np.savez_compressed(
            path,
            span_id=ids[:, 0],
            parent_id=ids[:, 1],
            op_id=ids[:, 2],
            name_index=ids[:, 3],
            names=np.array(self.names),
            start_s=spans[:, 4],
            end_s=spans[:, 5],
        )
