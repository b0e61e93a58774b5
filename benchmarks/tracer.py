"""Outside-in span tracer for branchlab's public functions.

The tracer wraps each listed function by rebinding it in every
``branchlab.*`` module namespace that holds it (``verify`` and
``stat_tests`` import names with ``from .x import y``, so patching the
defining module alone would miss their calls), and wraps the
``IncrementDistribution`` methods on the class. Each call records a span
(name, start, end, parent span) and the work counters of that call, which
belong to the innermost open span: the call itself. Spans stay in memory
until ``summary`` and ``dump`` read them at the end of a run.

Worker processes are not traced: a pool forked while the tracer is
installed inherits the wrappers, but the spans they record die with the
worker.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs wrapped in every branchlab namespace that holds them.
FUNCTIONS = (
    ("cmj", "simulate_cmj"),
    ("cmj", "simulate_embedded_rrt"),
    ("cmj", "renewal_count_samples"),
    ("cmj", "count_generation"),
    ("recursive_tree", "generate_rrt"),
    ("recursive_tree", "depths_from_parents"),
    ("recursive_tree", "profile"),
    ("recursive_tree", "grow_and_record"),
    ("recursive_tree", "generate_parent_matrix"),
    ("recursive_tree", "level_counts_batch"),
    ("renewal", "renewal_function_grid"),
    ("renewal", "higher_renewal_grid"),
    ("fileio", "write_tree_csv"),
    ("fileio", "write_profile_path_csv"),
    ("fileio", "write_renewal_table_csv"),
    ("fileio", "write_manifest_json"),
    ("fileio", "atomic_write_text"),
    ("runner", "map_replicated"),
    ("stat_tests", "ks_one_sample"),
    ("stat_tests", "ks_two_sample"),
    ("stat_tests", "empirical_cov"),
    ("stat_tests", "functional_grid_test"),
    ("gaussian_limit", "build_cov_matrix"),
    ("gaussian_limit", "cov_rkl_integral"),
    ("gaussian_limit", "sample_limit"),
    ("verify", "verify_suite"),
    ("cli", "main"),
)

# IncrementDistribution methods, wrapped on the class; spans are named
# "distributions.<method>".
METHODS = ("sample", "cdf", "partial_mean")

SPAN_NAMES = tuple(f"distributions.{m}" for m in METHODS) + tuple(
    f"{mod}.{fn}" for mod, fn in FUNCTIONS
)

# Work counters that ``summary`` reports, with their units.
COUNTER_UNITS = {
    "distributions.sample.draws": "count",
    "cmj.simulate_cmj.events": "count",
    "cmj.simulate_cmj.increments_per_event": "draws/event",
    "recursive_tree.depths_from_parents.vertices": "count",
    "recursive_tree.level_counts_batch.cells": "count",
    "renewal.renewal_function_grid.cells": "count",
    "renewal.solve_nonlattice_s": "s",
    "renewal.solve_lattice_s": "s",
    "fileio.atomic_write_text.bytes": "B",
    "runner.map_replicated.replicates": "count",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counters per call, keyed by span name: f(args, kwargs, result) -> dict.
_COUNTERS = {
    "distributions.sample": lambda a, kw, r: {"draws": int(np.size(r))},
    "cmj.simulate_cmj": lambda a, kw, r: {"events": r.n_events},
    "recursive_tree.depths_from_parents": lambda a, kw, r: {"vertices": int(r.shape[0])},
    "recursive_tree.level_counts_batch": lambda a, kw, r: {
        "cells": int(np.size(_arg(a, kw, 0, "parents")))
    },
    "renewal.renewal_function_grid": lambda a, kw, r: {
        "cells": r.n_cells,
        "lattice": int(r.dist.lattice_span > 0),
    },
    "fileio.atomic_write_text": lambda a, kw, r: {"bytes": len(_arg(a, kw, 1, "text"))},
    "runner.map_replicated": lambda a, kw, r: {"replicates": int(r.shape[0])},
}


class Tracer:
    """Records spans for the listed branchlab functions while installed."""

    def __init__(self, only=None):
        self.only = None if only is None else set(only)
        self.spans = []  # (id, name, start, end, parent id or -1, counters)
        self._stack = []  # open span ids
        self._next_id = 0
        self._draws = 0  # running total of distributions.sample draws
        self._undo = []

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            draws_before = tracer._draws
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            if name == "distributions.sample":
                tracer._draws += counts["draws"]
            elif name == "cmj.simulate_cmj":
                counts["draws_inside"] = tracer._draws - draws_before
            tracer.spans.append((span_id, name, start, end, parent, counts))
            return result

        return traced

    def install(self):
        """Rebind every selected function in all loaded branchlab modules."""
        from branchlab.distributions import IncrementDistribution

        modules = [m for n, m in sys.modules.items() if n == "branchlab" or n.startswith("branchlab.")]
        for mod, fn_name in FUNCTIONS:
            name = f"{mod}.{fn_name}"
            if self.only is not None and name not in self.only:
                continue
            original = getattr(sys.modules[f"branchlab.{mod}"], fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        for method in METHODS:
            name = f"distributions.{method}"
            if self.only is not None and name not in self.only:
                continue
            original = IncrementDistribution.__dict__[method]
            setattr(IncrementDistribution, method, self._wrap(name, original))
            self._undo.append((IncrementDistribution, method, original))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self, n_ops: int) -> dict:
        """Per-span calls, self and total seconds, and COUNTER_UNITS, per operation."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        counts = defaultdict(float)
        solve = {0: 0.0, 1: 0.0}
        for span_id, name, start, end, _, c in self.spans:
            own = end - start - child_time[span_id]
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own
            for key, value in c.items():
                counts[f"{name}.{key}"] += value
            if name == "renewal.renewal_function_grid":
                solve[c["lattice"]] += own
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_s"] = self_s[name] / n_ops
            out[f"{name}.total_s"] = total[name] / n_ops
        for key in COUNTER_UNITS:
            out[key] = counts[key] / n_ops
        events = counts["cmj.simulate_cmj.events"]
        out["cmj.simulate_cmj.increments_per_event"] = (
            counts["cmj.simulate_cmj.draws_inside"] / events if events else 0.0
        )
        out["renewal.solve_nonlattice_s"] = solve[0] / n_ops
        out["renewal.solve_lattice_s"] = solve[1] / n_ops
        return out

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines, start times relative to the first."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as f:
            for span_id, name, start, end, parent, c in self.spans:
                f.write(json.dumps([span_id, name, start - t0, end - t0, parent, c]) + "\n")
