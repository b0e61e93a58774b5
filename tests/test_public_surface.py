"""Every public name resolves, and so does everything the bench tracer wraps or reads.

Also: public entry points refuse out-of-range times, powers, samples and
counts, every count, real and grid parameter has rows in that table, the
real and grid gates hold at their bounds, and start-up and the cmj,
stat_tests and errors modules load only the modules they need.
"""
import ast
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate  # noqa: F401  (loaded up front, so no row's time limit holds the import)
from scipy.special import ndtr

import branchlab
import branchlab.cli  # noqa: F401  (loads every branchlab module, as the bench does)
from branchlab.cmj import (
    count_generation,
    expected_event_count,
    generation_counts,
    renewal_count_samples,
    simulate_cmj,
    simulate_embedded_rrt,
)
from branchlab.distributions import IncrementDistribution, make_distribution
from branchlab.errors import CapExceededError, grid, real
from branchlab.gaussian_limit import (
    build_cov_matrix,
    cov_rkl,
    cov_rkl_integral,
    marginal_sd,
    sample_limit,
)
from branchlab.recursive_tree import (
    exact_profile_distribution,
    generate_parent_matrix,
    generate_rrt,
    grow_and_record,
    level1_moments,
    level_counts_batch,
)
from branchlab.renewal import (
    RenewalTable,
    abs_normal_moment,
    build_renewal_table,
    higher_renewal_grid,
    moment_ratio,
    renewal_function_grid,
    second_moment_rhs,
    uk_bound_check,
    uk_deviation_bound,
    yk3_exact,
)
from branchlab.rng import RngStream, mix64
from branchlab.runner import MAX_REPLICATES, map_replicated
from branchlab.stat_tests import functional_grid_test, ks_one_sample, ks_two_sample, normalize_cmj

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
TRACER = ROOT / "benchmarks" / "tracer.py"


def _tracer_constant(name):
    """A literal module-level constant of the tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER.name}")


def test_all_names_resolve():
    missing = [name for name in branchlab.__all__ if not hasattr(branchlab, name)]
    assert missing == []


def test_traced_functions_exist():
    missing = [
        f"{mod}.{fn}"
        for mod, fn in _tracer_constant("FUNCTIONS")
        if not callable(getattr(getattr(branchlab, mod, None), fn, None))
    ]
    assert missing == []
    for method in _tracer_constant("METHODS"):
        assert method in IncrementDistribution.__dict__


_EXP1 = make_distribution("exp(1)")
_TRAJ = simulate_cmj(_EXP1, 3.0, 2, RngStream(0, 1))
_COUNTS = [3.0, 2.0, 4.0]
_TABLE = build_renewal_table(_EXP1, 1.0, h=0.1, k_max=2)
_DEEP_TABLE = build_renewal_table(_EXP1, 1.0, h=0.1, k_max=200)  # 200! overflows a float


def _row(row_id, fn, *args, error=ValueError):
    return pytest.param(fn, args, error, id=row_id)


def _never(rng):
    raise AssertionError("a refused call ran its task")


_NOT_COUNTS = (2.5, math.nan, math.inf, True)
_COV = build_cov_matrix(1, (1.0,))
_PARENTS = np.zeros((2, 3), dtype=np.int64)

# Every count parameter of the public API, as "<callable>-<parameter>": a
# call with the value in its place, and the integers it must refuse too.
# Each is refused with every value of _NOT_COUNTS as well; workers above
# 1 never pass the gate, so no row starts a pool.
_COUNT_CALLS = {
    "RngStream-master_seed": (lambda v: RngStream(v), ()),
    "RngStream-stream_id": (lambda v: RngStream(0, v), ()),
    "mix64-parts": (lambda v: mix64(1, v), ()),
    "map_replicated-n_reps": (lambda v: map_replicated(_never, v, 0), (0, MAX_REPLICATES + 1)),
    "map_replicated-seed": (lambda v: map_replicated(_never, 4, v), ()),
    "map_replicated-workers": (lambda v: map_replicated(_never, 4, 0, workers=v), (0, -1)),
    "generate_rrt-n_plus_1": (lambda v: generate_rrt(v, RngStream(0)), (0,)),
    "generate_parent_matrix-n_batch": (lambda v: generate_parent_matrix(v, 3, RngStream(0)), (-1,)),
    "generate_parent_matrix-n_plus_1": (
        lambda v: generate_parent_matrix(2, v, RngStream(0)),
        (0, -1),
    ),
    "level_counts_batch-k_max": (lambda v: level_counts_batch(_PARENTS, v), (-1,)),
    "grow_and_record-n_base": (lambda v: grow_and_record(v, (1.0,), 2, RngStream(0)), (1,)),
    "grow_and_record-k_max": (lambda v: grow_and_record(10, (1.0,), v, RngStream(0)), (0,)),
    "exact_profile_distribution-n_plus_1": (lambda v: exact_profile_distribution(v), (0, 10)),
    "level1_moments-n": (lambda v: level1_moments(v), (-1,)),
    "simulate_cmj-k_max": (lambda v: simulate_cmj(_EXP1, 3.0, v, RngStream(0)), (0,)),
    "generation_counts-k_max": (
        lambda v: generation_counts(_EXP1, 3.0, v, (1.0,), RngStream(0)),
        (0,),
    ),
    "count_generation-k": (lambda v: count_generation(_TRAJ, v, 1.0), (0, 3)),
    "simulate_embedded_rrt-n": (lambda v: simulate_embedded_rrt(v, RngStream(0)), (-1,)),
    "renewal_count_samples-n_samples": (
        lambda v: renewal_count_samples(_EXP1, 1.0, v, RngStream(0)),
        (-1,),
    ),
    "expected_event_count-k_max": (lambda v: expected_event_count(_EXP1, 3.0, v), (-1,)),
    "cov_rkl-k": (lambda v: cov_rkl(v, 1, 0.5, 1.0), (0,)),
    "cov_rkl-l": (lambda v: cov_rkl(1, v, 0.5, 1.0), (0,)),
    "cov_rkl_integral-k": (lambda v: cov_rkl_integral(v, 1, 0.5, 1.0), (0,)),
    "cov_rkl_integral-l": (lambda v: cov_rkl_integral(1, v, 0.5, 1.0), (0,)),
    "marginal_sd-k": (lambda v: marginal_sd(v, 1.0), (0,)),
    "build_cov_matrix-k_max": (lambda v: build_cov_matrix(v, (0.5, 1.0)), (0,)),
    "sample_limit-n_samples": (lambda v: sample_limit(_COV, v, RngStream(0)), (0,)),
    "normalize_cmj-k": (lambda v: normalize_cmj(_COUNTS, 2.0, v, 1.0, 1.0), (0,)),
    "interp-k": (lambda v: _TABLE.interp(v, 0.5), (0,)),
    "integral-k": (lambda v: _TABLE.integral(v, 0.5), (0,)),
    "uk_bound_check-k": (lambda v: uk_bound_check(_TABLE, v), (0,)),
    "uk_deviation_bound-k": (lambda v: uk_deviation_bound(_TABLE, v), (-1,)),
    "second_moment_rhs-k": (lambda v: second_moment_rhs(_TABLE, v, 0.5), (1,)),
    "yk3_exact-k": (lambda v: yk3_exact(_TABLE, v, 0.5), (1,)),
    "higher_renewal_grid-k_max": (lambda v: higher_renewal_grid(_TABLE, v), (0,)),
    "build_renewal_table-k_max": (lambda v: build_renewal_table(_EXP1, 1.0, 0.1, v), (0,)),
}

_NOT_REALS = (math.nan, math.inf, -math.inf, True)


def _grid_test(t_grid, t=2.0, mu=1.0, sigma2=1.0):
    # counts shaped to the grid, so only the gate can refuse a grid
    return functional_grid_test(np.ones((8, 1, np.size(t_grid))), t_grid, t, mu, sigma2)


# Every real and grid parameter of the public API, as "<callable>-<parameter>":
# a call with the value in its place, and the values past its range it must
# refuse too (a strict lower bound refuses the bound itself). Each is
# refused with every value of _NOT_REALS as well. A grid takes each value
# as a one-entry grid, so True is a bool array (build_cov_matrix, which also
# takes a single time, gets the bare value), and where a grid must increase
# a decreasing one is among its out-of-range values.
_REAL_CALLS = {
    "cov_rkl-s": (lambda v: cov_rkl(1, 2, v, 1.0), (-1,)),
    "cov_rkl-u": (lambda v: cov_rkl(1, 2, 1.0, v), (-1,)),
    "cov_rkl_integral-s": (lambda v: cov_rkl_integral(1, 2, v, 1.0), (-1,)),
    "cov_rkl_integral-u": (lambda v: cov_rkl_integral(1, 2, 1.0, v), (-1,)),
    "marginal_sd-s": (lambda v: marginal_sd(1, v), (-1,)),
    # a scalar grid is still accepted here, and any order
    "build_cov_matrix-t_grid": (lambda v: build_cov_matrix(1, v), (-1,)),
    "normalize_cmj-t": (lambda v: normalize_cmj(_COUNTS, v, 1, 1.0, 1.0), (0, -1)),
    "normalize_cmj-mu": (lambda v: normalize_cmj(_COUNTS, 2.0, 1, v, 1.0), (0, -1)),
    "normalize_cmj-sigma2": (lambda v: normalize_cmj(_COUNTS, 2.0, 1, 1.0, v), (0, -1)),
    "normalize_cmj-s": (lambda v: normalize_cmj(_COUNTS, 2.0, 1, 1.0, 1.0, s=v), (-1,)),
    "functional_grid_test-t_grid": (
        lambda v: _grid_test(np.atleast_1d(v)),
        (0, -1, 1.5, (0.5, 0.25)),
    ),
    "functional_grid_test-t": (lambda v: _grid_test((1.0,), t=v), (0, -1)),
    "functional_grid_test-mu": (lambda v: _grid_test((1.0,), mu=v), (0, -1)),
    "functional_grid_test-sigma2": (lambda v: _grid_test((1.0,), sigma2=v), (0, -1)),
    "simulate_cmj-horizon": (lambda v: simulate_cmj(_EXP1, v, 2, RngStream(0)), (-1,)),
    "generation_counts-horizon": (
        lambda v: generation_counts(_EXP1, v, 2, (1.0,), RngStream(0)),
        (-1,),
    ),
    "generation_counts-fractions": (
        lambda v: generation_counts(_EXP1, 3.0, 2, np.atleast_1d(v), RngStream(0)),
        (-1, 1.5),
    ),
    # _TRAJ runs to horizon 3; an earlier time, even a negative one, counts
    "count_generation-t": (lambda v: count_generation(_TRAJ, 1, v), (3.5,)),
    "renewal_count_samples-t": (
        lambda v: renewal_count_samples(_EXP1, v, 10, RngStream(0)),
        (-1,),
    ),
    "renewal_function_grid-t_max": (lambda v: renewal_function_grid(_EXP1, v, 0.1), (0, -1)),
    "renewal_function_grid-h": (lambda v: renewal_function_grid(_EXP1, 1.0, v), (0, -1)),
    "build_renewal_table-t_max": (lambda v: build_renewal_table(_EXP1, v, 0.1, 2), (0, -1)),
    "build_renewal_table-h": (lambda v: build_renewal_table(_EXP1, 1.0, v, 2), (0, -1)),
    "moment_ratio-t": (lambda v: moment_ratio(_COUNTS, _EXP1, v, 2.0), (0, -1)),
    "moment_ratio-p": (lambda v: moment_ratio(_COUNTS, _EXP1, 3.0, v), (0.5, -1)),
    "grow_and_record-t_grid": (
        lambda v: grow_and_record(10, np.atleast_1d(v), 2, RngStream(0)),
        (-1, (0.5, 0.25)),
    ),
}

# The times a renewal table reads through _check_covers, which refuses NaN
# and times past the table (TableCoverageError) and reads 0 below 0.
_COVERED_TIMES = {
    "interp-t": lambda v: _TABLE.interp(1, v),
    "integral-t": lambda v: _TABLE.integral(1, v),
    "second_moment_rhs-t": lambda v: second_moment_rhs(_TABLE, 2, v),
    "yk3_exact-t": lambda v: yk3_exact(_TABLE, 2, v),
}

_REFUSALS = [
    _row("moment_ratio-p=400", moment_ratio, _COUNTS, _EXP1, 3.0, 400.0),
    _row("marginal_sd-k=1e6", marginal_sd, 10**6, 2.0),
    _row("normalize_cmj-k=171", normalize_cmj, _COUNTS, 2.0, 171, 1.0, 1.0),
    _row("normalize_cmj-t=1e200", normalize_cmj, _COUNTS, 1e200, 2, 1.0, 1.0),
    _row("normalize_cmj-mu=1e-200", normalize_cmj, _COUNTS, 2.0, 2, 1e-200, 1.0),
    # an infinite denominator must not pass as scale 0
    _row("normalize_cmj-sigma2=1e308", normalize_cmj, _COUNTS, 2.0, 1, 1e-10, 1e308),
    _row("grid_test-k_max=200", functional_grid_test, np.ones((8, 200, 1)), (1.0,), 2.0),
    _row("yk3_exact-k=200", yk3_exact, _DEEP_TABLE, 200, 1.0),
    _row("uk_bound_check-k=200", uk_bound_check, _DEEP_TABLE, 200),
    _row("uk_deviation_bound-k=200", uk_deviation_bound, _DEEP_TABLE, 200),
    _row("cov_rkl_integral-k=l=200", cov_rkl_integral, 200, 200, 10.0, 10.0),
    _row("abs_normal_moment-p=400", abs_normal_moment, 400.0, 1.0),
    _row("ks_two_sample-nan", ks_two_sample, [math.nan, 1.0, 2.0], [1.0, 2.0]),
    _row("ks_one_sample-inf", ks_one_sample, [math.inf, 1.0, 2.0], ndtr),
    # a cdf past [0, 1] used to give a statistic of NaN, or of 2
    _row("ks_one_sample-cdf=nan", ks_one_sample, [0.5, 1.0], lambda x: np.full_like(x, math.nan)),
    _row("ks_one_sample-cdf=2", ks_one_sample, [0.5, 1.0], lambda x: np.full_like(x, 2.0)),
    _row("normalize_cmj-counts=nan", normalize_cmj, [math.nan], 1.0, 1, 1.0, 1.0),
    *(
        _row(f"{name}={value}", call, value)
        for name, (call, out_of_range) in _COUNT_CALLS.items()
        for value in (*_NOT_COUNTS, *out_of_range)
    ),
    *(
        _row(f"{name}={value}", call, value)
        for name, (call, out_of_range) in _REAL_CALLS.items()
        for value in (*_NOT_REALS, *out_of_range)
    ),
    *(_row(f"{name}=nan", call, math.nan) for name, call in _COVERED_TIMES.items()),
    # this loop used to run 2**62 times
    _row(
        "expected_event_count-k_max=2**62",
        expected_event_count, _EXP1, 3.0, 2**62,
        error=CapExceededError,
    ),
    # an int64 count used to wrap these cap products: the first two ran on
    # past 20 s, the last asked for 32 GiB
    _row(
        "build_cov_matrix-k_max=int64(2**62)",
        build_cov_matrix, np.int64(2**62), (0.5, 1.0, 0.25, 0.75),
        error=CapExceededError,
    ),
    _row(
        "build_renewal_table-k_max=int64(2**62)",
        build_renewal_table, _EXP1, 1.0, 0.1, np.int64(2**62),
        error=CapExceededError,
    ),
    _row(
        "generate_parent_matrix-int64(2**32)-trees-of-int64(2**32+1)",
        generate_parent_matrix, np.int64(2**32), np.int64(2**32 + 1), RngStream(0),
        error=CapExceededError,
    ),
]


@pytest.mark.parametrize("fn, args, error", _REFUSALS)
def test_out_of_range_times_and_powers_are_refused(fn, args, error, time_limit):
    with time_limit(1), pytest.raises(error):
        fn(*args)


# the parameter names that hold a count anywhere in the public API
_COUNT_NAMES = {
    "k", "l", "k_max", "n", "n_plus_1", "n_batch", "n_base", "n_samples",
    "n_reps", "seed", "workers", "master_seed", "stream_id", "parts",
}
# the parameter names that hold a real scalar (a time, power or moment) or
# a grid of them anywhere in the public API
_REAL_NAMES = {
    "s", "u", "t", "horizon", "mu", "sigma2", "p", "h", "t_max", "t_grid", "fractions",
}


def _parameters(names, extra):
    """"<callable>-<parameter>" for each parameter in names of a public callable or of extra."""
    # a dataclass holds values and checks none (the call that reads a field
    # gates it), and the exception types take no arguments to gate
    public = [
        obj
        for obj in map(partial(getattr, branchlab), branchlab.__all__)
        if callable(obj)
        and not dataclasses.is_dataclass(obj)
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    ]
    return {
        f"{fn.__name__}-{param}"
        for fn in public + extra
        for param in inspect.signature(fn).parameters
        if param in names
    }


def test_every_count_parameter_has_refusal_rows():
    extra = [RenewalTable.interp, RenewalTable.integral, uk_deviation_bound, expected_event_count]
    counts = _parameters(_COUNT_NAMES, extra)
    assert len(counts) >= 30
    # a count without rows, or rows naming no count, fails here
    assert sorted(counts ^ _COUNT_CALLS.keys()) == []


def test_every_real_parameter_has_refusal_rows():
    reals = _parameters(_REAL_NAMES, [RenewalTable.interp, RenewalTable.integral])
    assert len(reals) >= 30
    # a real or grid without rows, or rows naming none, fails here
    assert sorted(reals ^ (_REAL_CALLS.keys() | _COVERED_TIMES.keys())) == []


def test_real_and_grid_hold_at_their_bounds():
    assert real(0, "x", 0) == 0.0 and type(real(np.int64(3), "x")) is float
    assert real(np.array(2.5), "x", 0, 2.5) == 2.5  # a 0-d array, at a closed top
    assert real(5e-324, "x", 0, above=True) == 5e-324
    assert real(2**63, "x") == 2.0**63  # numpy holds it as uint64
    with pytest.raises(ValueError, match="x must be positive"):
        real(0.0, "x", 0, above=True)
    for bad in (math.nan, math.inf, -math.inf, True, np.True_, "1", [1.0], np.ones(1), None, 2**64):
        with pytest.raises(ValueError, match="x must"):
            real(bad, "x")
    for args in ((math.nextafter(1.0, 2.0), "x", 0, 1), (-5e-324, "x", 0)):
        with pytest.raises(ValueError, match="x must"):
            real(*args)

    out = grid([0, 0.5, 1], "g", 0, 1, increasing=True)
    assert out.dtype == np.float64 and out.tolist() == [0.0, 0.5, 1.0]
    assert grid((1.0, 0.5), "g", 0, 1).tolist() == [1.0, 0.5]  # any order unless increasing
    assert grid([5e-324], "g", 0, 1, above=True).tolist() == [5e-324]
    past = ([0.5, 1.5], [-5e-324], [0.5, math.nan], [0.5, math.inf])
    for values in ([], 0.5, [[0.5]], [True], ["0.5"], [None], *past):
        with pytest.raises(ValueError, match="g "):
            grid(values, "g", 0, 1)
    with pytest.raises(ValueError, match=r"g entries must be finite and in \(0, 1\]"):
        grid([0.0, 0.5], "g", 0, 1, above=True)
    for values in ([0.5, 0.5], [0.5, 0.25]):
        with pytest.raises(ValueError, match="g must be strictly increasing"):
            grid(values, "g", 0, 1, increasing=True)


def test_counter_attributes_exist():
    # the result attributes that the tracer's work counters read
    law = make_distribution("exp(1)")
    traj = simulate_cmj(law, 3.0, 2, RngStream(0, 0))
    assert traj.n_events == sum(t.shape[0] for t in traj.times)
    table = renewal_function_grid(law, 1.0, h=0.1)
    assert table.n_cells == 10
    assert table.dist.lattice_span == 0.0


_NO_SCIPY_PROBE = """
import contextlib, io, json, sys
from branchlab import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = [scipy_modules()]
out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    seen.append(cli.main(["gen-tree", "--n", "1000", "--output-dir", out]))
    seen.append(cli.main(["profile-path", "--n-base", "1000", "--output-dir", out]))
seen.append(scipy_modules())
print(json.dumps(seen))
"""


def test_start_up_and_tree_commands_load_no_scipy(tmp_path):
    # scipy serves only the registry's closed-form checks and costs about 0.6 s
    # of start-up, so its modules load inside the functions that call them
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert json.loads(out.stdout) == [[], 0, 0, []]
    assert len(list(tmp_path.iterdir())) == 2


_IMPORT_PROBE = """
import importlib, sys, types
# the package's __init__ imports every module, so map the package path
# without running it and import the one module alone
package = types.ModuleType("branchlab")
package.__path__ = [sys.argv[1] + "/branchlab"]
sys.modules["branchlab"] = package
importlib.import_module(sys.argv[2])
print(sorted(m for m in sys.modules if m.startswith("branchlab.")))
"""


def _modules_loaded_by(module):
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, SRC, module],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = ast.literal_eval(out.stdout)
    assert module in loaded
    return loaded


def test_cmj_does_not_import_renewal():
    assert "branchlab.renewal" not in _modules_loaded_by("branchlab.cmj")


def test_stat_tests_imports_no_simulator():
    # the grid test scores counts its callers draw
    loaded = _modules_loaded_by("branchlab.stat_tests")
    for simulator in ("branchlab.cmj", "branchlab.recursive_tree", "branchlab.runner"):
        assert simulator not in loaded


def test_errors_is_a_leaf_module():
    # every module gates its closed forms through errors.finite, so errors
    # must import no other branchlab module or it would close an import cycle
    assert _modules_loaded_by("branchlab.errors") == ["branchlab.errors"]
