"""Every public name resolves, and so does everything the bench tracer wraps or reads.

Also: public entry points refuse out-of-range times, powers and samples,
and start-up and the cmj and stat_tests modules load only the modules they
need.
"""
import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import branchlab
import branchlab.cli  # noqa: F401  (loads every branchlab module, as the bench does)
from branchlab.cmj import count_generation, simulate_cmj
from branchlab.distributions import IncrementDistribution, make_distribution
from branchlab.gaussian_limit import marginal_sd
from branchlab.renewal import (
    build_renewal_table,
    moment_ratio,
    renewal_function_grid,
    second_moment_rhs,
    uk_bound_check,
    yk3_exact,
)
from branchlab.rng import RngStream
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


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(count_generation, (_TRAJ, 1, math.nan), id="count_generation-t=nan"),
        pytest.param(count_generation, (_TRAJ, 1, math.inf), id="count_generation-t=inf"),
        pytest.param(count_generation, (_TRAJ, 1, -math.inf), id="count_generation-t=-inf"),
        pytest.param(marginal_sd, (1, math.nan), id="marginal_sd-s=nan"),
        pytest.param(marginal_sd, (1, math.inf), id="marginal_sd-s=inf"),
        pytest.param(moment_ratio, (_COUNTS, _EXP1, 0.0, 2.0), id="moment_ratio-t=0"),
        pytest.param(moment_ratio, (_COUNTS, _EXP1, -1.0, 2.0), id="moment_ratio-t=-1"),
        pytest.param(moment_ratio, (_COUNTS, _EXP1, math.nan, 2.0), id="moment_ratio-t=nan"),
        pytest.param(moment_ratio, (_COUNTS, _EXP1, math.inf, 2.0), id="moment_ratio-t=inf"),
        pytest.param(moment_ratio, (_COUNTS, _EXP1, 3.0, math.nan), id="moment_ratio-p=nan"),
        pytest.param(moment_ratio, (_COUNTS, _EXP1, 3.0, math.inf), id="moment_ratio-p=inf"),
        pytest.param(moment_ratio, (_COUNTS, _EXP1, 3.0, 400.0), id="moment_ratio-p=400"),
        pytest.param(marginal_sd, (10**6, 2.0), id="marginal_sd-k=1e6"),
        pytest.param(normalize_cmj, (_COUNTS, 2.0, 171, 1.0, 1.0), id="normalize_cmj-k=171"),
        pytest.param(normalize_cmj, (_COUNTS, 1e200, 2, 1.0, 1.0), id="normalize_cmj-t=1e200"),
        pytest.param(normalize_cmj, (_COUNTS, 2.0, 2, 1e-200, 1.0), id="normalize_cmj-mu=1e-200"),
        pytest.param(
            functional_grid_test, (np.ones((8, 200, 1)), (1.0,), 2.0), id="grid_test-k_max=200"
        ),
        pytest.param(yk3_exact, (_DEEP_TABLE, 200, 1.0), id="yk3_exact-k=200"),
        pytest.param(uk_bound_check, (_DEEP_TABLE, 200), id="uk_bound_check-k=200"),
        pytest.param(_TABLE.interp, (1, math.nan), id="interp-t=nan"),
        pytest.param(_TABLE.integral, (1, math.nan), id="integral-t=nan"),
        pytest.param(second_moment_rhs, (_TABLE, 2, math.nan), id="second_moment_rhs-t=nan"),
        pytest.param(yk3_exact, (_TABLE, 2, math.nan), id="yk3_exact-t=nan"),
        pytest.param(ks_two_sample, ([math.nan, 1.0, 2.0], [1.0, 2.0]), id="ks_two_sample-nan"),
        pytest.param(ks_one_sample, ([math.inf, 1.0, 2.0], ndtr), id="ks_one_sample-inf"),
    ],
)
def test_out_of_range_times_and_powers_are_refused(fn, args):
    with pytest.raises(ValueError):
        fn(*args)

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
