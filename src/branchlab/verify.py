"""The one-shot verification suite.

Every check the package makes about its own mathematics lives here as a
named registry entry with an explicit numeric budget. verify_suite runs
the registry in order and returns a manifest dictionary; the manifest
embeds a hash of its seed-determined core, so two runs with the same
master seed must agree byte for byte no matter how many workers they
used.

Budgets are engineering choices sized so that a correct implementation
passes with wide margin at the configured sample sizes; quick mode cuts
the sample sizes and records correspondingly widened budgets.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial

import numpy as np

from ._version import __version__
from .cmj import (
    _embedded_parent_matrix,
    _walk_sums,
    generation_counts,
    renewal_count_samples,
)
from .distributions import make_distribution
from .errors import BranchLabError
from .fileio import canonical_json_bytes
from .gaussian_limit import _factor, build_cov_matrix, cov_rkl, cov_rkl_integral, sample_limit
from .recursive_tree import (
    exact_profile_distribution,
    generate_parent_matrix,
    level1_moments,
    level_counts_batch,
)
from .renewal import (
    build_renewal_table,
    lorden_check,
    moment_ratio,
    second_moment_rhs,
    uk_bound_check,
    yk3_exact,
)
from .rng import mix64
from .runner import map_replicated, shared_pool
from .stat_tests import empirical_cov, functional_grid_test, ks_two_sample, max_dev_se

_TWO_SAMPLE_CRIT = 1.9495  # sqrt(-ln(alpha/2)/2) at alpha = 0.001


@dataclass(frozen=True)
class VerifyConfig:
    master_seed: int = 42
    workers: int = 1
    quick: bool = False


def _entry(name: str, statistic, budget, gating: bool, p_value=None, n_eff=None, details=None):
    """One result named within its group; a None statistic marks it skipped, and not passed."""
    stat = None if statistic is None else float(statistic)
    ok = (
        stat is not None
        and math.isfinite(stat)
        and budget is not None
        and stat <= budget
    )
    return {
        "name": name,
        "statistic": _json_number(stat),
        "budget": _json_number(budget),
        "p_value": _json_number(p_value),
        "n_eff": _json_number(n_eff),
        "pass": bool(ok),
        "gating": bool(gating),
        "skipped": stat is None,
        "details": {
            key: _json_number(v) if isinstance(v, float) else v
            for key, v in (details or {}).items()
        },
    }


def _json_number(x):
    """x as a float, or None for None, NaN and infinities, which strict JSON lacks."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# replicate tasks (module level so worker processes can unpickle them)


def _tree_batch_task(rng, n_plus_1, k_hi, n_trees):
    """Levels 1..k_hi of n_trees uniform trees of n_plus_1 vertices, one int64 row each."""
    parents = generate_parent_matrix(n_trees, n_plus_1, rng)
    return level_counts_batch(parents, k_hi)


def _embedding_task(rng, n, k_hi, n_trees):
    """Levels 1..k_hi of n_trees uniform-attachment and n_trees clock-grown trees, side by side."""
    direct = _tree_batch_task(rng, n + 1, k_hi, n_trees)
    emb = level_counts_batch(_embedded_parent_matrix(n_trees, n, rng), k_hi)
    return np.hstack([direct, emb])


_TV_SIZES = range(3, 8)


def _small_trees_task(rng, n_trees):
    """Level counts 1..n of n_trees trees at each size n + 1 in _TV_SIZES, side by side.

    int8 holds every count (at most 6) and keeps the stacked replicates small.
    """
    levels = [_tree_batch_task(rng, n1, n1 - 1, n_trees) for n1 in _TV_SIZES]
    return np.hstack(levels).astype(np.int8)


def _limit_task(rng, cov, n_samples):
    return sample_limit(cov, n_samples, rng).samples


def _probe_task(rng, dist, horizon, n):
    counts = generation_counts(dist, horizon, 2, (1.0,), rng)[:, 0]
    levels = _tree_batch_task(rng, n + 1, 2, 1)[0]
    return np.hstack([counts, levels, rng.random()])  # float64, as rng.random() is


# ---------------------------------------------------------------------------
# registry tests


def _test_cov_closed_form(cfg, seed):
    orders = range(1, 6)
    times = (0.5, 1.0, 2.0)
    worst_int = 0.0
    for k in orders:
        for l in orders:
            for s in times:
                for u in times:
                    dev = abs(cov_rkl(k, l, s, u) - cov_rkl_integral(k, l, s, u))
                    worst_int = max(worst_int, dev)
    worst_unit = max(
        abs(cov_rkl(k, l, 1.0, 1.0) - 1.0 / (k + l - 1)) for k in orders for l in orders
    )
    worst_diag = 0.0
    for k in orders:
        for s in times:
            target = s ** (2 * k - 1) / (2 * k - 1)
            worst_diag = max(worst_diag, abs(cov_rkl(k, k, s, s) - target) / target)
    return [
        _entry("vs_quadrature", worst_int, 1e-10, True),
        _entry("unit_time_identity", worst_unit, 1e-12, True),
        _entry("diagonal_relative", worst_diag, 1e-12, True),
    ]


def _ks_entry(name, rep, budget, gating, details):
    return _entry(
        name, rep.statistic, budget, gating, p_value=rep.p_value, n_eff=rep.n_eff, details=details
    )


def _test_embedding_ks(cfg, seed):
    n, k_hi = 500, 3
    m = 1000 if cfg.quick else 5000
    task = partial(_embedding_task, n=n, k_hi=k_hi, n_trees=200)
    rows = map_replicated(task, m // 200, seed, workers=cfg.workers).reshape(m, 2 * k_hi)
    budget = _TWO_SAMPLE_CRIT * math.sqrt(2.0 / m)
    return [
        _ks_entry(
            f"level{k}",
            ks_two_sample(rows[:, k - 1], rows[:, k_hi + k - 1]),
            budget,
            True,
            {"n": n, "n_reps": m},
        )
        for k in range(1, k_hi + 1)
    ]


def _unit_fraction_entries(cfg, seed, budget, gating, details, task, t, mu=1.0, sigma2=1.0):
    """KS entries for the levels 1 and 2 marginals at the full horizon or size.

    task draws one replicate's levels 1 and 2 at fraction 1, as (2, 1) or (1, 2) counts.
    """
    m = 400 if cfg.quick else 2000
    raw = map_replicated(task, m, seed, workers=cfg.workers).reshape(m, 2, 1)
    report = functional_grid_test(raw, (1.0,), t, mu, sigma2)
    return [
        _ks_entry(f"k{k}", rep, budget, gating, {**details, "n_reps": m})
        for (k, _), rep in report.marginals.items()
    ]


def _test_cmj_clt(descriptor, cfg, seed):
    dist = make_distribution(descriptor)
    horizon = 200.0
    budget = 0.12 if cfg.quick else 0.08
    details = {"horizon": horizon, "law": dist.descriptor}
    task = partial(generation_counts, dist, horizon, 2, (1.0,))
    return _unit_fraction_entries(
        cfg, seed, budget, True, details, task, horizon, dist.mu, dist.sigma2
    )


def _test_functional_grid_exp(cfg, seed):
    m = 400 if cfg.quick else 2000
    marg_budget = 0.12 if cfg.quick else 0.08
    dist, horizon, grid = make_distribution("exp(1)"), 200.0, (0.5, 1.0)
    task = partial(generation_counts, dist, horizon, 2, grid)
    raw = map_replicated(task, m, seed, workers=cfg.workers)
    report = functional_grid_test(raw, grid, horizon, dist.mu, dist.sigma2)
    details = {
        "n_reps": m,
        "grid": list(grid),
        "min_marginal_p": report.min_marginal_p,
    }
    return [
        _entry(
            "marginal_worst",
            report.max_marginal_stat,
            marg_budget,
            True,
            p_value=report.min_marginal_p,
            n_eff=m,
            details=details,
        ),
        _entry("cov_dev_se", report.max_cov_dev_se, 4.0, True, n_eff=m, details={"n_reps": m}),
    ]


def _test_profile_small_n_tv(cfg, seed):
    m = 20_000 if cfg.quick else 100_000
    budget = 0.02 if cfg.quick else 0.01
    task = partial(_small_trees_task, n_trees=2000)
    rows = map_replicated(task, m // 2000, seed, workers=cfg.workers).reshape(m, -1)
    out = []
    lo = 0
    for n_plus_1 in _TV_SIZES:
        exact = exact_profile_distribution(n_plus_1)
        k_hi = n_plus_1 - 1
        # A level holds at most k_hi vertices, so base-n_plus_1 codes keep the
        # rows' lexicographic order and tally as plain integers.
        powers = n_plus_1 ** np.arange(k_hi - 1, -1, -1, dtype=np.int64)
        codes, tallies = np.unique(rows[:, lo : lo + k_hi] @ powers, return_counts=True)
        keys = codes[:, None] // powers % n_plus_1
        lo += k_hi
        emp = {tuple(int(v) for v in row): c / m for row, c in zip(keys, tallies)}
        support = set(exact) | set(emp)
        tv = 0.5 * sum(abs(emp.get(p, 0.0) - exact.get(p, 0.0)) for p in support)
        details = {"support_exact": len(exact)}
        out.append(_entry(f"n{n_plus_1}", tv, budget, True, n_eff=m, details=details))
    return out


def _test_level1_moments(cfg, seed):
    n = 10_000
    m = 800 if cfg.quick else 4000
    mean_exact, var_exact = level1_moments(n)
    task = partial(_tree_batch_task, n_plus_1=n + 1, k_hi=1, n_trees=200)
    counts = map_replicated(task, m // 200, seed, workers=cfg.workers).ravel()
    mean_emp = float(counts.mean())
    var_emp = float(counts.var(ddof=1))
    centered = counts - mean_emp
    se_mean = float(counts.std(ddof=1)) / math.sqrt(m)
    m4 = float(np.mean(centered**4))
    se_var = math.sqrt(max(m4 - var_emp**2, 0.0) / m)
    return [
        _entry(
            "mean_dev_se",
            abs(mean_emp - mean_exact) / se_mean,
            4.0,
            True,
            n_eff=m,
            details={"n": n, "mean_exact": mean_exact, "mean_emp": mean_emp},
        ),
        _entry(
            "var_dev_se",
            abs(var_emp - var_exact) / se_var,
            4.0,
            True,
            n_eff=m,
            details={"n": n, "var_exact": var_exact, "var_emp": var_emp},
        ),
    ]


def _test_limit_sampler_cov(cfg, seed):
    m = 5000 if cfg.quick else 20_000
    cov = build_cov_matrix(3, (0.5, 1.0))
    task = partial(_limit_task, cov=cov, n_samples=1000)
    draws = map_replicated(task, m // 1000, seed, workers=cfg.workers).reshape(m, cov.dim)
    emp, se = empirical_cov(draws)
    details = {"dim": cov.dim, "jitter": _factor(cov.matrix)[1]}
    return [_entry("dev_se", max_dev_se(emp, cov.matrix, se), 4.0, True, n_eff=m, details=details)]


def _test_renewal_exp(cfg, seed):
    dist = make_distribution("exp(1)")
    table = build_renewal_table(dist, 50.0, h=0.01, k_max=2)
    t = table.grid
    u1_dev = float(np.max(np.abs(table.uk[0] - t)))
    u2_dev = float(np.max(np.abs(table.uk[1] - t**2 / 2.0)))
    yk3_worst = max(abs(yk3_exact(table, 2, x)) for x in (5.0, 12.5, 25.0, 37.5, 50.0))
    return [
        _entry("u1_dev", u1_dev, 0.1, True),
        _entry("u2_dev", u2_dev, 0.5, True),
        _entry("drift_term_zero", yk3_worst, 1e-3, True),
    ]


def _test_renewal_gamma(cfg, seed):
    dist = make_distribution("gamma(2,2)")
    table = build_renewal_table(dist, 50.0, h=0.01, k_max=3)
    tol = 1e-3
    lo, hi = lorden_check(table)
    band_violation = max(-1.0 - lo, hi - dist.sigma2 / dist.second_moment)
    return [
        _entry("lorden_band", band_violation, tol, True, details={"min_dev": lo, "max_dev": hi}),
        _entry("uk_bound_k2", uk_bound_check(table, 2), tol, True),
        _entry("uk_bound_k3", uk_bound_check(table, 3), tol, True),
    ]


def _shot_noise_squares(dist, table, k, t, m, rng):
    """m independent draws of (sum_j U_{k-1}(t - S_j) 1{S_j <= t})^2."""
    total = np.zeros(m)
    for rows, sums in _walk_sums(dist, rng, np.full(m, t)):
        np.add.at(total, rows, np.interp(t - sums, table.grid, table.uk[k - 2]))
    return total**2


def _test_second_moment_identity(cfg, seed):
    dist = make_distribution("exp(1)")
    k, t = 2, 5.0
    target = 625.0 / 4.0 + 125.0 / 3.0
    table = build_renewal_table(dist, t, h=0.01, k_max=k)
    rhs = second_moment_rhs(table, k, t)
    m = 20_000 if cfg.quick else 100_000
    task = partial(_shot_noise_squares, dist, table, k, t, 5000)
    vals = map_replicated(task, m // 5000, seed, workers=cfg.workers).ravel()
    mc, se = float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(m)
    return [
        _entry(
            "grid_vs_closed_form",
            abs(rhs - target),
            0.01,
            True,
            details={"rhs": rhs, "closed_form": target},
        ),
        _entry(
            "mc_dev_se",
            abs(mc - rhs) / se,
            3.0,
            True,
            n_eff=m,
            details={"mc": mc, "rhs": rhs, "se": se},
        ),
    ]


def _moment_ratio_entries(descriptor, t, halfwidth_full, halfwidth_quick, cfg, seed):
    dist = make_distribution(descriptor)
    m = 5000 if cfg.quick else 20_000
    half = halfwidth_quick if cfg.quick else halfwidth_full
    task = partial(renewal_count_samples, dist, t, 1000)
    counts = map_replicated(task, m // 1000, seed, workers=cfg.workers).ravel()
    ratio = moment_ratio(counts, dist, t, 2.0)
    details = {"ratio": ratio, "t": t, "p": 2.0, "law": descriptor}
    return [_entry("ratio", abs(ratio - 1.0), half, True, n_eff=m, details=details)]


def _test_worker_determinism(cfg, seed):
    task = partial(_probe_task, dist=make_distribution("exp(1)"), horizon=4.0, n=200)
    reps = 48
    serial = map_replicated(task, reps, seed, workers=1)
    pooled = map_replicated(task, reps, seed, workers=max(2, min(cfg.workers, 4)))
    same = serial.tobytes() == pooled.tobytes()
    details = {"replicates": reps}
    return [_entry("probe", 0.0 if same else 1.0, 0.0, True, n_eff=reps, details=details)]


def _test_tree_profile_direct(cfg, seed):
    n_plus_1 = 100_001
    details = {"n": n_plus_1 - 1, "informational": True}
    task = partial(_tree_batch_task, n_plus_1=n_plus_1, k_hi=2, n_trees=1)
    # a tree of n + 1 vertices is the exp(1) process at time ln n
    t = math.log(n_plus_1 - 1)
    return _unit_fraction_entries(cfg, seed, 0.15, False, details, task, t)


_REGISTRY = (
    ("cov_closed_form", _test_cov_closed_form),
    ("embedding_ks", _test_embedding_ks),
    ("cmj_clt_exp", partial(_test_cmj_clt, "exp(1)")),
    ("cmj_clt_gamma", partial(_test_cmj_clt, "gamma(2,2)")),
    ("functional_grid_exp", _test_functional_grid_exp),
    ("profile_small_n_tv", _test_profile_small_n_tv),
    ("level1_moments", _test_level1_moments),
    ("limit_sampler_cov", _test_limit_sampler_cov),
    ("renewal_exp", _test_renewal_exp),
    ("renewal_gamma", _test_renewal_gamma),
    ("second_moment_identity", _test_second_moment_identity),
    ("moment_ratio_exp", partial(_moment_ratio_entries, "exp(1)", 200.0, 0.05, 0.10)),
    ("moment_ratio_gamma", partial(_moment_ratio_entries, "gamma(2,2)", 500.0, 0.07, 0.12)),
    ("worker_determinism", _test_worker_determinism),
    ("tree_profile_direct", _test_tree_profile_direct),
)


def verify_suite(cfg: VerifyConfig) -> dict:
    """Run the full registry and assemble the manifest.

    The per-test seed is mix64(master_seed, ordinal), so inserting new
    tests at the end never reshuffles existing results. The manifest's
    determinism_hash covers only seed-determined content (config core,
    results, summary); wall time, each group's wall time and the worker
    count live outside the hash. With cfg.workers > 1 every group runs in
    one worker pool, shut down when the run ends.

    A group is named only by its _REGISTRY key, the key of group_wall_s:
    its entries enter the manifest as "<group>.<name>", or as the one
    "<group>.skipped" when it raises BranchLabError or MemoryError.
    """
    started = time.monotonic()
    # scipy (about 0.5 s) loads here, not in the first group that calls it, so
    # no group's wall time holds the import and forked workers inherit it.
    import scipy.integrate
    import scipy.special

    results = []
    group_wall_s = {}
    with shared_pool(cfg.workers):
        for ordinal, (group, fn) in enumerate(_REGISTRY):
            test_seed = mix64(cfg.master_seed, ordinal)
            group_started = time.monotonic()
            try:
                entries = fn(cfg, test_seed)
            except (BranchLabError, MemoryError) as exc:
                error = {"error": f"{type(exc).__name__}: {exc}"}
                entries = [_entry("skipped", None, None, True, details=error)]
            results.extend({**e, "name": f"{group}.{e['name']}"} for e in entries)
            group_wall_s[group] = time.monotonic() - group_started
    gating = [r for r in results if r["gating"]]
    summary = {
        "n_results": len(results),
        "n_gating": len(gating),
        "n_failed_gating": sum(1 for r in gating if not r["pass"]),
        "all_gating_pass": all(r["pass"] for r in gating),
    }
    manifest = {
        "config": {
            "master_seed": int(cfg.master_seed),
            "workers": int(cfg.workers),
            "quick": bool(cfg.quick),
        },
        "provenance": {
            "package": "branchlab",
            "version": __version__,
            "wall_time_s": time.monotonic() - started,
            "group_wall_s": group_wall_s,
            "created_utc": datetime.now(timezone.utc).isoformat(),
        },
        "results": results,
        "summary": summary,
    }
    manifest["determinism_hash"] = hashlib.sha256(manifest_core_bytes(manifest)).hexdigest()
    return manifest


def manifest_core_bytes(manifest: dict) -> bytes:
    """The canonical bytes that determinism_hash covers."""
    core = {
        "master_seed": manifest["config"]["master_seed"],
        "quick": manifest["config"]["quick"],
        "results": manifest["results"],
        "summary": manifest["summary"],
    }
    return canonical_json_bytes(core)
