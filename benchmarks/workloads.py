"""The benchmark workloads, driven through branchlab's CLI and API.

Each workload has:

* ``prepare(seed, workdir)``: the inputs of one run, made from the seed;
* ``warmup(inputs)``: a small untimed pass through the same code;
* ``op(inputs, serial, parallel)``: one closed-loop operation; ``serial``
  and ``parallel`` are context managers around its serial and two-worker
  parts (null contexts when untraced, tracers otherwise);
* ``check(inputs, output)``: the correctness checks, run outside the timed
  region; returns a list of failure messages, empty when all pass.

Importing this module needs ``branchlab`` importable (``run.py`` puts the
checkout's ``src/`` first on ``sys.path``).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from branchlab import cli
from branchlab import recursive_tree as rt
from branchlab.rng import RngStream


def _cli(argv) -> int:
    """Run one CLI invocation in-process, its printed output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# tree: depth/profile extraction and the integer CSV writer on large trees


class Tree:
    """gen-tree at 10^6 attachments, profile() of a 10^7-vertex tree, then
    profile-path at n_base = 10^7, k_max = 3.

    The profile() tree and the profile-path tree come from the same stream
    (seed, 0) and have the same size, so they are the same tree: the last
    profile-path snapshot must equal the profile's levels 1..3.
    """

    N_GEN = 1_000_000
    V_PROFILE = 10_000_000
    T_GRID = (0.25, 0.5, 0.75, 1.0)
    K_MAX = 3

    def prepare(self, seed, workdir):
        grid = ",".join(repr(t) for t in self.T_GRID)
        return {
            "seed": seed,
            "tree_csv": os.path.join(workdir, "tree.csv"),
            "path_csv": os.path.join(workdir, "profile_path.csv"),
            "gen_argv": ["gen-tree", "--n", self.N_GEN, "--seed", seed,
                         "--output-dir", workdir, "--out", "tree.csv"],
            "path_argv": ["profile-path", "--n-base", self.V_PROFILE, "--t-grid", grid,
                          "--k-max", self.K_MAX, "--seed", seed,
                          "--output-dir", workdir, "--out", "profile_path.csv"],
            "warm_argv": [["gen-tree", "--n", 1000, "--seed", seed, "--output-dir", workdir],
                          ["profile-path", "--n-base", 1000, "--seed", seed, "--output-dir", workdir]],
        }

    def warmup(self, inputs):
        for argv in inputs["warm_argv"]:
            _cli(argv)
        rt.profile(rt.generate_rrt(1000, RngStream(inputs["seed"], 0)))

    def op(self, inputs, serial, parallel):
        with serial:
            rc_gen = _cli(inputs["gen_argv"])
            counts = rt.profile(rt.generate_rrt(self.V_PROFILE, RngStream(inputs["seed"], 0))).counts
            rc_path = _cli(inputs["path_argv"])
        return {"rc": (rc_gen, rc_path), "counts": counts}

    def check(self, inputs, out):
        errors = [f"CLI exit code {rc}" for rc in out["rc"] if rc != 0]
        seed = inputs["seed"]

        parent = rt.generate_rrt(self.N_GEN + 1, RngStream(seed, 0)).parent
        rows = np.loadtxt(inputs["tree_csv"], delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        if not (
            rows.shape == (self.N_GEN, 2)
            and np.array_equal(rows[:, 0], np.arange(1, self.N_GEN + 1))
            and np.array_equal(rows[:, 1], parent[1:])
        ):
            errors.append("tree CSV does not parse back to the parent array")
        depth = rt.depths_from_parents(parent)
        if depth[0] != 0 or not np.array_equal(depth[1:], depth[parent[1:]] + 1):
            errors.append("depth[i] != depth[parent[i]] + 1 on the gen-tree tree")

        del rows, parent, depth  # free before the 10^7-vertex tree below

        counts = out["counts"]
        if counts[0] != 1 or int(counts.sum()) != self.V_PROFILE:
            errors.append("profile does not sum to V with one root")

        big = rt.generate_rrt(self.V_PROFILE, RngStream(seed, 0)).parent
        table = np.loadtxt(inputs["path_csv"], delimiter=",", skiprows=1, ndmin=2)
        expected = []
        for t in self.T_GRID:
            size = min(self.V_PROFILE, int(math.floor(self.V_PROFILE**t * (1 + 1e-12))))
            if size == self.V_PROFILE:
                levels = counts
            else:
                levels = np.bincount(rt.depths_from_parents(big[:size]), minlength=self.K_MAX + 1)
            expected.extend((t, k, levels[k] if k < levels.shape[0] else 0)
                            for k in range(1, self.K_MAX + 1))
        if not np.array_equal(table, np.array(expected, dtype=float)):
            errors.append("profile-path snapshots differ from the level counts of the prefixes")
        return errors


# ---------------------------------------------------------------------------
# registry: verify --quick, serially and with two workers


class Registry:
    """verify --quick at the run's seed, serially, then with --workers 2.

    The two manifests must both pass and carry the same determinism_hash,
    which must also equal the hash of every other operation in the run.
    """

    def prepare(self, seed, workdir):
        base = ["verify", "--seed", seed, "--quick", "--output-dir", workdir]
        return {
            "seed": seed,
            "serial_json": os.path.join(workdir, "serial.json"),
            "w2_json": os.path.join(workdir, "w2.json"),
            "serial_argv": base + ["--out", "serial.json"],
            "w2_argv": base + ["--workers", 2, "--out", "w2.json"],
            "warm_argv": [["cmj", "--dist", "gamma(2,2)", "--horizon", 20, "--k-max", 2,
                           "--seed", seed, "--output-dir", workdir],
                          ["covariance", "--k-max", 2, "--t-grid", "0.5,1", "--output-dir", workdir]],
            "hashes": set(),
        }

    def warmup(self, inputs):
        for argv in inputs["warm_argv"]:
            _cli(argv)

    def op(self, inputs, serial, parallel):
        t0 = time.perf_counter()
        with serial:
            rc_serial = _cli(inputs["serial_argv"])
        t1 = time.perf_counter()
        with parallel:
            rc_w2 = _cli(inputs["w2_argv"])
        t2 = time.perf_counter()
        return {"rc": (rc_serial, rc_w2), "phases": {"verify_serial_s": t1 - t0, "verify_w2_s": t2 - t1}}

    def check(self, inputs, out):
        errors = [f"verify exit code {rc}" for rc in out["rc"] if rc != 0]
        manifests = {}
        for key in ("serial", "w2"):
            with open(inputs[f"{key}_json"], encoding="utf-8") as f:
                manifests[key] = json.load(f)
            if not manifests[key]["summary"]["all_gating_pass"]:
                errors.append(f"{key} verify: a gating check failed")
        hashes = {m["determinism_hash"] for m in manifests.values()}
        if len(hashes) != 1:
            errors.append("serial and 2-worker determinism_hash differ")
        inputs["hashes"] |= hashes
        if len(inputs["hashes"]) != 1:
            errors.append("the same seed gave different determinism_hash values across operations")
        return errors


WORKLOADS = {"tree": Tree(), "registry": Registry()}
