"""Command-line front end.

Subcommands cover the exportable objects (gen-tree, profile-path, cmj,
renewal-table, limit-sample, covariance) plus the one-shot verification
suite (verify). Option values resolve as: explicit flag, then JSON
config file entry, then built-in default; config entries are parsed as
the flags of the same name. Artifacts land in --output-dir, the
BRANCHLAB_OUTPUT_DIR environment variable, or the working directory, in
that order of preference.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3
unexpected error (traceback on stderr).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

import numpy as np

from ._version import __version__
from .cmj import simulate_cmj, simulate_embedded_rrt
from .distributions import make_distribution
from .errors import BranchLabError
from .fileio import (
    format_float,
    write_cov_csv,
    write_embedded_tree_csv,
    write_manifest_json,
    write_profile_path_csv,
    write_renewal_table_csv,
    write_samples_csv,
    write_trajectory_csv,
    write_tree_csv,
)
from .gaussian_limit import build_cov_matrix, cov_rkl, sample_limit
from .recursive_tree import generate_rrt, grow_and_record
from .renewal import build_renewal_table
from .rng import RngStream
from .verify import VerifyConfig, verify_suite


def _parse_grid(text: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"could not parse grid {text!r}") from None
    if not values:
        raise ValueError("grid must contain at least one value")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchlab",
        description="Simulation and verification lab for recursive-tree "
        "profiles and the branching processes that embed them.",
    )
    parser.add_argument("--version", action="version", version=f"branchlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with default option values")
    common.add_argument("--output-dir", help="directory for artifacts")
    common.add_argument("--out", help="artifact filename")

    def command(name, help):
        # exact option names only, so a config key cannot abbreviate a flag
        return sub.add_parser(name, parents=[common], help=help, allow_abbrev=False)

    p = command("gen-tree", "sample one uniform recursive tree")
    p.add_argument(
        "--n", type=int, default=100, help="number of attachments (tree has n+1 vertices)"
    )
    p.add_argument("--seed", type=int, default=0)

    p = command("profile-path", "level counts of one growing tree")
    p.add_argument(
        "--n-base", type=int, default=10_000, help="size base; snapshots at floor(n_base**t)"
    )
    p.add_argument(
        "--t-grid",
        default="0.25,0.5,0.75,1",
        help="comma-separated exponents, strictly increasing",
    )
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    p = command("cmj", "simulate a branching trajectory")
    p.add_argument("--dist", default="exp(1)", help="increment law, e.g. exp(1) or gamma(2,2)")
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--embedded",
        type=int,
        metavar="N",
        help="instead: continuous-time tree growth for N births",
    )

    p = command("renewal-table", "tabulate U, U2, ..., Uk")
    p.add_argument("--dist", default="exp(1)")
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--h", type=float, default=0.01)
    p.add_argument("--k-max", type=int, default=2)

    p = command("limit-sample", "draw from the Gaussian limit on a grid")
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument("--t-grid", default="0.5,1")
    p.add_argument("--m", type=int, default=1000, help="number of draws")
    p.add_argument("--seed", type=int, default=0)

    p = command("covariance", "closed-form limit covariance")
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--s", type=float)
    p.add_argument("--u", type=float)
    p.add_argument("--k-max", type=int, default=2, help="with --t-grid: export the full matrix")
    p.add_argument("--t-grid")

    p = command("verify", "run the acceptance registry")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--quick", action="store_true")

    return parser


def _config_flags(parser, args) -> list:
    """The flags a user would type for the JSON object in args.config.

    A value becomes --key=value, a list its comma-joined items, true a bare
    switch; false and null add nothing, so the default stands. A key that
    names none of the subcommand's options is refused whatever its value.
    """
    options = set(vars(args)) - {"subcommand"}  # the first parse holds exactly these
    with open(args.config, encoding="utf-8") as f:
        loaded = json.load(f)
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object")
    flags = []
    for key, value in loaded.items():
        if not key or "=" in key:  # "--" ends the options; "--n=5" carries a value
            raise ValueError(f"config key {key!r} is not a flag name")
        flag = "--" + key.replace("_", "-")
        if key.replace("-", "_") not in options:
            parser.error(f"unrecognized arguments: {flag}")
        if value is True:
            flags.append(flag)
        elif isinstance(value, list):
            flags.append(f"{flag}={','.join(str(v) for v in value)}")
        elif value is not None and value is not False:
            flags.append(f"{flag}={value}")
    return flags


def _resolve_out(args, default_name: str) -> str:
    if args.out and (os.path.isabs(args.out) or os.sep in args.out):
        return args.out
    directory = args.output_dir or os.environ.get("BRANCHLAB_OUTPUT_DIR") or "."
    return os.path.join(directory, args.out or default_name)


def _write(args, default_name: str, writer, obj) -> int:
    path = _resolve_out(args, default_name)
    writer(path, obj)
    print(path)
    return 0


def _cmd_gen_tree(args) -> int:
    tree = generate_rrt(args.n + 1, RngStream(args.seed, 0))
    return _write(args, f"tree_n{args.n}_seed{args.seed}.csv", write_tree_csv, tree)


def _cmd_profile_path(args) -> int:
    grid = np.asarray(_parse_grid(args.t_grid), dtype=float)
    ppath = grow_and_record(args.n_base, grid, args.k_max, RngStream(args.seed, 0))
    name = f"profile_path_b{args.n_base}_seed{args.seed}.csv"
    return _write(args, name, write_profile_path_csv, ppath)


def _cmd_cmj(args) -> int:
    if args.embedded is not None:
        emb = simulate_embedded_rrt(args.embedded, RngStream(args.seed, 0))
        name = f"embedded_n{args.embedded}_seed{args.seed}.csv"
        return _write(args, name, write_embedded_tree_csv, emb)
    dist = make_distribution(args.dist)
    traj = simulate_cmj(dist, args.horizon, args.k_max, RngStream(args.seed, 0))
    name = f"cmj_{dist.kind}_T{format_float(args.horizon)}_seed{args.seed}.csv"
    return _write(args, name, write_trajectory_csv, traj)


def _cmd_renewal_table(args) -> int:
    dist = make_distribution(args.dist)
    table = build_renewal_table(dist, args.t_max, h=args.h, k_max=args.k_max)
    return _write(args, f"renewal_{dist.kind}_k{table.k_max}.csv", write_renewal_table_csv, table)


def _cmd_limit_sample(args) -> int:
    cov = build_cov_matrix(args.k_max, _parse_grid(args.t_grid))
    draw = sample_limit(cov, args.m, RngStream(args.seed, 0))
    return _write(args, f"limit_samples_seed{args.seed}.csv", write_samples_csv, draw)


def _cmd_covariance(args) -> int:
    if None not in (args.k, args.l, args.s, args.u):
        print(format_float(cov_rkl(args.k, args.l, args.s, args.u)))
        return 0
    if args.t_grid is not None:
        cov = build_cov_matrix(args.k_max, _parse_grid(args.t_grid))
        return _write(args, f"covariance_k{args.k_max}.csv", write_cov_csv, cov)
    raise ValueError("covariance needs either --k/--l/--s/--u or --k-max/--t-grid")


def _cmd_verify(args) -> int:
    cfg = VerifyConfig(master_seed=args.seed, workers=args.workers, quick=args.quick)
    manifest = verify_suite(cfg)
    suffix = "_quick" if cfg.quick else ""
    path = _resolve_out(args, f"manifest_seed{cfg.master_seed}{suffix}.json")
    write_manifest_json(path, manifest)
    for r in manifest["results"]:
        status = "SKIP" if r["skipped"] else ("PASS" if r["pass"] else "FAIL")
        stat = "" if r["statistic"] is None else f" statistic={format_float(r['statistic'])}"
        budget = "" if r["budget"] is None else f" budget={format_float(r['budget'])}"
        gate = "" if r["gating"] else " (informational)"
        print(f"{status} {r['name']}{stat}{budget}{gate}")
    summary = manifest["summary"]
    print(
        f"{summary['n_gating']} gating results, "
        f"{summary['n_failed_gating']} failed; manifest {path}"
    )
    print(f"determinism_hash {manifest['determinism_hash']}")
    return 0 if summary["all_gating_pass"] else 1


_COMMANDS = {
    "gen-tree": _cmd_gen_tree,
    "profile-path": _cmd_profile_path,
    "cmj": _cmd_cmj,
    "renewal-table": _cmd_renewal_table,
    "limit-sample": _cmd_limit_sample,
    "covariance": _cmd_covariance,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config flags go right after the subcommand, so explicit ones win
            at = argv.index(args.subcommand) + 1
            args = parser.parse_args(argv[:at] + _config_flags(parser, args) + argv[at:])
        return _COMMANDS[args.subcommand](args)
    except (ValueError, OSError, BranchLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
