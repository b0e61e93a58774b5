"""Artifact serialization.

CSV writers for every exportable object plus the run-manifest JSON.
Floats are printed with 17 significant digits so a written value parses
back to the identical double. Writes land in a temporary file next to
the target and are renamed into place, so readers never observe a
partially written artifact.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .cmj import CmjTrajectory, EmbeddedTree
from .gaussian_limit import CovMatrix, GaussianGridSample
from .recursive_tree import ProfilePath, RecursiveTree
from .renewal import RenewalTable, table_to_csv_rows

_FLOAT_FMT = "%.17g"


def format_float(x) -> str:
    return _FLOAT_FMT % float(x)


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    return str(v)


def _csv_text(rows) -> str:
    return "".join(",".join(_cell(v) for v in row) + "\n" for row in rows)


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_tree_csv(path, tree: RecursiveTree) -> None:
    """One row per non-root vertex: vertex,parent."""
    rows = [f"{i},{p}\n" for i, p in enumerate(tree.parent[1:].tolist(), start=1)]
    atomic_write_text(path, "vertex,parent\n" + "".join(rows))


def write_profile_path_csv(path, profile_path: ProfilePath) -> None:
    rows = [("t", "k", "count")]
    for ti, t in enumerate(profile_path.t_grid):
        for k in range(1, profile_path.k_max + 1):
            rows.append((float(t), k, profile_path.value(ti, k)))
    atomic_write_text(path, _csv_text(rows))


def write_trajectory_csv(path, traj: CmjTrajectory) -> None:
    """Events in global time order: time,generation,ancestor1."""
    times, gens, anc = (x.tolist() for x in traj.merged_order())
    rows = [f"{t:.17g},{g},{a}\n" for t, g, a in zip(times, gens, anc)]
    atomic_write_text(path, "time,generation,ancestor1\n" + "".join(rows))


def write_embedded_tree_csv(path, emb: EmbeddedTree) -> None:
    """One row per non-root vertex: vertex,parent,birth_time."""
    pairs = zip(emb.tree.parent[1:].tolist(), emb.birth_times.tolist())
    rows = [f"{i},{p},{t:.17g}\n" for i, (p, t) in enumerate(pairs, start=1)]
    atomic_write_text(path, "vertex,parent,birth_time\n" + "".join(rows))


def write_renewal_table_csv(path, table: RenewalTable) -> None:
    atomic_write_text(path, _csv_text(table_to_csv_rows(table)))


def index_label(entry) -> str:
    k, t = entry
    return f"k{int(k)}_t{format_float(t)}"


def write_cov_csv(path, cov: CovMatrix) -> None:
    """Square layout with the index set as both header and row labels."""
    labels = [index_label(e) for e in cov.index]
    rows = [["index"] + labels]
    for a, lab in enumerate(labels):
        rows.append([lab] + [float(v) for v in cov.matrix[a]])
    atomic_write_text(path, _csv_text(rows))


def write_samples_csv(path, sample: GaussianGridSample) -> None:
    """One row per draw, columns labeled by the index set."""
    rows = [[index_label(e) for e in sample.index]]
    rows.extend([float(v) for v in row] for row in sample.samples)
    atomic_write_text(path, _csv_text(rows))


def canonical_json_bytes(obj) -> bytes:
    """Key-sorted, whitespace-free JSON encoding used for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_manifest_json(path, manifest: dict) -> None:
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
