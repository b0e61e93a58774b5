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
from .renewal import RenewalTable

_FLOAT_FMT = "%.17g"


def format_float(x) -> str:
    return _FLOAT_FMT % float(x)


def _float_lines(values: np.ndarray) -> list[str]:
    """One CSV line per row of a 2-d float array, one format string per row."""
    fmt = ",".join([_FLOAT_FMT] * values.shape[1]) + "\n"
    return [fmt % tuple(row) for row in values.tolist()]


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
    """One row per grid point and level: t,k,count."""
    rows = [
        "%.17g,%d,%d\n" % (t, k, c)
        for t, counts in zip(profile_path.t_grid.tolist(), profile_path.values.tolist())
        for k, c in enumerate(counts, start=1)
    ]
    atomic_write_text(path, "t,k,count\n" + "".join(rows))


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
    """One row per grid point: t,U,U2,...,Uk."""
    header = ",".join(["t", "U"] + [f"U{k}" for k in range(2, table.k_max + 1)])
    rows = _float_lines(np.column_stack((table.grid, table.uk.T)))
    atomic_write_text(path, header + "\n" + "".join(rows))


def index_label(entry) -> str:
    k, t = entry
    return f"k{int(k)}_t{format_float(t)}"


def write_cov_csv(path, cov: CovMatrix) -> None:
    """Square layout with the index set as both header and row labels."""
    labels = [index_label(e) for e in cov.index]
    rows = [f"{lab},{line}" for lab, line in zip(labels, _float_lines(cov.matrix))]
    atomic_write_text(path, ",".join(["index"] + labels) + "\n" + "".join(rows))


def write_samples_csv(path, sample: GaussianGridSample) -> None:
    """One row per draw, columns labeled by the index set."""
    header = ",".join(index_label(e) for e in sample.index)
    atomic_write_text(path, header + "\n" + "".join(_float_lines(sample.samples)))


def canonical_json_bytes(obj) -> bytes:
    """Key-sorted, whitespace-free JSON encoding used for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_manifest_json(path, manifest: dict) -> None:
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
