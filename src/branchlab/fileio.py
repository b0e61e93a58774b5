"""Artifact serialization.

CSV writers for every exportable object plus the run-manifest JSON.
Floats are printed with 17 significant digits so a written value parses
back to the identical double. CSV rows stream in blocks into a temporary
file next to the target, which is renamed into place, so readers never
observe a partially written artifact.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress

import numpy as np

from .cmj import CmjTrajectory, EmbeddedTree
from .gaussian_limit import CovMatrix, GaussianGridSample
from .recursive_tree import ProfilePath, RecursiveTree
from .renewal import RenewalTable

_FLOAT_FMT = "%.17g"
_BLOCK_CELLS = 1 << 18  # CSV values formatted and written at a time, in whole rows


def format_float(x) -> str:
    return _FLOAT_FMT % float(x)


@contextmanager
def _atomic_file(path):
    """A text file of mode 0o666 less the umask, renamed onto path when the
    block exits cleanly and removed on any exception, leaving path as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp.{os.getpid()}.{os.urandom(8).hex()}.part")
    f = open(tmp, "x", encoding="utf-8", newline="\n")  # O_EXCL, mode 0o666 less the umask
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with _atomic_file(path) as f:
        f.write(text)


def _write_csv(path, header: str, fmt: str, *columns) -> None:
    """Write the header line, then fmt % row for each row of the equal-length 1-d arrays."""
    width, n = len(columns), len(columns[0])
    step = max(1, _BLOCK_CELLS // width)
    with _atomic_file(path) as f:
        f.write(header + "\n")
        for lo in range(0, n, step):
            # one format over the block's cells in row order: no tuple or string per row
            cells = [None] * (min(step, n - lo) * width)
            for j, c in enumerate(columns):
                cells[j::width] = c[lo : lo + step].tolist()
            f.write((fmt + "\n") * (len(cells) // width) % tuple(cells))


def write_tree_csv(path, tree: RecursiveTree) -> None:
    """One row per non-root vertex: vertex,parent."""
    _write_csv(path, "vertex,parent", "%d,%d", np.arange(1, tree.parent.shape[0]), tree.parent[1:])


def write_profile_path_csv(path, profile_path: ProfilePath) -> None:
    """One row per grid point and level: t,k,count."""
    values = profile_path.values
    t, k = np.meshgrid(profile_path.t_grid, np.arange(1, values.shape[1] + 1), indexing="ij")
    _write_csv(path, "t,k,count", "%.17g,%d,%d", t.ravel(), k.ravel(), values.ravel())


def write_trajectory_csv(path, traj: CmjTrajectory) -> None:
    """Events in global time order: time,generation,ancestor1."""
    _write_csv(path, "time,generation,ancestor1", "%.17g,%d,%d", *traj.merged_order())


def write_embedded_tree_csv(path, emb: EmbeddedTree) -> None:
    """One row per non-root vertex: vertex,parent,birth_time."""
    parent = emb.tree.parent
    vertex = np.arange(1, parent.shape[0])
    _write_csv(path, "vertex,parent,birth_time", "%d,%d,%.17g", vertex, parent[1:], emb.birth_times)


def write_renewal_table_csv(path, table: RenewalTable) -> None:
    """One row per grid point: t,U,U2,...,Uk."""
    header = ",".join(["t", "U"] + [f"U{k}" for k in range(2, table.k_max + 1)])
    fmt = ",".join([_FLOAT_FMT] * (table.k_max + 1))
    _write_csv(path, header, fmt, table.grid, *table.uk)


def index_label(entry) -> str:
    k, t = entry
    return f"k{int(k)}_t{format_float(t)}"


def write_cov_csv(path, cov: CovMatrix) -> None:
    """Square layout with the index set as both header and row labels."""
    labels = [index_label(e) for e in cov.index]
    fmt = ",".join(["%s"] + [_FLOAT_FMT] * cov.dim)
    _write_csv(path, ",".join(["index"] + labels), fmt, np.asarray(labels), *cov.matrix.T)


def write_samples_csv(path, sample: GaussianGridSample) -> None:
    """One row per draw, columns labeled by the index set."""
    header = ",".join(index_label(e) for e in sample.index)
    fmt = ",".join([_FLOAT_FMT] * sample.samples.shape[1])
    _write_csv(path, header, fmt, *sample.samples.T)


def canonical_json_bytes(obj) -> bytes:
    """Key-sorted, whitespace-free JSON encoding used for hashing.

    Strict JSON: a NaN or an infinity raises ValueError.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


def write_manifest_json(path, manifest: dict) -> None:
    """The manifest as indented, key-sorted strict JSON (no NaN or infinity)."""
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    atomic_write_text(path, text + "\n")
