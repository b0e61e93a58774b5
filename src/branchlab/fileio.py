"""Artifact serialization.

CSV writers for every exportable object plus the run-manifest JSON.
Floats are printed with 17 significant digits so a written value parses
back to the identical double. CSV rows stream in blocks into a temporary
file next to the target, which is renamed into place, so readers never
observe a partially written artifact. The tree CSV, whose rows are
integers only, is formatted in numpy, byte for byte as Python's "%d"
prints it; every other CSV goes through the % operator.
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


def _int_rows(columns) -> str:
    """The text "%d,...,%d\n" % row prints for each row of nonempty,
    equal-length integer columns.

    Each cell takes a slot of a uint8 matrix, one matrix row per CSV row: a
    sign byte, as many digit bytes as the block's widest magnitude has, and
    its separator. Digits are filled right-aligned, the last digit first;
    every byte a cell leaves unfilled stays NUL and is dropped in one pass.
    """
    mags, signs, top = [], [], 0
    for c in columns:
        neg = c < 0
        if neg.any():
            c = c.astype(np.uint64)  # holds the magnitude 2**63 of the int64 minimum
            np.negative(c, out=c, where=neg)
        mags.append(c)
        signs.append(neg)
        top = max(top, int(c.max()))
    digits = len(str(top))
    slot = digits + 2
    mat = np.zeros((mags[0].shape[0], slot * len(mags)), dtype=np.uint8)
    mat[:, slot - 1 :: slot] = ord(",")
    mat[:, -1] = ord("\n")
    dtype = np.uint32 if top < 2**32 else np.uint64  # uint32 division is several times faster
    for j, (m, neg) in enumerate(zip(mags, signs)):
        sign = j * slot
        mat[neg, sign] = ord("-")
        m = m.astype(dtype)
        for pos in range(sign + digits, sign, -1):
            q = m // 10
            d = m - q * 10 + ord("0")
            if pos < sign + digits:
                d *= m != 0  # past a value's leading digit its slot stays NUL
            mat[:, pos] = d
            m = q
    return mat.tobytes().translate(None, b"\0").decode("ascii")


def _write_csv(path, header: str, fmt: str, blocks) -> None:
    """Write the header line, then fmt % row for each row of each block.

    blocks yields tuples of equal-length 1-d column arrays.
    """
    with _atomic_file(path) as f:
        f.write(header + "\n")
        for columns in blocks:
            width, n = len(columns), len(columns[0])
            step = max(1, _BLOCK_CELLS // width)
            for lo in range(0, n, step):
                # one format over the piece's cells in row order: no tuple or string per row
                cells = [None] * (min(step, n - lo) * width)
                for j, c in enumerate(columns):
                    cells[j::width] = c[lo : lo + step].tolist()
                f.write((fmt + "\n") * (len(cells) // width) % tuple(cells))


def write_tree_csv(path, tree: RecursiveTree) -> None:
    """One row per non-root vertex: vertex,parent.

    _int_rows formats the rows a block at a time; the vertex column is made
    per block, never for the whole tree.
    """
    parent = tree.parent
    step = max(1, _BLOCK_CELLS // 2)
    with _atomic_file(path) as f:
        f.write("vertex,parent\n")
        for lo in range(1, parent.shape[0], step):
            hi = min(lo + step, parent.shape[0])
            f.write(_int_rows((np.arange(lo, hi), parent[lo:hi])))


def write_profile_path_csv(path, profile_path: ProfilePath) -> None:
    """One row per grid point and level: t,k,count."""
    values = profile_path.values
    t, k = np.meshgrid(profile_path.t_grid, np.arange(1, values.shape[1] + 1), indexing="ij")
    _write_csv(path, "t,k,count", "%.17g,%d,%d", [(t.ravel(), k.ravel(), values.ravel())])


def _merged_blocks(traj: CmjTrajectory):
    """Events as (times, generations, ancestors) blocks of about
    _BLOCK_CELLS / 3 rows, in global order: time, then generation, then
    creation order, the order each generation is stored in.

    A k-way merge: the cut is the earliest m-th next time of any pending
    generation, each generation gives the block every event up to it (ties
    included), and a stable sort by time of their concatenation in
    generation order orders the block.
    """
    times, lo = traj.times, [0] * len(traj.times)
    while pending := [g for g, t in enumerate(times) if lo[g] < t.shape[0]]:
        m = max(1, _BLOCK_CELLS // (3 * len(pending)))
        cut = min(
            (times[g][lo[g] + m - 1] for g in pending if lo[g] + m <= times[g].shape[0]),
            default=np.inf,
        )
        hi = [int(np.searchsorted(t, cut, side="right")) for t in times]
        t = np.concatenate([times[g][lo[g] : hi[g]] for g in pending])
        gens = np.repeat(np.array(pending, dtype=np.int64) + 1, [hi[g] - lo[g] for g in pending])
        anc = np.concatenate([traj.anc1[g][lo[g] : hi[g]] for g in pending])
        order = np.argsort(t, kind="stable")
        yield t[order], gens[order], anc[order]
        lo = hi


def write_trajectory_csv(path, traj: CmjTrajectory) -> None:
    """Events in global time order: time,generation,ancestor1."""
    _write_csv(path, "time,generation,ancestor1", "%.17g,%d,%d", _merged_blocks(traj))


def write_embedded_tree_csv(path, emb: EmbeddedTree) -> None:
    """One row per non-root vertex: vertex,parent,birth_time."""
    parent = emb.tree.parent
    vertex = np.arange(1, parent.shape[0])
    columns = (vertex, parent[1:], emb.birth_times)
    _write_csv(path, "vertex,parent,birth_time", "%d,%d,%.17g", [columns])


def write_renewal_table_csv(path, table: RenewalTable) -> None:
    """One row per grid point: t,U,U2,...,Uk."""
    header = ",".join(["t", "U"] + [f"U{k}" for k in range(2, table.k_max + 1)])
    fmt = ",".join([_FLOAT_FMT] * (table.k_max + 1))
    _write_csv(path, header, fmt, [(table.grid, *table.uk)])


def index_label(entry) -> str:
    k, t = entry
    return f"k{int(k)}_t{format_float(t)}"


def write_cov_csv(path, cov: CovMatrix) -> None:
    """Square layout with the index set as both header and row labels."""
    labels = [index_label(e) for e in cov.index]
    fmt = ",".join(["%s"] + [_FLOAT_FMT] * cov.dim)
    _write_csv(path, ",".join(["index"] + labels), fmt, [(np.asarray(labels), *cov.matrix.T)])


def write_samples_csv(path, sample: GaussianGridSample) -> None:
    """One row per draw, columns labeled by the index set."""
    header = ",".join(index_label(e) for e in sample.index)
    fmt = ",".join([_FLOAT_FMT] * sample.samples.shape[1])
    _write_csv(path, header, fmt, [tuple(sample.samples.T)])


def canonical_json_bytes(obj) -> bytes:
    """Key-sorted, whitespace-free JSON encoding used for hashing.

    Strict JSON: a NaN or an infinity raises ValueError.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


def write_manifest_json(path, manifest: dict) -> None:
    """The manifest as indented, key-sorted strict JSON (no NaN or infinity)."""
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    atomic_write_text(path, text + "\n")
