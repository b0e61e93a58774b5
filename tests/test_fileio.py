import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from branchlab import fileio
from branchlab.cli import main
from branchlab.cmj import simulate_cmj, simulate_embedded_rrt
from branchlab.distributions import make_distribution
from branchlab.fileio import (
    atomic_write_text,
    canonical_json_bytes,
    format_float,
    index_label,
    write_cov_csv,
    write_embedded_tree_csv,
    write_manifest_json,
    write_profile_path_csv,
    write_renewal_table_csv,
    write_samples_csv,
    write_trajectory_csv,
    write_tree_csv,
)
from branchlab.gaussian_limit import build_cov_matrix, sample_limit
from branchlab.recursive_tree import generate_rrt, grow_and_record
from branchlab.renewal import build_renewal_table, table_from_csv
from branchlab.rng import RngStream
from branchlab.verify import _entry

SRC = Path(__file__).resolve().parents[1] / "src"


def _cell(v) -> str:
    """Reference formatter: one cell at a time, dispatching on its type."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    return str(v)


def _csv_text(rows) -> str:
    return "".join(",".join(_cell(v) for v in row) + "\n" for row in rows)


def test_format_float_round_trips():
    tricky = [0.1, 1.0 / 3.0, 2.0**-52, 1e300, -7.25, 0.0, 123456789.123456789]
    for x in tricky:
        assert float(format_float(x)) == x


def test_atomic_write_creates_directories(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(target, "payload\n")
    assert target.read_text() == "payload\n"
    leftovers = [p for p in (tmp_path / "a" / "b").iterdir() if p.name != "out.txt"]
    assert leftovers == []


def test_atomic_write_replaces(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "one\n")
    atomic_write_text(target, "two\n")
    assert target.read_text() == "two\n"


def test_tree_csv_minimal(tmp_path):
    tree = generate_rrt(2, RngStream(0, 0))
    path = tmp_path / "tree.csv"
    write_tree_csv(path, tree)
    assert path.read_text() == "vertex,parent\n1,0\n"


def test_tree_csv_matches_row_by_row_text(tmp_path):
    tree = generate_rrt(1000, RngStream(8, 0))
    path = tmp_path / "tree.csv"
    write_tree_csv(path, tree)
    expected = "vertex,parent\n"
    for i in range(1, tree.parent.shape[0]):
        expected += str(i) + "," + str(int(tree.parent[i])) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def test_trajectory_csv_matches_row_by_row_text(tmp_path):
    traj = simulate_cmj(make_distribution("gamma(2,2)"), 30.0, 3, RngStream(12, 0))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    # the global order by one sort on time, then generation, then creation order
    times = np.concatenate(traj.times)
    gens = np.repeat(np.arange(1, 4), [t.shape[0] for t in traj.times])
    order = np.lexsort((np.arange(times.shape[0]), gens, times))
    times, gens, anc = times[order], gens[order], np.concatenate(traj.anc1)[order]
    rows = [("time", "generation", "ancestor1")]
    rows.extend((times[i], gens[i], anc[i]) for i in range(times.shape[0]))
    assert times.shape[0] > 100
    assert path.read_bytes() == _csv_text(rows).encode("utf-8")


def test_embedded_tree_csv_matches_row_by_row_text(tmp_path):
    emb = simulate_embedded_rrt(1000, RngStream(13, 0))
    path = tmp_path / "embedded.csv"
    write_embedded_tree_csv(path, emb)
    parent = emb.tree.parent
    rows = [("vertex", "parent", "birth_time")]
    rows.extend((i, parent[i], emb.birth_times[i - 1]) for i in range(1, parent.shape[0]))
    assert path.read_bytes() == _csv_text(rows).encode("utf-8")


def test_tree_csv_parents_parse_back(tmp_path):
    tree = generate_rrt(40, RngStream(5, 0))
    path = tmp_path / "tree.csv"
    write_tree_csv(path, tree)
    data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=np.int64)
    assert np.array_equal(data[:, 0], np.arange(1, 40))
    assert np.array_equal(data[:, 1], tree.parent[1:])


def test_profile_path_csv(tmp_path):
    pp = grow_and_record(100, (0.5, 1.0), 2, RngStream(2, 0))
    path = tmp_path / "path.csv"
    write_profile_path_csv(path, pp)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,k,count"
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert int(first[1]) == 1
    assert int(first[2]) == pp.values[0, 0]


def test_trajectory_csv(tmp_path):
    traj = simulate_cmj(make_distribution("exp(1)"), 4.0, 2, RngStream(3, 0))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,generation,ancestor1"
    assert len(lines) == 1 + traj.n_events
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times == sorted(times)


def test_embedded_tree_csv(tmp_path):
    emb = simulate_embedded_rrt(6, RngStream(4, 0))
    path = tmp_path / "embedded.csv"
    write_embedded_tree_csv(path, emb)
    lines = path.read_text().splitlines()
    assert lines[0] == "vertex,parent,birth_time"
    assert len(lines) == 7
    parsed = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in parsed] == list(range(1, 7))
    assert all(float(row[2]) == emb.birth_times[i] for i, row in enumerate(parsed))


def test_renewal_csv_exact_round_trip(tmp_path):
    dist = make_distribution("exp(1)")
    table = build_renewal_table(dist, 3.0, h=0.25, k_max=2)
    path = tmp_path / "table.csv"
    write_renewal_table_csv(path, table)
    back = table_from_csv(str(path), dist)
    assert np.array_equal(back.uk, table.uk)


def test_index_label_format():
    assert index_label((2, 0.5)) == "k2_t0.5"
    assert index_label((1, 1.0)) == "k1_t1"


def test_cov_csv_layout(tmp_path):
    cov = build_cov_matrix(2, [0.5, 1.0])
    path = tmp_path / "cov.csv"
    write_cov_csv(path, cov)
    lines = path.read_text().splitlines()
    labels = ["k1_t0.5", "k1_t1", "k2_t0.5", "k2_t1"]
    assert lines[0] == "index," + ",".join(labels)
    assert len(lines) == 5
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == labels[i]
        values = [float(c) for c in cells[1:]]
        assert values == [float(v) for v in cov.matrix[i]]


def test_samples_csv_layout(tmp_path):
    cov = build_cov_matrix(1, [1.0])
    out = sample_limit(cov, 8, RngStream(6, 0))
    path = tmp_path / "samples.csv"
    write_samples_csv(path, out)
    lines = path.read_text().splitlines()
    assert lines[0] == "k1_t1"
    assert len(lines) == 9
    parsed = np.array([float(line) for line in lines[1:]])
    assert np.array_equal(parsed, out.samples[:, 0])


def test_canonical_json_bytes_is_stable():
    a = {"b": 1, "a": [1.5, True, None], "c": {"y": 2, "x": 3}}
    b = {"c": {"x": 3, "y": 2}, "a": [1.5, True, None], "b": 1}
    assert canonical_json_bytes(a) == canonical_json_bytes(b)
    assert b" " not in canonical_json_bytes(a)


def test_manifest_json_round_trip(tmp_path):
    manifest = {"config": {"master_seed": 42}, "results": [{"name": "x", "pass": True}]}
    path = tmp_path / "manifest.json"
    write_manifest_json(path, manifest)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == manifest


def _refuse_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


def test_manifest_entries_are_strict_json(tmp_path):
    nan, inf = float("nan"), float("inf")
    entry = _entry(
        "x.y", nan, 1.0, True, p_value=nan, n_eff=inf,
        details={"nan": nan, "inf": inf, "neg_inf": -inf, "n": 3, "mean": 0.5, "law": "exp(1)"},
    )
    path = tmp_path / "manifest.json"
    write_manifest_json(path, {"results": [entry]})
    parsed = json.loads(path.read_text(), parse_constant=_refuse_constant)["results"][0]
    assert parsed["details"] == {
        "nan": None, "inf": None, "neg_inf": None, "n": 3, "mean": 0.5, "law": "exp(1)",
    }
    assert (parsed["statistic"], parsed["p_value"], parsed["n_eff"]) == (None, None, None)
    assert parsed["pass"] is False
    json.loads(canonical_json_bytes(entry), parse_constant=_refuse_constant)
    for write in (canonical_json_bytes, lambda obj: write_manifest_json(tmp_path / "m2.json", obj)):
        with pytest.raises(ValueError):
            write({"x": nan})


def test_atomic_write_accepts_str_paths(tmp_path):
    target = os.path.join(str(tmp_path), "plain.txt")
    atomic_write_text(target, "x\n")
    with open(target) as f:
        assert f.read() == "x\n"


def _tree_rows(n, seed):
    parent = generate_rrt(n + 1, RngStream(seed, 0)).parent
    return [("vertex", "parent")] + [(i, parent[i]) for i in range(1, n + 1)]


def _profile_path_rows(n_base, grid, k_max, seed):
    pp = grow_and_record(n_base, grid, k_max, RngStream(seed, 0))
    rows = [("t", "k", "count")]
    for ti, t in enumerate(pp.t_grid):
        rows.extend((float(t), k, int(pp.values[ti, k - 1])) for k in range(1, k_max + 1))
    return rows


def _samples_rows(k_max, grid, m, seed):
    out = sample_limit(build_cov_matrix(k_max, grid), m, RngStream(seed, 0))
    return [[index_label(e) for e in out.index]] + [list(row) for row in out.samples]


def _cov_rows(k_max, grid):
    cov = build_cov_matrix(k_max, grid)
    labels = [index_label(e) for e in cov.index]
    return [["index"] + labels] + [[lab] + list(cov.matrix[a]) for a, lab in enumerate(labels)]


def _renewal_rows(dist, t_max, h, k_max):
    table = build_renewal_table(make_distribution(dist), t_max, h=h, k_max=k_max)
    rows = [["t", "U"] + [f"U{k}" for k in range(2, k_max + 1)]]
    rows.extend([t] + list(table.uk[:, i]) for i, t in enumerate(table.grid))
    return rows


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["gen-tree", "--n", "3000", "--seed", "3"], lambda: _tree_rows(3000, 3)),
        (
            ["profile-path", "--n-base", "5000", "--t-grid", "0.3,0.6,1", "--k-max", "5",
             "--seed", "4"],
            lambda: _profile_path_rows(5000, (0.3, 0.6, 1.0), 5, 4),
        ),
        (
            ["limit-sample", "--k-max", "3", "--t-grid", "0.25,0.5,1", "--m", "400",
             "--seed", "5"],
            lambda: _samples_rows(3, (0.25, 0.5, 1.0), 400, 5),
        ),
        (
            ["covariance", "--k-max", "4", "--t-grid", "0.3,0.7,1"],
            lambda: _cov_rows(4, (0.3, 0.7, 1.0)),
        ),
        (
            ["renewal-table", "--dist", "gamma(2,2)", "--t-max", "6", "--h", "0.05",
             "--k-max", "3"],
            lambda: _renewal_rows("gamma(2,2)", 6.0, 0.05, 3),
        ),
    ],
    ids=["gen-tree", "profile-path", "limit-sample", "covariance", "renewal-table"],
)
def test_cli_artifacts_match_cell_by_cell_text(tmp_path, capsys, argv, rows):
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    written = Path(capsys.readouterr().out.strip())
    expected = _csv_text(rows()).encode("utf-8")
    assert expected.count(b"\n") > 10
    assert written.read_bytes() == expected


def _artifacts():
    """Every CSV writer with an artifact of many rows; items 1 and 4 are header-only."""
    cov = build_cov_matrix(3, (0.25, 0.5, 1.0))
    exp1 = make_distribution("exp(1)")
    return [
        (write_tree_csv, generate_rrt(50, RngStream(1, 0))),
        (write_tree_csv, generate_rrt(1, RngStream(1, 0))),
        (write_profile_path_csv, grow_and_record(500, (0.2, 0.4, 0.6, 0.8, 1.0), 4,
                                                 RngStream(2, 0))),
        (write_trajectory_csv, simulate_cmj(exp1, 6.0, 2, RngStream(3, 0))),
        (write_trajectory_csv, simulate_cmj(exp1, 0.0, 2, RngStream(3, 0))),
        (write_embedded_tree_csv, simulate_embedded_rrt(40, RngStream(4, 0))),
        (write_renewal_table_csv, build_renewal_table(make_distribution("gamma(2,2)"), 3.0,
                                                      h=0.1, k_max=3)),
        (write_cov_csv, cov),
        (write_samples_csv, sample_limit(cov, 30, RngStream(5, 0))),
    ]


def test_block_boundaries_do_not_move_a_byte(tmp_path, monkeypatch):
    whole = []
    for i, (writer, obj) in enumerate(_artifacts()):
        writer(tmp_path / f"whole{i}.csv", obj)
        whole.append((tmp_path / f"whole{i}.csv").read_bytes())
    monkeypatch.setattr(fileio, "_BLOCK_CELLS", 12)
    blocks = []
    for i, (writer, obj) in enumerate(_artifacts()):
        writer(tmp_path / f"blocks{i}.csv", obj)
        assert (tmp_path / f"blocks{i}.csv").read_bytes() == whole[i]
        header, body = whole[i].split(b"\n", 1)
        rows_per_block = max(1, 12 // (header.count(b",") + 1))
        blocks.append(-(-body.count(b"\n") // rows_per_block))
    assert whole[1] == b"vertex,parent\n"  # the tree of gen-tree --n 0
    assert blocks[1] == blocks[4] == 0
    assert min(blocks[:1] + blocks[2:4] + blocks[5:]) >= 4


def test_writer_failing_mid_stream_keeps_the_old_target(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"
    atomic_write_text(target, "old\n")
    monkeypatch.setattr(fileio, "_BLOCK_CELLS", 2)
    column = np.array([1, 2, 3, 4, 5, "not a number"], dtype=object)
    with pytest.raises(TypeError):
        fileio._write_csv(target, "x", "%d", [(column,)])
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_artifacts_get_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        write_tree_csv(tmp_path / "tree.csv", generate_rrt(5, RngStream(0, 0)))
        atomic_write_text(tmp_path / "note.txt", "x\n")
    finally:
        os.umask(old)
    for name in ("tree.csv", "note.txt"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644


# VmHWM is the peak of this process image alone; ru_maxrss would also keep
# the peak of the test process that spawned it
_GEN_TREE_PROBE = """
import sys
from branchlab.cli import main
assert main(["gen-tree", "--n", "1000000", "--output-dir", sys.argv[1]]) == 0
with open("/proc/self/status") as f:
    print(next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) // 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_tree_csv_streams_in_bounded_memory(tmp_path):
    # about 120 MB, most of it the interpreter with numpy; holding the rows
    # and their join at once took 203 MB
    out = subprocess.run(
        [sys.executable, "-c", _GEN_TREE_PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert int(out.stdout.split()[-1]) < 150


_CMJ_PROBE = """
import sys
from branchlab.cli import main
from branchlab.cmj import simulate_cmj
from branchlab.distributions import make_distribution
from branchlab.rng import RngStream
if sys.argv[1] == "simulate":
    simulate_cmj(make_distribution("exp(1)"), 13.0, 30, RngStream(10, 0))
else:
    argv = ["cmj", "--horizon", "13", "--k-max", "30", "--seed", "10", "--output-dir"]
    assert main(argv + [sys.argv[2]]) == 0
with open("/proc/self/status") as f:
    print(next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) // 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_trajectory_csv_streams_in_bounded_memory(tmp_path):
    # 1.6e6 events: the run alone peaks near 90 MB, and the cmj command writing
    # them in merged time blocks as well about 1 MB more; sorting them all at
    # once, while the run was still held, took 150 MB
    peaks = {}
    for mode in ("simulate", "cmj"):
        out = subprocess.run(
            [sys.executable, "-c", _CMJ_PROBE, mode, str(tmp_path)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        peaks[mode] = int(out.stdout.split()[-1])
    assert [p.name for p in tmp_path.iterdir()] == ["cmj_exp_T13_seed10.csv"]
    assert peaks["cmj"] < peaks["simulate"] + 10
