import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchlab import gaussian_limit, recursive_tree, renewal
from branchlab.cli import _COMMANDS, main
from branchlab.distributions import make_distribution
from branchlab.renewal import table_from_csv
from branchlab.verify import _REGISTRY, manifest_core_bytes

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "manifest_schema.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "branchlab" in capsys.readouterr().out


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_covariance_scalar(capsys):
    code, out, _ = run(capsys, "covariance", "--k", "1", "--l", "1", "--s", "0.25", "--u", "1")
    assert code == 0
    assert out.strip() == "0.25"


def test_covariance_needs_arguments(capsys):
    code, _, err = run(capsys, "covariance")
    assert code == 2
    assert "covariance needs" in err


def test_gen_tree_writes_single_edge(tmp_path, capsys):
    code, out, _ = run(
        capsys, "gen-tree", "--n", "1", "--seed", "7", "--output-dir", str(tmp_path)
    )
    assert code == 0
    written = Path(out.strip())
    assert written.parent == tmp_path
    assert written.read_text() == "vertex,parent\n1,0\n"


def test_gen_tree_env_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BRANCHLAB_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "gen-tree", "--n", "5", "--seed", "1")
    assert code == 0
    assert Path(out.strip()).parent == tmp_path
    assert Path(out.strip()).exists()


def test_gen_tree_out_overrides_name(tmp_path, capsys):
    target = tmp_path / "custom.csv"
    code, out, _ = run(capsys, "gen-tree", "--n", "3", "--out", str(target))
    assert code == 0
    assert out.strip() == str(target)
    assert target.exists()


def test_profile_path_default_grid(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "profile-path",
        "--n-base",
        "100",
        "--k-max",
        "2",
        "--seed",
        "3",
        "--output-dir",
        str(tmp_path),
    )
    assert code == 0
    lines = Path(out.strip()).read_text().splitlines()
    assert lines[0] == "t,k,count"
    # four default grid points, two levels each
    assert len(lines) == 9


def test_cmj_trajectory_artifact(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "cmj",
        "--dist",
        "exp(1)",
        "--horizon",
        "5",
        "--k-max",
        "2",
        "--seed",
        "11",
        "--output-dir",
        str(tmp_path),
    )
    assert code == 0
    lines = Path(out.strip()).read_text().splitlines()
    assert lines[0] == "time,generation,ancestor1"
    assert len(lines) > 1


def test_cmj_embedded_artifact(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "cmj",
        "--embedded",
        "12",
        "--seed",
        "2",
        "--output-dir",
        str(tmp_path),
    )
    assert code == 0
    lines = Path(out.strip()).read_text().splitlines()
    assert lines[0] == "vertex,parent,birth_time"
    assert len(lines) == 13


def test_cmj_embedded_past_the_cap_is_usage_error(tmp_path, capsys):
    code, out, err = run(
        capsys, "cmj", "--embedded", "1000000000000", "--output-dir", str(tmp_path)
    )
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.strip()]
    assert list(tmp_path.iterdir()) == []


def test_cmj_rejects_bad_descriptor(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "cmj",
        "--dist",
        "cauchy(1)",
        "--output-dir",
        str(tmp_path),
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "dist",
    [
        "exp(1e300)",
        "uniform(1e308,1.7e308)",
        "gamma(1e-300,1e-300)",
        "exp(nan)",
        "det(1e-320)",
        "gamma(5e-324,1)",
    ],
)
def test_degenerate_law_is_usage_error(tmp_path, capsys, dist):
    code, out, err = run(capsys, "renewal-table", "--dist", dist, "--output-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and dist in err
    assert list(tmp_path.iterdir()) == []


def test_renewal_table_round_trip(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "renewal-table",
        "--dist",
        "gamma(2,2)",
        "--t-max",
        "2",
        "--h",
        "0.05",
        "--k-max",
        "2",
        "--output-dir",
        str(tmp_path),
    )
    assert code == 0
    table = table_from_csv(out.strip(), make_distribution("gamma(2,2)"))
    assert table.k_max == 2
    assert table.h == 0.05


@pytest.mark.parametrize("dist", ["det(1)", "gamma(2,2)"])
def test_renewal_table_round_trip_through_fft_orders(tmp_path, capsys, dist):
    # 50000 cells: U2 and U3 come from the FFT convolution branch
    code, out, _ = run(
        capsys,
        "renewal-table",
        "--dist",
        dist,
        "--t-max",
        "500",
        "--h",
        "0.01",
        "--k-max",
        "3",
        "--output-dir",
        str(tmp_path),
    )
    assert code == 0
    table = table_from_csv(out.strip(), make_distribution(dist))
    assert table.k_max == 3
    assert np.all(np.diff(table.uk, axis=1) >= 0)
    if dist == "det(1)":
        assert np.array_equal(table.uk[0], np.floor(table.grid + 1e-12))


@pytest.mark.parametrize(
    "argv",
    [
        ["profile-path", "--t-grid", "inf"],
        ["profile-path", "--t-grid", "0.5,inf"],
        ["profile-path", "--t-grid", "nan"],
        ["profile-path", "--t-grid", "0.5,nan"],
        ["renewal-table", "--t-max", "inf"],
        ["renewal-table", "--t-max", "nan"],
        ["renewal-table", "--h", "inf"],
        ["renewal-table", "--h", "nan"],
        ["limit-sample", "--t-grid", "nan,1"],
        ["covariance", "--k-max", "2", "--t-grid", "inf"],
        ["covariance", "--k", "1", "--l", "1", "--s", "nan", "--u", "1"],
    ],
)
def test_non_finite_input_is_usage_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--output-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["limit-sample", "--k-max", "2", "--t-grid", "1", "--m", "1000000000000"],
        ["covariance", "--k-max", "100000", "--t-grid", "1"],
        ["profile-path", "--n-base", "10", "--t-grid", "1", "--k-max", "1000000000000"],
        ["cmj", "--dist", "gamma(1e-300,1)", "--horizon", "5", "--k-max", "2"],
        ["cmj", "--horizon", "1", "--k-max", "100000000"],
    ],
)
def test_sizes_past_their_caps_are_usage_errors(tmp_path, capsys, argv):
    # each is refused before its array is allocated (14.6 TiB of draws, a
    # 74.5 GiB matrix, a 7.28 TiB snapshot table, an expected event count
    # past the double range: horizon/mu = 5e300, 10**8 generations)
    code, out, err = run(capsys, *argv, "--output-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1
    assert list(tmp_path.iterdir()) == []


def test_limit_sample_artifact(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "limit-sample",
        "--k-max",
        "2",
        "--t-grid",
        "0.5,1",
        "--m",
        "20",
        "--seed",
        "4",
        "--output-dir",
        str(tmp_path),
    )
    assert code == 0
    lines = Path(out.strip()).read_text().splitlines()
    assert lines[0] == "k1_t0.5,k1_t1,k2_t0.5,k2_t1"
    assert len(lines) == 21


def test_covariance_matrix_artifact(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "covariance",
        "--k-max",
        "2",
        "--t-grid",
        "0.5,1",
        "--output-dir",
        str(tmp_path),
    )
    assert code == 0
    lines = Path(out.strip()).read_text().splitlines()
    assert lines[0].startswith("index,k1_t0.5")
    assert len(lines) == 5


def test_config_precedence(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 4, "seed": 9, "output-dir": str(tmp_path)}))
    # config supplies n and seed
    code, out, _ = run(capsys, "gen-tree", "--config", str(config))
    assert code == 0
    assert Path(out.strip()).name == "tree_n4_seed9.csv"
    # an explicit flag beats the config value
    code, out, _ = run(capsys, "gen-tree", "--config", str(config), "--n", "2")
    assert code == 0
    assert Path(out.strip()).name == "tree_n2_seed9.csv"


def test_config_must_be_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1,2]")
    code, _, err = run(capsys, "gen-tree", "--config", str(config))
    assert code == 2
    assert "JSON object" in err


def test_bad_grid_is_usage_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "limit-sample",
        "--t-grid",
        "0.5,zebra",
        "--output-dir",
        str(tmp_path),
    )
    assert code == 2
    assert "could not parse grid" in err


def run_config(tmp_path, capsys, config, *argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return run(capsys, *argv, "--config", str(path), "--output-dir", str(tmp_path))


def test_config_quick_false_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_registry(cfg):
        raise AssertionError("registry ran")

    monkeypatch.setattr("branchlab.cli.verify_suite", no_registry)
    with pytest.raises(SystemExit) as exc:
        run_config(tmp_path, capsys, {"quick": "false"}, "verify")
    assert exc.value.code == 2
    assert "--quick" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize(
    "command, config", [("gen-tree", {"sead": None}), ("verify", {"quick_mode": False})]
)
def test_config_unknown_key_is_usage_error_whatever_its_value(
    tmp_path, capsys, monkeypatch, command, config
):
    # false and null add no flag, so only the key check can refuse these
    def no_registry(cfg):
        raise AssertionError("registry ran")

    monkeypatch.setattr("branchlab.cli.verify_suite", no_registry)
    with pytest.raises(SystemExit) as exc:
        run_config(tmp_path, capsys, config, command)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_config_null_keeps_default(tmp_path, capsys):
    code, out, _ = run_config(tmp_path, capsys, {"n": None, "seed": False}, "gen-tree")
    assert code == 0
    assert Path(out.strip()).name == "tree_n100_seed0.csv"


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("gen-tree", {"n": True}, "expected one argument"),
        ("gen-tree", {"seed": 1.7}, "invalid int value"),
        ("gen-tree", {"sead": 5}, "unrecognized arguments"),
        # profile-path has --k-max but no --k
        ("profile-path", {"k": 3}, "unrecognized arguments"),
    ],
)
def test_config_values_parse_as_flags(tmp_path, capsys, command, config, message):
    with pytest.raises(SystemExit) as exc:
        run_config(tmp_path, capsys, config, command)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize("key", ["", "seed=3"])
def test_config_key_must_be_a_flag_name(tmp_path, capsys, key):
    code, out, err = run_config(tmp_path, capsys, {key: True}, "gen-tree")
    assert code == 2
    assert out == ""
    assert "is not a flag name" in err


def test_abbreviated_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile-path", "--k", "3", "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_list_is_a_grid(tmp_path, capsys):
    code, out, _ = run_config(tmp_path, capsys, {"t_grid": [0.5, 1], "m": 3}, "limit-sample")
    assert code == 0
    lines = Path(out.strip()).read_text().splitlines()
    assert lines[0] == "k1_t0.5,k1_t1,k2_t0.5,k2_t1"
    assert len(lines) == 4


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("broken command")

    monkeypatch.setitem(_COMMANDS, "gen-tree", broken)
    code, out, err = run(capsys, "gen-tree", "--output-dir", str(tmp_path))
    assert code == 3
    assert out == ""
    assert "Traceback" in err
    assert "RuntimeError: broken command" in err


def test_renewal_grid_past_the_cap_is_usage_error(tmp_path, capsys, monkeypatch):
    # 10**7 cells: the O(n^2) solve would take hours, so it must never start
    def no_solve(*args):
        raise AssertionError("solve started")

    monkeypatch.setattr(renewal, "_volterra_u", no_solve)
    code, out, err = run(
        capsys, "renewal-table", "--t-max", "100000", "--h", "0.01", "--output-dir", str(tmp_path)
    )
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.strip()]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        # 2000 orders of 5001 points: a 10**7-value table and a 232 MB CSV
        ["--k-max", "2000"],
        ["--k-max", "0", "--t-max", "1000"],
    ],
)
def test_renewal_orders_past_the_cap_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    def no_solve(*args):
        raise AssertionError("solve started")

    monkeypatch.setattr(renewal, "_volterra_u", no_solve)
    code, out, err = run(capsys, "renewal-table", *argv, "--output-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.strip()]
    assert list(tmp_path.iterdir()) == []


def test_renewal_grid_without_a_pivot_is_usage_error(tmp_path, capsys):
    # one cell of width 2**53 + 4: the solve refuses it instead of writing nan
    code, out, err = run(
        capsys, "renewal-table", "--h", "9007199254740996", "--output-dir", str(tmp_path)
    )
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.strip()]
    assert list(tmp_path.iterdir()) == []


def _numeric_cells(path):
    for line in path.read_text().splitlines():
        for cell in line.split(","):
            try:
                yield float(cell)
            except ValueError:  # a header label
                pass


# Each subcommand's own flags; config keys may also be unknown or abbreviate one.
_CONFIG_FLAGS = {
    "gen-tree": ("n", "seed"),
    "profile-path": ("n-base", "t-grid", "k-max", "seed"),
    "renewal-table": ("dist", "t-max", "h", "k-max"),
    "limit-sample": ("k-max", "t-grid", "m", "seed"),
    "covariance": ("k", "l", "s", "u"),
}
_NUMBERS = st.integers(-5, 50) | st.floats(-50, 50) | st.floats()
# numbers twice, so that more configs get past argparse into the commands
_SCALARS = (
    st.none()
    | st.booleans()
    | _NUMBERS
    | _NUMBERS
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=6)
)
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=4)


@st.composite
def _config_cases(draw):
    command = draw(st.sampled_from(sorted(_CONFIG_FLAGS)))
    keys = _CONFIG_FLAGS[command] + (draw(st.sampled_from(["sead", "k", "t"])),)
    config = draw(st.fixed_dictionaries({}, optional={key: _VALUES for key in keys}))
    return command, config


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(_config_cases())
@example(("renewal-table", {"h": 9007199254740996}))  # one cell, no pivot: once a nan table
def test_any_config_is_accepted_or_refused_cleanly(case):
    command, config = case
    # the caps are scaled down so that every accepted size finishes in
    # milliseconds; the real caps have their own tests above
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursive_tree, "MAX_TREE_VERTICES", 2**16)
        mp.setattr(recursive_tree, "MAX_PATH_CELLS", 2**10)
        mp.setattr(renewal, "MAX_GRID_CELLS", 2**14)
        mp.setattr(renewal, "MAX_TABLE_VALUES", 2**16)
        mp.setattr(gaussian_limit, "MAX_COV_DIM", 24)
        mp.setattr(gaussian_limit, "MAX_SAMPLE_CELLS", 2**14)
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        try:
            code = main([command, "--config", str(path), "--output-dir", tmp])
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 2)
        if code == 0:
            for csv in Path(tmp).glob("*.csv"):
                assert all(map(math.isfinite, _numeric_cells(csv))), csv.name


@pytest.fixture(scope="module")
def quick_manifests(tmp_path_factory):
    """Two quick verification runs, single- and dual-worker."""
    outs = {}
    for workers in (1, 2):
        directory = tmp_path_factory.mktemp(f"verify_w{workers}")
        code = main(
            [
                "verify",
                "--quick",
                "--seed",
                "42",
                "--workers",
                str(workers),
                "--output-dir",
                str(directory),
            ]
        )
        path = directory / "manifest_seed42_quick.json"
        manifest = json.loads(path.read_text())
        core_hash = hashlib.sha256(manifest_core_bytes(manifest)).hexdigest()
        assert manifest["determinism_hash"] == core_hash
        outs[workers] = (code, manifest)
    return outs


def test_verify_quick_passes(quick_manifests, capsys):
    code, manifest = quick_manifests[1]
    assert code == 0
    assert manifest["summary"]["all_gating_pass"] is True
    assert manifest["config"]["quick"] is True


def test_verify_quick_deterministic_across_workers(quick_manifests):
    _, one = quick_manifests[1]
    _, two = quick_manifests[2]
    assert one["determinism_hash"] == two["determinism_hash"]
    assert one["results"] == two["results"]


def test_manifest_matches_schema(quick_manifests):
    jsonschema = pytest.importorskip("jsonschema")
    _, manifest = quick_manifests[1]
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(manifest, schema)


def test_manifest_times_every_group(quick_manifests):
    _, manifest = quick_manifests[1]
    timings = manifest["provenance"]["group_wall_s"]
    assert sorted(timings) == sorted(group for group, _ in _REGISTRY)
    assert all(seconds >= 0 for seconds in timings.values())
    assert sum(timings.values()) <= manifest["provenance"]["wall_time_s"] + 1e-6
