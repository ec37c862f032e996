"""Config parsing, the three commands, exports, exit codes, determinism."""

import csv
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from spectral_options.env import bundled_map_text, load_gridworld
from spectral_options.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    build_parser,
    load_config,
    main,
    membership_heatmap,
    read_features,
    write_pgm,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DISCOVER_INI = str(CONFIG_DIR / "three_rooms.ini")
TRAIN_INI = str(CONFIG_DIR / "three_rooms_train.ini")

ONE_ROOM = """#######
#S....#
#.....#
#....G#
#######
"""


def room_of(cell):
    _, c = cell
    if c < 6:
        return "L"
    if c == 6:
        return "d1"
    if c < 12:
        return "M"
    if c == 12:
        return "d2"
    return "R"


def read_pgm(path):
    data = Path(path).read_bytes()
    magic, dims, maxval, raster = data.split(b"\n", 3)
    assert magic == b"P5" and maxval == b"255"
    w, h = (int(x) for x in dims.split())
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def dir_digest(path):
    digest = {}
    for name in sorted(os.listdir(path)):
        digest[name] = hashlib.sha256((Path(path) / name).read_bytes()).hexdigest()
    return digest


@pytest.fixture(scope="module")
def discover_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("discover")
    assert main(["discover", DISCOVER_INI, "--out-dir", str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def weighted_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("weighted")
    rc = main(["discover", DISCOVER_INI, "--set", "model.reward_weighting=true",
               "--out-dir", str(out)])
    assert rc == EXIT_OK
    return out


@pytest.fixture(scope="module")
def train_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    assert main(["train", TRAIN_INI, "--out-dir", str(out)]) == EXIT_OK
    return out


# --- config loading ----------------------------------------------------------

def write_config(tmp_path, body):
    path = tmp_path / "exp.ini"
    path.write_text(body)
    return str(path)


def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, "[environment]\nmap = three_rooms\n"))
    assert cfg[("spectral", "t_c")] == 0.5
    assert cfg[("pipeline", "seed")] == 0
    assert cfg[("output", "directory")] == "out"
    assert cfg.world().n_states == 77


def test_unknown_block_rejected(tmp_path):
    path = write_config(tmp_path, "[environment]\nmap = three_rooms\n[extra]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "[environment]\nmap = three_rooms\nwind = 3\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_value_type_rejected(tmp_path):
    path = write_config(tmp_path,
                        "[environment]\nmap = three_rooms\n[spectral]\nt_c = warm\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_map_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "[spectral]\nt_c = 0.6\n"))


def test_unresolvable_map_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "[environment]\nmap = atlantis\n"))


def test_map_loaded_from_file_path(tmp_path):
    map_path = tmp_path / "room.txt"
    map_path.write_text(ONE_ROOM)
    cfg = load_config(write_config(tmp_path, f"[environment]\nmap = {map_path}\n"))
    assert cfg.world().n_states == 15


def test_override_applied(tmp_path):
    path = write_config(tmp_path, "[environment]\nmap = three_rooms\n")
    cfg = load_config(path, overrides=["spectral.k=3", "agent.alpha=0.2"])
    assert cfg[("spectral", "k")] == 3
    assert cfg[("agent", "alpha")] == 0.2


def test_malformed_override_rejected(tmp_path):
    path = write_config(tmp_path, "[environment]\nmap = three_rooms\n")
    with pytest.raises(ConfigError):
        load_config(path, overrides=["alpha=0.2"])
    with pytest.raises(ConfigError):
        load_config(path, overrides=["agent.rho=0.2"])


def test_seed_and_out_dir_arguments_win(tmp_path):
    path = write_config(tmp_path,
                        "[environment]\nmap = three_rooms\n[pipeline]\nseed = 4\n")
    cfg = load_config(path, seed=9, out_dir="elsewhere")
    assert cfg[("pipeline", "seed")] == 9
    assert cfg[("output", "directory")] == "elsewhere"


def test_module_invariants_enforced_at_load(tmp_path):
    bad_learner = write_config(tmp_path,
                               "[environment]\nmap = three_rooms\n"
                               "[agent]\nlearner = sarsa\n")
    with pytest.raises(ConfigError):
        load_config(bad_learner)
    bad_world = write_config(tmp_path,
                             "[environment]\nmap = three_rooms\nslip_prob = 2.0\n")
    with pytest.raises(ConfigError):
        load_config(bad_world)


# --- exit codes --------------------------------------------------------------

def test_missing_config_file_is_config_error(tmp_path):
    assert main(["discover", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


def test_numeric_failure_exit_code(tmp_path):
    rc = main(["discover", DISCOVER_INI, "--out-dir", str(tmp_path / "o"),
               "--set", "spectral.k=100",
               "--set", "pipeline.max_rounds=1",
               "--set", "pipeline.episodes_per_round=1"])
    assert rc == EXIT_NUMERIC


def test_io_failure_exit_code(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["discover", DISCOVER_INI, "--out-dir", str(blocker / "sub")])
    assert rc == EXIT_IO


def test_features_flag_required_for_aggregate():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["aggregate", "exp.ini"])


# --- discover ----------------------------------------------------------------

def test_discover_summary_three_rooms(discover_out):
    (row,) = read_csv_rows(discover_out / "discover_summary.csv")
    assert row == {"k": "3", "fallback": "False", "n_options": "4",
                   "n_states": "77", "episodes_sampled": "152"}


def test_discover_outputs_exist(discover_out):
    expected = {"chi.csv", "connectivity.csv", "eigenvalues.csv", "options.csv",
                "options_policy.csv", "options_termination.csv",
                "discover_summary.csv", "membership_S0.pgm", "membership_S1.pgm",
                "membership_S2.pgm"}
    assert set(os.listdir(discover_out)) == expected


def test_heatmaps_bright_over_one_room_each(discover_out):
    world = load_gridworld(bundled_map_text("three_rooms"))
    seen = set()
    bright_rooms = []
    for i in range(3):
        img = read_pgm(discover_out / f"membership_S{i}.pgm")
        bright = {(r, c) for r in range(world.height) for c in range(world.width)
                  if img[r, c] >= 128}
        rooms = {room_of(cell) for cell in bright} - {"d1", "d2"}
        assert len(rooms) == 1        # bright over exactly one room
        bright_rooms.append(rooms.pop())
        seen |= bright
    assert sorted(bright_rooms) == ["L", "M", "R"]
    assert seen == set(world.cells)   # every open cell is claimed somewhere


def test_heatmap_pixels_match_chi_exactly(discover_out):
    world = load_gridworld(bundled_map_text("three_rooms"))
    rows = read_csv_rows(discover_out / "chi.csv")
    for i in range(3):
        img = read_pgm(discover_out / f"membership_S{i}.pgm")
        for row in rows:
            r, c = int(row["row"]), int(row["col"])
            assert img[r, c] == int(np.rint(255.0 * float(row[f"chi_{i}"])))
        walls = img.copy()
        for (r, c) in world.cells:
            walls[r, c] = 0
        assert (walls == 0).all()     # everything except open cells is black


def test_chi_rows_on_the_simplex(discover_out):
    for row in read_csv_rows(discover_out / "chi.csv"):
        chi = [float(row[f"chi_{i}"]) for i in range(3)]
        assert sum(chi) == pytest.approx(1.0)
        assert all(x >= 0 for x in chi)


def test_discover_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["discover", DISCOVER_INI, "--out-dir", str(a)]) == EXIT_OK
    assert main(["discover", DISCOVER_INI, "--out-dir", str(b)]) == EXIT_OK
    assert dir_digest(a) == dir_digest(b)


def test_reward_weighting_isolates_goal(weighted_out):
    (row,) = read_csv_rows(weighted_out / "discover_summary.csv")
    assert row["k"] == "4" and row["fallback"] == "False"
    world = load_gridworld(bundled_map_text("three_rooms"))
    goal_cell = world.cells[next(iter(world.goals))]
    singleton_heatmaps = []
    for i in range(4):
        img = read_pgm(weighted_out / f"membership_S{i}.pgm")
        bright = {(r, c) for r in range(world.height) for c in range(world.width)
                  if img[r, c] >= 128}
        if len(bright) == 1:
            singleton_heatmaps.append(bright)
    assert singleton_heatmaps == [{goal_cell}]


def test_one_room_map_runs_with_flagged_k(tmp_path):
    map_path = tmp_path / "one_room.txt"
    map_path.write_text(ONE_ROOM)
    ini = tmp_path / "one_room.ini"
    ini.write_text(f"""[environment]
map = {map_path}
[spectral]
t_c = 0.75
[pipeline]
episodes_per_round = 15
max_rounds = 4
max_steps_per_episode = 200
""")
    out = tmp_path / "out"
    assert main(["discover", str(ini), "--out-dir", str(out)]) == EXIT_OK
    (row,) = read_csv_rows(out / "discover_summary.csv")
    assert row["fallback"] == "True"


def test_output_toggles(tmp_path):
    out = tmp_path / "quiet"
    rc = main(["discover", DISCOVER_INI, "--out-dir", str(out),
               "--set", "output.heatmaps=false", "--set", "output.csv=false",
               "--set", "output.model=true"])
    assert rc == EXIT_OK
    names = set(os.listdir(out))
    assert not any(n.endswith(".pgm") for n in names)
    assert "chi.csv" not in names
    assert {"discover_summary.csv", "model.csv"} <= names
    with open(out / "model.csv") as fh:
        assert fh.readline().strip() == "s,a,next_s,count,reward_mean"


# --- train -------------------------------------------------------------------

def test_train_outputs_exist(train_out):
    assert set(os.listdir(train_out)) == {"episodes_flat.csv",
                                          "episodes_smdp.csv", "summary.csv"}


def test_train_summary_option_learner_wins(train_out):
    rows = {r["learner"]: r for r in read_csv_rows(train_out / "summary.csv")}
    assert set(rows) == {"flat", "smdp"}
    flat, smdp = rows["flat"], rows["smdp"]
    assert int(smdp["episodes_to_plateau"]) <= int(flat["episodes_to_plateau"])
    assert float(smdp["mean_decision_epochs"]) < float(flat["mean_decision_epochs"])
    assert float(smdp["mean_return"]) > 0 and float(flat["mean_return"]) > 0


def test_train_episode_logs_well_formed(train_out):
    summary = {r["learner"]: r for r in read_csv_rows(train_out / "summary.csv")}
    for learner in ("flat", "smdp"):
        rows = read_csv_rows(train_out / f"episodes_{learner}.csv")
        assert len(rows) == int(summary[learner]["episodes"])
        assert [int(r["episode"]) for r in rows] == list(range(len(rows)))
        for r in rows:
            float(r["return"])
            assert int(r["decision_epochs"]) >= 1
            assert int(r["primitive_steps"]) >= 1


def test_train_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", TRAIN_INI, "--out-dir", str(a)]) == EXIT_OK
    assert main(["train", TRAIN_INI, "--out-dir", str(b)]) == EXIT_OK
    assert dir_digest(a) == dir_digest(b)


def test_train_zero_rounds_clean_exit(tmp_path):
    out = tmp_path / "empty"
    rc = main(["train", TRAIN_INI, "--out-dir", str(out),
               "--set", "pipeline.max_rounds=0"])
    assert rc == EXIT_OK
    assert read_csv_rows(out / "episodes_flat.csv") == []
    for row in read_csv_rows(out / "summary.csv"):
        assert row["episodes"] == "0"


def test_train_flat_only(tmp_path):
    out = tmp_path / "flat"
    rc = main(["train", TRAIN_INI, "--out-dir", str(out),
               "--set", "agent.learner=flat",
               "--set", "pipeline.max_rounds=2"])
    assert rc == EXIT_OK
    assert set(os.listdir(out)) == {"episodes_flat.csv", "summary.csv"}


# --- aggregate ---------------------------------------------------------------

def write_features(path, array):
    with open(path, "w") as fh:
        for row in np.atleast_2d(array):
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def test_aggregate_one_hot_identity(tmp_path):
    features = tmp_path / "onehot.txt"
    write_features(features, np.eye(77))
    out = tmp_path / "out"
    rc = main(["aggregate", DISCOVER_INI, "--features", str(features),
               "--out-dir", str(out), "--set", "pipeline.k_m=77",
               "--set", "pipeline.max_rounds=2"])
    assert rc == EXIT_OK
    rows = read_csv_rows(out / "microstates.csv")
    assignments = [int(r["microstate"]) for r in rows]
    assert sorted(assignments) == list(range(77))     # a permutation: identity
    assert len(read_csv_rows(out / "centroids.csv")) == 77
    with open(out / "aggregated_model.csv") as fh:
        assert fh.readline().strip() == "s,a,next_s,count,reward_mean"


def test_aggregate_two_gaussian_features(tmp_path):
    rng = np.random.default_rng(1)
    pts = np.vstack([rng.normal(0.0, 1.0, size=(39, 2)),
                     rng.normal(10.0, 1.0, size=(38, 2))])
    features = tmp_path / "gauss.txt"
    write_features(features, pts)
    out = tmp_path / "out"
    rc = main(["aggregate", DISCOVER_INI, "--features", str(features),
               "--out-dir", str(out), "--set", "pipeline.k_m=2",
               "--set", "pipeline.max_rounds=2"])
    assert rc == EXIT_OK
    rows = read_csv_rows(out / "microstates.csv")
    labels = np.array([0] * 39 + [1] * 38)
    assigned = np.array([int(r["microstate"]) for r in rows])
    agree = 0
    for c in (0, 1):
        mask = assigned == c
        majority = np.bincount(labels[mask]).argmax()
        agree += int((labels[mask] == majority).sum())
    assert agree / 77 >= 0.99
    model_rows = read_csv_rows(out / "aggregated_model.csv")
    assert {int(r["s"]) for r in model_rows} <= {0, 1}


def test_aggregate_requires_k_m(tmp_path):
    features = tmp_path / "onehot.txt"
    write_features(features, np.eye(77))
    rc = main(["aggregate", DISCOVER_INI, "--features", str(features),
               "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG


def test_aggregate_too_few_feature_rows(tmp_path):
    features = tmp_path / "short.txt"
    write_features(features, np.eye(5))
    rc = main(["aggregate", DISCOVER_INI, "--features", str(features),
               "--out-dir", str(tmp_path / "o"), "--set", "pipeline.k_m=2"])
    assert rc == EXIT_CONFIG


def test_aggregate_k_m_above_distinct_points(tmp_path, capsys):
    features = tmp_path / "three_points.txt"
    write_features(features, np.repeat(np.eye(3), [26, 26, 25], axis=0))
    rc = main(["aggregate", DISCOVER_INI, "--features", str(features),
               "--out-dir", str(tmp_path / "o"), "--set", "pipeline.k_m=5"])
    assert rc == EXIT_CONFIG
    assert "k_m" in capsys.readouterr().err


def test_aggregate_row_check_precedes_kmeans(tmp_path, capsys):
    features = tmp_path / "three_rows.txt"
    write_features(features, np.eye(3))
    rc = main(["aggregate", DISCOVER_INI, "--features", str(features),
               "--out-dir", str(tmp_path / "o"), "--set", "pipeline.k_m=5"])
    assert rc == EXIT_CONFIG
    assert "feature file has 3 rows" in capsys.readouterr().err


def test_aggregate_empty_feature_file(tmp_path):
    features = tmp_path / "empty.txt"
    features.write_text("# only a comment\n")
    rc = main(["aggregate", DISCOVER_INI, "--features", str(features),
               "--out-dir", str(tmp_path / "o"), "--set", "pipeline.k_m=2"])
    assert rc == EXIT_CONFIG


def test_aggregate_malformed_record_reports_line(tmp_path, capsys):
    features = tmp_path / "bad.txt"
    features.write_text("1.0 2.0\n2.0 3.0\n2.0 oops\n")
    rc = main(["aggregate", DISCOVER_INI, "--features", str(features),
               "--out-dir", str(tmp_path / "o"), "--set", "pipeline.k_m=2"])
    assert rc == EXIT_CONFIG
    assert f"{features}:3" in capsys.readouterr().err


def test_read_features_formats(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("# header comment\n1.0, 2.0\n3.0 4.0\n\n5e0,6.0\n")
    assert np.array_equal(read_features(str(path)),
                          [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_read_features_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.txt"
    path.write_text("1.0 2.0\n3.0\n")
    with pytest.raises(ConfigError):
        read_features(str(path))


# --- heatmap primitives ------------------------------------------------------

def test_write_pgm_round_trip(tmp_path):
    pixels = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "img.pgm"
    write_pgm(path, pixels)
    assert np.array_equal(read_pgm(path), pixels)


def test_membership_heatmap_contract():
    world = load_gridworld(ONE_ROOM)
    chi = np.linspace(0.0, 1.0, world.n_states)
    img = membership_heatmap(world, chi)
    for s, (r, c) in enumerate(world.cells):
        assert img[r, c] == int(np.rint(255.0 * chi[s]))
    assert img[0, 0] == 0 and img.shape == (world.height, world.width)
