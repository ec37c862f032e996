"""Config parsing, the three commands, exports, exit codes, determinism."""

import csv
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from spectral_options import cli
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
    rc = main(["discover", DISCOVER_INI, "--set", "model.v=4.0",
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


DEFAULTS = {
    ("environment", "map"): "three_rooms",
    ("environment", "goal_reward"): 1.0,
    ("environment", "step_reward"): 0.0,
    ("environment", "slip_prob"): 0.0,
    ("model", "v"): 0.0,
    ("spectral", "t_c"): 0.5,
    ("spectral", "tau_conn"): 0.1,
    ("spectral", "k"): 0,
    ("agent", "learner"): "smdp",
    ("agent", "alpha"): 0.1,
    ("agent", "gamma"): 0.99,
    ("agent", "eps_start"): 1.0,
    ("agent", "eps_end"): 0.05,
    ("agent", "eps_anneal_episodes"): 0,
    ("pipeline", "episodes_per_round"): 10,
    ("pipeline", "max_rounds"): 50,
    ("pipeline", "pcca_refresh_interval"): 10,
    ("pipeline", "max_steps_per_episode"): 400,
    ("pipeline", "convergence_window"): 20,
    ("pipeline", "seed"): 0,
    ("pipeline", "k_m"): 0,
    ("output", "directory"): "out",
    ("output", "model"): False,
}


def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, "[environment]\nmap = three_rooms\n"))
    assert set(cfg.values) == set(DEFAULTS)
    for block_key, value in DEFAULTS.items():
        assert cfg[block_key] == value, block_key
        assert type(cfg[block_key]) is type(value), block_key
    assert cfg.world().n_states == 77


def test_layout_places_every_config_field_once():
    from dataclasses import fields
    from spectral_options.cli import LAYOUT, CommandConfig
    from spectral_options.pipeline import OdstcConfig

    placed = [key for keys in LAYOUT.values() for key in keys]
    declared = [f.name for cls in (OdstcConfig, CommandConfig) for f in fields(cls)]
    assert sorted(placed) == sorted(declared)
    assert len(set(declared)) == len(declared) == len(DEFAULTS)


def test_unknown_block_rejected(tmp_path):
    path = write_config(tmp_path, "[environment]\nmap = three_rooms\n[extra]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "[environment]\nmap = three_rooms\nwind = 3\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("given_by", ["set", "ini"])
@pytest.mark.parametrize("setting", ["model.reward_weighting=true", "model.d_prior=0.0",
                                     "model.u_prior=0.0", "output.csv=true",
                                     "output.heatmaps=false", "pipeline.kmeans_max_iters=100"])
def test_removed_model_key_rejected(tmp_path, capsys, setting, given_by):
    # v = 0 turns reward weighting off, so no separate switch exists, and the
    # counts take no uniform prior.  discover always writes every CSV and
    # heatmap, and aggregate runs k-means with its own iteration cap.  A config
    # that still sets one of these keys fails loudly.
    target, value = setting.split("=")
    block, key = target.split(".")
    if given_by == "set":
        argv = ["discover", DISCOVER_INI, "--set", setting]
    else:
        text = Path(DISCOVER_INI).read_text()
        text = text.replace(f"[{block}]\n", f"[{block}]\n{key} = {value}\n")
        argv = ["discover", write_config(tmp_path, text)]
    rc = main(argv + ["--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG and not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "unknown" in err and key in err


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


FLOAT_KEYS = [block_key for block_key, value in DEFAULTS.items() if type(value) is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("block, key", FLOAT_KEYS)
def test_non_finite_float_override_is_config_error(tmp_path, capsys, block, key, value):
    out = tmp_path / "o"
    rc = main(["discover", DISCOVER_INI, "--out-dir", str(out),
               "--set", f"{block}.{key}={value}"])
    assert rc == EXIT_CONFIG
    assert not out.exists()
    assert f"[{block}] {key}: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["environment.step_reward=nan", "spectral.tau_conn=inf",
                                     "model.v=1e999"])
def test_non_finite_float_rejected_before_training(tmp_path, setting):
    out = tmp_path / "o"
    rc = main(["train", TRAIN_INI, "--out-dir", str(out), "--set", setting])
    assert rc == EXIT_CONFIG
    assert not out.exists()


def test_non_finite_float_in_config_file_rejected(tmp_path):
    path = write_config(tmp_path, "[environment]\nmap = three_rooms\n"
                                  "[spectral]\ntau_conn = nan\n")
    with pytest.raises(ConfigError, match=r"\[spectral\] tau_conn: must be finite"):
        load_config(path)


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


def test_discover_numeric_failure_leaves_no_out_dir(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["discover", DISCOVER_INI, "--out-dir", str(out), "--set", "spectral.k=80"])
    assert rc == EXIT_NUMERIC
    assert "k=80" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("max_steps", [3, 200])
def test_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch, max_steps):
    # 38 episodes: blocks of 1 episode, of 7 // max_steps (1 or 2, the last
    # block short at 2) and all 38 in one block.
    features = tmp_path / "features.txt"
    write_features(features, np.arange(77.0).reshape(-1, 1) % 9)
    sets = ["--set", "pipeline.max_rounds=2", "--set", f"pipeline.max_steps_per_episode={max_steps}",
            "--set", "pipeline.k_m=9", "--set", "output.model=true"]
    digests, blocks = [], []
    for size in (1, 7, cli._BLOCK_STEPS):
        monkeypatch.setattr(cli, "_BLOCK_STEPS", size)
        out = tmp_path / str(size)
        assert main(["discover", DISCOVER_INI, "--out-dir", str(out / "d")] + sets) == EXIT_OK
        assert main(["aggregate", DISCOVER_INI, "--features", str(features),
                     "--out-dir", str(out / "a")] + sets) == EXIT_OK
        digests.append((dir_digest(out / "d"), dir_digest(out / "a")))
        cfg = load_config(DISCOVER_INI, overrides=sets[1::2])
        blocks.append(len(list(cli._sampled_episodes(cfg.world(), cfg.odstc()))))
    assert digests[0] == digests[1] == digests[2]
    assert blocks == [38, 19 if max_steps == 3 else 38, 1]


def test_discover_without_fallback_is_silent(tmp_path, capsys):
    assert main(["discover", DISCOVER_INI, "--out-dir", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_gap_rule_fallback_warns(tmp_path, capsys):
    rc = main(["discover", DISCOVER_INI, "--out-dir", str(tmp_path),
               "--set", "spectral.t_c=0.99"])
    assert rc == EXIT_OK
    (row,) = read_csv_rows(tmp_path / "discover_summary.csv")
    assert row["fallback"] == "True"
    err = capsys.readouterr().err
    assert err.startswith("warning:")
    assert "t_c=0.99" in err and f"k={row['k']}" in err


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


def test_output_toggles(tmp_path, discover_out):
    # discover always writes every CSV and heatmap (test_discover_outputs_exist);
    # output.model adds model.csv and changes no other file.
    out = tmp_path / "with_model"
    rc = main(["discover", DISCOVER_INI, "--out-dir", str(out),
               "--set", "output.model=true"])
    assert rc == EXIT_OK
    digest = dir_digest(out)
    assert "model.csv" in digest
    del digest["model.csv"]
    assert digest == dir_digest(discover_out)
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


def test_train_summary_of_a_run_shorter_than_the_window(tmp_path):
    # 15 episodes against a convergence window of 20: the summary averages
    # all 15, not the last 5 that a negative slice start would select.
    rc = main(["train", TRAIN_INI, "--out-dir", str(tmp_path),
               "--set", "agent.learner=flat",
               "--set", "pipeline.max_rounds=1",
               "--set", "pipeline.episodes_per_round=15",
               "--set", "pipeline.max_steps_per_episode=400"])
    assert rc == EXIT_OK
    episodes = read_csv_rows(tmp_path / "episodes_flat.csv")
    assert len(episodes) == 15
    (row,) = read_csv_rows(tmp_path / "summary.csv")
    assert row["episodes_to_plateau"] == "15"
    assert float(row["mean_decision_epochs"]) == pytest.approx(
        np.mean([int(r["decision_epochs"]) for r in episodes]))
    assert float(row["mean_return"]) == pytest.approx(
        np.mean([float(r["return"]) for r in episodes]))


def test_train_reports_clustering_failure(tmp_path, capsys):
    # One primitive step of data cannot support k = 5 clusters.
    rc = main(["train", TRAIN_INI, "--out-dir", str(tmp_path),
               "--set", "spectral.k=5",
               "--set", "pipeline.max_steps_per_episode=1",
               "--set", "pipeline.episodes_per_round=1",
               "--set", "pipeline.max_rounds=2",
               "--set", "pipeline.pcca_refresh_interval=1"])
    assert rc == EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("warning: smdp: round 1: clustering failed")


def test_train_reports_a_run_without_reclustering(tmp_path, capsys):
    # The run ends with round 2, before the first re-clustering at round 2;
    # the flat learner never re-clusters and is not reported.
    rc = main(["train", TRAIN_INI, "--out-dir", str(tmp_path),
               "--set", "pipeline.max_rounds=2",
               "--set", "pipeline.pcca_refresh_interval=2"])
    assert rc == EXIT_OK
    assert capsys.readouterr().err == ("warning: smdp: no re-clustering in 2 rounds "
                                       "(pcca_refresh_interval=2); learned without options\n")


# --- aggregate ---------------------------------------------------------------

def write_features(path, array):
    with open(path, "w") as fh:
        for row in np.atleast_2d(array):
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def test_aggregate_one_hot_identity(tmp_path):
    features = tmp_path / "onehot.txt"
    write_features(features, np.eye(77))
    sets = ["--set", "pipeline.k_m=77", "--set", "pipeline.max_rounds=2"]
    out = tmp_path / "out"
    rc = main(["aggregate", DISCOVER_INI, "--features", str(features),
               "--out-dir", str(out)] + sets)
    assert rc == EXIT_OK
    rows = read_csv_rows(out / "microstates.csv")
    assignments = [int(r["microstate"]) for r in rows]
    assert sorted(assignments) == list(range(77))     # a permutation: identity
    assert len(read_csv_rows(out / "centroids.csv")) == 77
    with open(out / "aggregated_model.csv") as fh:
        assert fh.readline().strip() == "s,a,next_s,count,reward_mean"
    # aggregate samples the episodes discover samples, so its counts are
    # discover's model relabelled through the microstate map
    rc = main(["discover", DISCOVER_INI, "--out-dir", str(tmp_path / "disc"),
               "--set", "output.model=true"] + sets)
    assert rc == EXIT_OK
    relabelled = sorted((assignments[int(r["s"])], int(r["a"]), assignments[int(r["next_s"])],
                         r["count"], r["reward_mean"])
                        for r in read_csv_rows(tmp_path / "disc" / "model.csv"))
    aggregated = [(int(r["s"]), int(r["a"]), int(r["next_s"]), r["count"], r["reward_mean"])
                  for r in read_csv_rows(out / "aggregated_model.csv")]
    assert aggregated == relabelled


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


@pytest.mark.parametrize("command", ["discover", "aggregate"])
def test_sampling_commands_reject_zero_rounds(tmp_path, capsys, command):
    features = tmp_path / "onehot.txt"
    write_features(features, np.eye(77))
    out = tmp_path / "o"
    extra = ["--features", str(features), "--set", "pipeline.k_m=4"] \
        if command == "aggregate" else []
    rc = main([command, DISCOVER_INI, "--out-dir", str(out),
               "--set", "pipeline.max_rounds=0"] + extra)
    assert rc == EXIT_CONFIG
    assert "max_rounds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows, sets, code", [
    (77, [], EXIT_CONFIG),
    (None, ["--set", "pipeline.k_m=2"], EXIT_IO),
    (5, ["--set", "pipeline.k_m=2"], EXIT_CONFIG)],
    ids=["k_m_unset", "missing_file", "too_few_rows"])
def test_aggregate_error_leaves_no_out_dir(tmp_path, rows, sets, code):
    features = tmp_path / "features.txt"
    if rows is not None:
        write_features(features, np.eye(rows))
    out = tmp_path / "o"
    rc = main(["aggregate", DISCOVER_INI, "--features", str(features),
               "--out-dir", str(out)] + sets)
    assert rc == code
    assert not out.exists()


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


def test_aggregate_too_many_feature_rows(tmp_path, capsys):
    features = tmp_path / "long.txt"
    write_features(features, np.eye(80))
    rc = main(["aggregate", DISCOVER_INI, "--features", str(features),
               "--out-dir", str(tmp_path / "o"), "--set", "pipeline.k_m=2"])
    assert rc == EXIT_CONFIG
    assert "feature file has 80 rows but the map has 77 states" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_aggregate_non_finite_feature_reports_line(tmp_path, capsys, value):
    rows = np.eye(77)
    rows[4, 0] = float(value)
    features = tmp_path / "bad.txt"
    write_features(features, rows)
    rc = main(["aggregate", DISCOVER_INI, "--features", str(features),
               "--out-dir", str(tmp_path / "o"), "--set", "pipeline.k_m=3"])
    assert rc == EXIT_CONFIG
    assert f"{features}:5" in capsys.readouterr().err


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


@pytest.mark.parametrize("line, text", [
    (3, "1.0 2.0\n3.0 4.0\n5.0 nan\n7.0 8.0\n"),
    (5, "1.0 2.0\n# comment\n3.0 4.0\n\ninf 6.0\n"),
    (3, "1.0 2.0\n3.0 4.0\n-inf\n7.0 oops\n"),     # before a malformed line
])
def test_read_features_names_first_non_finite_line(tmp_path, line, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    bad = text.splitlines()[line - 1]
    with pytest.raises(ConfigError) as info:
        read_features(str(path))
    assert str(info.value) == f"{path}:{line}: non-finite feature value in {bad!r}"


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


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.2])
def test_membership_heatmap_rejects_values_outside_unit_interval(bad):
    world = load_gridworld(ONE_ROOM)
    chi = np.linspace(0.0, 1.0, world.n_states)
    chi[1] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        membership_heatmap(world, chi)


@pytest.mark.parametrize("command,setting", [
    ("discover", "agent.gamma=1.5"),
    ("discover", "agent.alpha=2"),
    ("discover", "model.v=-1"),
    ("discover", "spectral.tau_conn=-1"),
    ("discover", "spectral.tau_conn=1.0"),
    ("discover", "spectral.k=1"),
    ("discover", "spectral.k=-2"),
    ("train", "spectral.k=1"),
    ("train", "spectral.k=-2"),
    ("train", "agent.eps_anneal_episodes=-1"),
    ("train", "pipeline.seed=-1"),
    ("aggregate", "model.v=-1"),
])
def test_bad_config_value_is_config_error(tmp_path, capsys, command, setting):
    features = tmp_path / "onehot.txt"
    write_features(features, np.eye(77))
    argv = [command, TRAIN_INI if command == "train" else DISCOVER_INI,
            "--out-dir", str(tmp_path / "o"), "--set", setting,
            "--set", "pipeline.max_rounds=1"]
    if command == "aggregate":
        argv += ["--features", str(features), "--set", "pipeline.k_m=2"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
