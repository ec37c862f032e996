"""Command-line front end: discover / train / aggregate.

Experiments are driven by an INI config file with six blocks ([environment],
[model], [spectral], [agent], [pipeline], [output]); individual keys can be
overridden on the command line with ``--set block.key=value``, and ``--seed``
/ ``--out-dir`` override the two most commonly varied keys.  All outputs are
CSV files with header rows plus one binary PGM (P5) heatmap per abstract
state, so a fixed seed and config give byte-identical runs.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
from dataclasses import dataclass

import numpy as np

from spectral_options.env import (
    GridWorld,
    MapError,
    bundled_map_text,
    load_gridworld,
    sample_trajectory,
    uniform_random_policy,
)
from spectral_options.model import (
    EstimatedModel,
    adjacency,
    save_triplets,
    update_counts,
)
from spectral_options.spectral import SpectralError, cluster
from spectral_options.options import compose_options, expand_memberships
from spectral_options.pipeline import (
    OdstcConfig,
    aggregate_model,
    episodes_to_plateau,
    kmeans_microstates,
    run_odstc,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Invalid experiment configuration (bad file, key, value, or path)."""


# block -> key -> (type tag, default); None default means the key is required.
SCHEMA = {
    "environment": {
        "map": ("str", None),
        "goal_reward": ("float", 1.0),
        "step_reward": ("float", 0.0),
        "slip_prob": ("float", 0.0),
    },
    "model": {
        "v": ("float", 0.0),
        "reward_weighting": ("bool", False),
        "d_prior": ("float", 0.0),
        "u_prior": ("float", 0.0),
    },
    "spectral": {
        "t_c": ("float", 0.5),
        "tau_conn": ("float", 0.1),
        "k": ("int", 0),              # 0 = select k from the spectral gap
    },
    "agent": {
        "learner": ("str", "smdp"),
        "alpha": ("float", 0.1),
        "gamma": ("float", 0.99),
        "eps_start": ("float", 1.0),
        "eps_end": ("float", 0.05),
        "eps_anneal_episodes": ("int", 0),   # 0 = anneal over the full budget
    },
    "pipeline": {
        "episodes_per_round": ("int", 10),
        "max_rounds": ("int", 50),
        "pcca_refresh_interval": ("int", 10),
        "max_steps_per_episode": ("int", 400),
        "convergence_window": ("int", 20),
        "seed": ("int", 0),
        "k_m": ("int", 0),            # microstate count for the aggregate command
        "kmeans_max_iters": ("int", 100),
    },
    "output": {
        "directory": ("str", "out"),
        "heatmaps": ("bool", True),
        "csv": ("bool", True),
        "model": ("bool", False),
    },
}

_BOOL_VALUES = {"true": True, "yes": True, "on": True, "1": True,
                "false": False, "no": False, "off": False, "0": False}


def _coerce(block: str, key: str, raw: str):
    kind = SCHEMA[block][key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return _BOOL_VALUES[raw.strip().lower()]
        return raw
    except (ValueError, KeyError):
        raise ConfigError(f"[{block}] {key}: cannot parse {raw!r} as {kind}")


@dataclass
class ExperimentConfig:
    values: dict              # (block, key) -> coerced value
    map_text: str

    def __getitem__(self, block_key):
        return self.values[block_key]

    def odstc(self) -> OdstcConfig:
        g = self.values.__getitem__
        return OdstcConfig(
            episodes_per_round=g(("pipeline", "episodes_per_round")),
            max_rounds=g(("pipeline", "max_rounds")),
            pcca_refresh_interval=g(("pipeline", "pcca_refresh_interval")),
            t_c=g(("spectral", "t_c")),
            k=g(("spectral", "k")) or None,
            v=g(("model", "v")),
            reward_weighting=g(("model", "reward_weighting")),
            tau_conn=g(("spectral", "tau_conn")),
            d_prior=g(("model", "d_prior")),
            u_prior=g(("model", "u_prior")),
            alpha=g(("agent", "alpha")),
            gamma=g(("agent", "gamma")),
            eps_start=g(("agent", "eps_start")),
            eps_end=g(("agent", "eps_end")),
            eps_anneal_episodes=g(("agent", "eps_anneal_episodes")) or None,
            learner=g(("agent", "learner")),
            max_steps_per_episode=g(("pipeline", "max_steps_per_episode")),
            convergence_window=g(("pipeline", "convergence_window")),
            seed=g(("pipeline", "seed")),
        )

    def world(self) -> GridWorld:
        return load_gridworld(self.map_text,
                              step_reward=self.values[("environment", "step_reward")],
                              goal_reward=self.values[("environment", "goal_reward")],
                              slip_prob=self.values[("environment", "slip_prob")])


def _resolve_map(value: str) -> str:
    if os.path.exists(value):
        try:
            with open(value) as fh:
                return fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read map file {value!r}: {exc}")
    try:
        return bundled_map_text(value)
    except MapError:
        raise ConfigError(f"[environment] map: {value!r} is neither a file "
                          "nor a bundled map name")


def load_config(path: str, overrides=(), seed: int | None = None,
                out_dir: str | None = None) -> ExperimentConfig:
    """Parse and validate the experiment config, applying CLI overrides."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot open config {path!r}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")

    values = {}
    for block, keys in SCHEMA.items():
        for key, (_, default) in keys.items():
            values[(block, key)] = default
    for block in parser.sections():
        if block not in SCHEMA:
            raise ConfigError(f"unknown config block [{block}]")
        for key, raw in parser.items(block):
            if key not in SCHEMA[block]:
                raise ConfigError(f"unknown key {key!r} in block [{block}]")
            values[(block, key)] = _coerce(block, key, raw)

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like block.key=value: {item!r}")
        target, raw = item.split("=", 1)
        block, key = target.split(".", 1)
        if block not in SCHEMA or key not in SCHEMA[block]:
            raise ConfigError(f"unknown override target {target!r}")
        values[(block, key)] = _coerce(block, key, raw)
    if seed is not None:
        values[("pipeline", "seed")] = seed
    if out_dir is not None:
        values[("output", "directory")] = out_dir

    missing = [f"[{b}] {k}" for (b, k), v in values.items() if v is None]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    map_text = _resolve_map(values[("environment", "map")])
    cfg = ExperimentConfig(values=values, map_text=map_text)
    try:
        cfg.odstc().validate()
        cfg.world()
    except (ValueError, MapError) as exc:
        raise ConfigError(str(exc))
    return cfg


def write_pgm(path, pixels: np.ndarray):
    """Binary PGM (P5), maxval 255, one byte per cell, row-major."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def membership_heatmap(world: GridWorld, chi_column: np.ndarray) -> np.ndarray:
    """Gray level round(255·χ) per open cell; walls are 0."""
    img = np.zeros((world.height, world.width), dtype=np.uint8)
    for s, (r, c) in enumerate(world.cells):
        img[r, c] = int(np.rint(255.0 * chi_column[s]))
    return img


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_membership_outputs(out_dir, world, chi, C, eigenvalues, options,
                              heatmaps: bool, csv_on: bool):
    k = chi.shape[1]
    if csv_on:
        _write_csv(os.path.join(out_dir, "chi.csv"),
                   ["state", "row", "col"] + [f"chi_{i}" for i in range(k)],
                   [[s, world.cells[s][0], world.cells[s][1]]
                    + [_fmt(x) for x in chi[s]] for s in range(world.n_states)])
        _write_csv(os.path.join(out_dir, "connectivity.csv"),
                   ["cluster"] + [f"C_{j}" for j in range(k)],
                   [[i] + [_fmt(x) for x in C[i]] for i in range(k)])
        _write_csv(os.path.join(out_dir, "eigenvalues.csv"),
                   ["index", "eigenvalue"],
                   [[i, _fmt(e)] for i, e in enumerate(eigenvalues)])
        _write_csv(os.path.join(out_dir, "options.csv"),
                   ["option_id", "source", "target"],
                   [[i, o.source, o.target] for i, o in enumerate(options)])
        _write_csv(os.path.join(out_dir, "options_policy.csv"),
                   ["option_id", "s", "a", "prob"],
                   [[i, s, a, _fmt(p)]
                    for i, o in enumerate(options)
                    for s in sorted(o.policy)
                    for a, p in sorted(o.policy[s].items())])
        _write_csv(os.path.join(out_dir, "options_termination.csv"),
                   ["option_id", "s", "beta"],
                   [[i, s, _fmt(b)]
                    for i, o in enumerate(options)
                    for s, b in sorted(o.termination.items())])
    if heatmaps:
        for i in range(k):
            write_pgm(os.path.join(out_dir, f"membership_S{i}.pgm"),
                      membership_heatmap(world, chi[:, i]))


def cmd_discover(cfg: ExperimentConfig) -> int:
    """Sample a model with a uniform-random policy, cluster once, export.

    Episode start states cycle through every non-terminal cell so the
    counts cover the whole map evenly; episodes anchored to the map start
    alone leave distant regions under-sampled, which skews the spectrum.
    """
    world = cfg.world()
    oc = cfg.odstc()
    out_dir = cfg[("output", "directory")]
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(oc.seed)
    v = oc.v if oc.reward_weighting else 0.0
    model = EstimatedModel(world.n_states, v=v, d_prior=oc.d_prior,
                           u_prior=oc.u_prior)
    starts = [s for s in range(world.n_states) if not world.is_terminal(s)]
    n_episodes = oc.max_rounds * oc.episodes_per_round
    for episode in range(n_episodes):
        traj = sample_trajectory(world, uniform_random_policy,
                                 oc.max_steps_per_episode, rng,
                                 start=starts[episode % len(starts)])
        update_counts(model, traj)
    result = cluster(adjacency(model), t_c=oc.t_c, k=oc.k)
    options = compose_options(model, result, tau_conn=oc.tau_conn)
    chi = expand_memberships(result.membership, result.state_ids, world.n_states)
    _write_membership_outputs(out_dir, world, chi, result.connectivity,
                              result.spectral.eigenvalues, options,
                              cfg[("output", "heatmaps")], cfg[("output", "csv")])
    fallback = bool(result.selection and result.selection.fallback)
    _write_csv(os.path.join(out_dir, "discover_summary.csv"),
               ["k", "fallback", "n_options", "n_states", "episodes_sampled"],
               [[result.spectral.k, fallback, len(options), world.n_states,
                 n_episodes]])
    if cfg[("output", "model")]:
        save_triplets(model, os.path.join(out_dir, "model.csv"))
    return EXIT_OK


def _episode_rows(history):
    return [[log.episode, _fmt(log.cumulative_reward), log.decision_epochs,
             log.primitive_steps] for log in history]


def cmd_train(cfg: ExperimentConfig) -> int:
    """Run the flat baseline and the configured option learner on one seed."""
    world = cfg.world()
    out_dir = cfg[("output", "directory")]
    os.makedirs(out_dir, exist_ok=True)
    oc = cfg.odstc()
    learners = ["flat", oc.learner] if oc.learner != "flat" else ["flat"]
    summary = []
    for learner in learners:
        run_cfg = cfg.odstc()
        run_cfg.learner = learner
        history = run_odstc(world, run_cfg).history
        _write_csv(os.path.join(out_dir, f"episodes_{learner}.csv"),
                   ["episode", "return", "decision_epochs", "primitive_steps"],
                   _episode_rows(history))
        w = run_cfg.convergence_window
        plateau = episodes_to_plateau(history, w) if history else 0
        tail = history[plateau - w:plateau] if history else []
        mean_dec = float(np.mean([l.decision_epochs for l in tail])) if tail else 0.0
        mean_ret = float(np.mean([l.cumulative_reward for l in tail])) if tail else 0.0
        summary.append([learner, len(history), plateau, _fmt(mean_dec), _fmt(mean_ret)])
    _write_csv(os.path.join(out_dir, "summary.csv"),
               ["learner", "episodes", "episodes_to_plateau",
                "mean_decision_epochs", "mean_return"],
               summary)
    return EXIT_OK


def read_features(path) -> np.ndarray:
    """Feature file: one numeric vector per line, comma or whitespace separated."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: malformed feature record {line!r}")
            rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: feature file is empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"{path}: inconsistent feature vector lengths {sorted(widths)}")
    return np.array(rows)


def cmd_aggregate(cfg: ExperimentConfig, features_path: str) -> int:
    """k-means microstates from a feature file, then a microstate-space model.

    Feature row index doubles as the state id; sampled trajectories from the
    configured environment are recounted on the microstate space and the
    aggregated model is exported for a subsequent discover run.
    """
    world = cfg.world()
    oc = cfg.odstc()
    out_dir = cfg[("output", "directory")]
    os.makedirs(out_dir, exist_ok=True)
    features = read_features(features_path)
    k_m = cfg[("pipeline", "k_m")]
    if k_m < 1:
        raise ConfigError("[pipeline] k_m must be >= 1 for the aggregate command")
    if features.shape[0] < world.n_states:
        raise ConfigError(f"feature file has {features.shape[0]} rows but the "
                          f"map has {world.n_states} states")
    try:
        micro = kmeans_microstates(features, k_m, seed=oc.seed,
                                   max_iters=cfg[("pipeline", "kmeans_max_iters")])
    except ValueError as exc:
        raise ConfigError(f"[pipeline] k_m: {exc}")
    rng = np.random.default_rng(oc.seed)
    trajectories = [sample_trajectory(world, uniform_random_policy,
                                      oc.max_steps_per_episode, rng)
                    for _ in range(oc.max_rounds * oc.episodes_per_round)]
    model = aggregate_model(trajectories, micro.assignments,
                            n_microstates=k_m,
                            v=oc.v if oc.reward_weighting else 0.0)
    _write_csv(os.path.join(out_dir, "microstates.csv"),
               ["point", "microstate"],
               [[i, int(m)] for i, m in enumerate(micro.assignments)])
    _write_csv(os.path.join(out_dir, "centroids.csv"),
               ["microstate"] + [f"c_{d}" for d in range(micro.centroids.shape[1])],
               [[i] + [_fmt(x) for x in row] for i, row in enumerate(micro.centroids)])
    save_triplets(model, os.path.join(out_dir, "aggregated_model.csv"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-options",
        description="Discover and train reusable options in tabular MDPs via "
                    "PCCA+ spectral clustering.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("discover", "estimate a model and export memberships/options"),
                      ("train", "compare flat and option-augmented learners"),
                      ("aggregate", "k-means microstates from a feature file")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("config", help="experiment config file (INI)")
        p.add_argument("--seed", type=int, default=None,
                       help="override [pipeline] seed")
        p.add_argument("--out-dir", default=None,
                       help="override [output] directory")
        p.add_argument("--set", action="append", default=[], metavar="BLOCK.KEY=VALUE",
                       help="override any config key (repeatable)")
        if name == "aggregate":
            p.add_argument("--features", required=True,
                           help="feature-vector file, one numeric row per state")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides=args.set, seed=args.seed,
                          out_dir=args.out_dir)
        if args.command == "discover":
            return cmd_discover(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        return cmd_aggregate(cfg, args.features)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SpectralError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
