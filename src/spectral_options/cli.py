"""Command-line front end: discover / train / aggregate.

Experiments are driven by an INI config file with six blocks ([environment],
[model], [spectral], [agent], [pipeline], [output]); individual keys can be
overridden on the command line with ``--set block.key=value``, and ``--seed``
/ ``--out-dir`` override the two most commonly varied keys.  ``LAYOUT`` places
each key in its block; the key's type and default come from the field of the
same name on ``pipeline.OdstcConfig`` or, for keys only the commands read, on
``CommandConfig``.  All outputs are CSV files with header rows plus one binary
PGM (P5) heatmap per abstract state; ``discover`` writes every one of them,
and ``[output] model`` adds ``model.csv``.  A fixed seed and config give
byte-identical runs with the same BLAS thread count.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from spectral_options.env import (
    Draws,
    GridWorld,
    MapError,
    bundled_map_text,
    load_gridworld,
    sample_trajectory,
)
from spectral_options.model import (
    EstimatedModel,
    adjacency,
    save_triplets,
    update_counts,
)
from spectral_options.spectral import SpectralError, cluster
from spectral_options.options import compose_options
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
# Episodes are sampled and counted in blocks of at most this many steps
# (max_steps each), which bounds the memory of a block for any budget.
_BLOCK_STEPS = 1 << 16


class ConfigError(ValueError):
    """Invalid experiment configuration (bad file, key, value, or path)."""


@dataclass
class CommandConfig:
    """Keys only the commands read; the discovery loop's keys are OdstcConfig's."""

    map: str                          # required: a map file or a bundled map name
    goal_reward: float = 1.0
    step_reward: float = 0.0
    slip_prob: float = 0.0
    k_m: int = 0                      # microstate count for the aggregate command
    directory: str = "out"
    model: bool = False               # discover also writes model.csv


# INI block -> its keys, each a field of OdstcConfig or CommandConfig, which
# give the key's type and default (a field without a default is required).
LAYOUT = {
    "environment": ("map", "goal_reward", "step_reward", "slip_prob"),
    "model": ("v",),
    "spectral": ("t_c", "tau_conn", "k"),
    "agent": ("learner", "alpha", "gamma", "eps_start", "eps_end", "eps_anneal_episodes"),
    "pipeline": ("episodes_per_round", "max_rounds", "pcca_refresh_interval",
                 "max_steps_per_episode", "convergence_window", "seed", "k_m"),
    "output": ("directory", "model"),
}
_FIELDS = {f.name: f for cls in (OdstcConfig, CommandConfig) for f in fields(cls)}
_ODSTC_KEYS = {f.name for f in fields(OdstcConfig)}

_BOOL_VALUES = {"true": True, "yes": True, "on": True, "1": True,
                "false": False, "no": False, "off": False, "0": False}
_PARSERS = {"int": int, "float": float, "str": str,
            "bool": lambda raw: _BOOL_VALUES[raw.strip().lower()]}


def _coerce(block: str, key: str, raw: str):
    kind = _FIELDS[key].type
    parse = _PARSERS[kind]
    try:
        value = parse(raw)
    except (ValueError, KeyError):
        raise ConfigError(f"[{block}] {key}: cannot parse {raw!r} as {kind}")
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"[{block}] {key}: must be finite, got {raw!r}")
    return value


@dataclass
class ExperimentConfig:
    values: dict              # (block, key) -> coerced value
    map_text: str

    def __getitem__(self, block_key):
        return self.values[block_key]

    def odstc(self) -> OdstcConfig:
        return OdstcConfig(**{k: v for (_, k), v in self.values.items() if k in _ODSTC_KEYS})

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

    values = {(block, key): _FIELDS[key].default
              for block, keys in LAYOUT.items() for key in keys}
    for block in parser.sections():
        if block not in LAYOUT:
            raise ConfigError(f"unknown config block [{block}]")
        for key, raw in parser.items(block):
            if key not in LAYOUT[block]:
                raise ConfigError(f"unknown key {key!r} in block [{block}]")
            values[(block, key)] = _coerce(block, key, raw)

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like block.key=value: {item!r}")
        target, raw = item.split("=", 1)
        block, key = target.split(".", 1)
        if key not in LAYOUT.get(block, ()):
            raise ConfigError(f"unknown override target {target!r}")
        values[(block, key)] = _coerce(block, key, raw)
    if seed is not None:
        values[("pipeline", "seed")] = seed
    if out_dir is not None:
        values[("output", "directory")] = out_dir

    missing = [f"[{b}] {k}" for (b, k), v in values.items() if v is MISSING]
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
    """Gray level round(255·χ) per open cell; walls are 0.

    Raises ValueError unless every χ value is finite and lies in [0, 1].
    """
    chi_column = np.asarray(chi_column, dtype=float)
    if not ((chi_column >= 0.0) & (chi_column <= 1.0)).all():
        raise ValueError("membership values must be finite and lie in [0, 1]")
    img = np.zeros((world.height, world.width), dtype=np.uint8)
    rows, cols = np.array(world.cells).T
    img[rows, cols] = np.rint(255.0 * chi_column)
    return img


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_membership_outputs(out_dir, world, result, options):
    chi, C, k = result.chi, result.connectivity, result.spectral.k
    _write_csv(os.path.join(out_dir, "chi.csv"),
               ["state", "row", "col"] + [f"chi_{i}" for i in range(k)],
               [[s, r, c, *map(repr, row)]
                for s, ((r, c), row) in enumerate(zip(world.cells, chi.tolist()))])
    _write_csv(os.path.join(out_dir, "connectivity.csv"),
               ["cluster"] + [f"C_{j}" for j in range(k)],
               [[i, *map(repr, row)] for i, row in enumerate(C.tolist())])
    _write_csv(os.path.join(out_dir, "eigenvalues.csv"),
               ["index", "eigenvalue"],
               enumerate(map(repr, result.spectral.eigenvalues.tolist())))
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
    for i in range(k):
        write_pgm(os.path.join(out_dir, f"membership_S{i}.pgm"),
                  membership_heatmap(world, chi[:, i]))


def _sampled_episodes(world: GridWorld, oc: OdstcConfig):
    """Yield max_rounds × episodes_per_round uniform-random episodes, seeded by
    oc.seed, as Transitions blocks of at most max(1, _BLOCK_STEPS // max_steps)
    episodes each.

    Start states cycle through every non-terminal cell so the counts cover the
    whole map evenly; episodes anchored to the map start alone leave distant
    regions under-sampled, which skews the spectrum.  No output depends on the
    block size.
    """
    rng = Draws(oc.seed)
    starts = [s for s in range(world.n_states) if not world.is_terminal(s)]
    total = oc.max_rounds * oc.episodes_per_round
    size = max(1, _BLOCK_STEPS // oc.max_steps_per_episode)
    for first in range(0, total, size):
        block = [starts[e % len(starts)] for e in range(first, min(first + size, total))]
        yield sample_trajectory(world, oc.max_steps_per_episode, rng, block)


def cmd_discover(cfg: ExperimentConfig) -> int:
    """Sample a model with a uniform-random policy, cluster once, export."""
    world = cfg.world()
    oc = cfg.odstc()
    if oc.max_rounds < 1:
        raise ConfigError("[pipeline] max_rounds must be >= 1 for the discover command")
    model = EstimatedModel(world.n_states, v=oc.v)
    for block in _sampled_episodes(world, oc):
        update_counts(model, block)
    del block       # about 1 MB at the default budget, not needed past counting
    result = cluster(adjacency(model), t_c=oc.t_c, k=oc.k or None)
    options = compose_options(model, result, tau_conn=oc.tau_conn)
    out_dir = cfg[("output", "directory")]
    os.makedirs(out_dir, exist_ok=True)
    _write_membership_outputs(out_dir, world, result, options)
    fallback = bool(result.selection and result.selection.fallback)
    if fallback:
        sel = result.selection
        reason = (f"the first spectral gap ratio above t_c={oc.t_c} gives more "
                  "clusters than half the states" if sel.ratios[sel.k] > oc.t_c else
                  f"no spectral gap ratio exceeds t_c={oc.t_c}; fell back to "
                  "the largest ratio")
        print(f"warning: {reason}, k={sel.k}", file=sys.stderr)
    _write_csv(os.path.join(out_dir, "discover_summary.csv"),
               ["k", "fallback", "n_options", "n_states", "episodes_sampled"],
               [[result.spectral.k, fallback, len(options), world.n_states,
                 oc.max_rounds * oc.episodes_per_round]])
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
        result = run_odstc(world, run_cfg)
        for note in result.notes:
            print(f"warning: {learner}: {note}", file=sys.stderr)
        history = result.history
        _write_csv(os.path.join(out_dir, f"episodes_{learner}.csv"),
                   ["episode", "return", "decision_epochs", "primitive_steps"],
                   _episode_rows(history))
        w = run_cfg.convergence_window
        returns = [l.cumulative_reward for l in history]
        plateau = episodes_to_plateau(returns, w)
        start = max(plateau - w, 0)     # a run shorter than the window: all of it
        tail = history[start:plateau]
        mean_dec = float(np.mean([l.decision_epochs for l in tail])) if tail else 0.0
        mean_ret = float(np.mean(returns[start:plateau])) if tail else 0.0
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
            if not all(map(math.isfinite, row)):
                raise ConfigError(f"{path}:{lineno}: non-finite feature value in {line!r}")
            rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: feature file is empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"{path}: inconsistent feature vector lengths {sorted(widths)}")
    return np.array(rows)


def cmd_aggregate(cfg: ExperimentConfig, features_path: str) -> int:
    """k-means microstates from a feature file, then a microstate-space model.

    Feature row i belongs to state i.  Episodes are sampled as discover samples
    them and streamed into counts on the microstate space, which are exported.
    """
    world = cfg.world()
    oc = cfg.odstc()
    if oc.max_rounds < 1:
        raise ConfigError("[pipeline] max_rounds must be >= 1 for the aggregate command")
    features = read_features(features_path)
    k_m = cfg[("pipeline", "k_m")]
    if k_m < 1:
        raise ConfigError("[pipeline] k_m must be >= 1 for the aggregate command")
    if features.shape[0] != world.n_states:
        raise ConfigError(f"feature file has {features.shape[0]} rows but the "
                          f"map has {world.n_states} states")
    try:
        micro = kmeans_microstates(features, k_m, seed=oc.seed)
    except ValueError as exc:
        raise ConfigError(f"[pipeline] {exc}")
    out_dir = cfg[("output", "directory")]
    os.makedirs(out_dir, exist_ok=True)
    model = aggregate_model(_sampled_episodes(world, oc), micro.assignments,
                            n_microstates=k_m, v=oc.v)
    _write_csv(os.path.join(out_dir, "microstates.csv"),
               ["point", "microstate"],
               [[i, int(m)] for i, m in enumerate(micro.assignments)])
    _write_csv(os.path.join(out_dir, "centroids.csv"),
               ["microstate"] + [f"c_{d}" for d in range(micro.centroids.shape[1])],
               [[i, *map(repr, row)] for i, row in enumerate(micro.centroids.tolist())])
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
