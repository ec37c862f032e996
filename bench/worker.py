"""One benchmark workload in one process: set up, run passes, check, report.

Started by ``run.py`` as a child process, so that peak RSS belongs to one
workload.  The process runs its commands one at a time and starts no
threads or processes; the BLAS thread count is pinned by ``run.py`` before
numpy loads.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --result FILE [--setup-only]

The result is written as JSON to FILE.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import rooms  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work")
DISCOVER_INI = os.path.join(ROOT, "configs", "three_rooms.ini")
TRAIN_INI = os.path.join(ROOT, "configs", "three_rooms_train.ini")
TRAIN_SEEDS_PER_PASS = 4
# The map workloads give each pass its own seed, cycling over this many
# consecutive seeds: the cost of a train pass changes with the seed by about
# 5 %, so the median pass of a run should stand for several seeds.  A
# 50-second run still repeats each seed, which the digest check needs.
SEEDS_PER_RUN = 7
# A run makes at least this many passes, however long they take.
MIN_PASSES = 4
# Room side of the generated 2 x 2-room map of each map workload.
ROOM_SIDE = {"discover-400": 10, "discover-1600": 20,
             "online-intra-150": 6, "online-intra-400": 10}


@dataclass
class Op:
    command: str              # discover | aggregate | train
    seed: int
    overrides: list
    config_path: str
    out_dir: str
    cfg: object = None


@dataclass
class Workload:
    room_map: rooms.RoomMap
    cycle: list               # pass i runs the Op list cycle[i % len(cycle)]
    features: str | None = None

    @property
    def ops(self):
        return [op for ops in self.cycle for op in ops]


def build_workload(name: str, seed: int, work: str) -> Workload:
    """Generate the workload's maps and list the operations of its passes."""
    def out(command, s):
        return os.path.join(work, "out", f"{command}-{s}")

    if name == "train-3rooms":
        from spectral_options.env import bundled_map_text
        room_map = rooms.bundled_three_rooms(bundled_map_text("three_rooms"))
        seeds = range(TRAIN_SEEDS_PER_PASS * seed, TRAIN_SEEDS_PER_PASS * (seed + 1))
        return Workload(room_map,
                        [[Op("train", s, [], TRAIN_INI, out("train", s)) for s in seeds]])
    if name not in ROOM_SIDE:
        raise ValueError(f"unknown workload {name!r}")
    room_map = rooms.room_grid(2, 2, ROOM_SIDE[name])
    map_path = os.path.join(work, "map.txt")
    features = os.path.join(work, "features.txt")
    rooms.write_map(room_map, map_path, features)
    # discover-1600 takes about 20 s a pass, so it repeats its one seed.
    seeds = [seed] if name == "discover-1600" else range(SEEDS_PER_RUN * seed,
                                                         SEEDS_PER_RUN * (seed + 1))
    if name.startswith("discover"):
        sets = [f"environment.map={map_path}", "pipeline.k_m=64"]
        return Workload(room_map, [[Op("discover", s, sets, DISCOVER_INI, out("discover", s)),
                                    Op("aggregate", s, sets, DISCOVER_INI, out("aggregate", s))]
                                   for s in seeds], features)
    sets = [f"environment.map={map_path}", "agent.learner=intra_option",
            "spectral.k=0", "pipeline.pcca_refresh_interval=2",
            "pipeline.max_rounds=20", "pipeline.episodes_per_round=10"]
    return Workload(room_map, [[Op("train", s, sets, TRAIN_INI, out("train", s))]
                               for s in seeds])


@dataclass
class Observation:
    """What the observers saw during one command."""

    steps: int = 0
    clusterings: list = field(default_factory=list)   # ClusterResult or exception
    composes: list = field(default_factory=list)      # (model, result, options)
    aggregated: object = None
    runs: list = field(default_factory=list)          # (learner, result, seconds)


class Observers(dict):
    """Observer callbacks, keyed by tracer target, feeding ``self.current``."""

    def __init__(self):
        super().__init__()
        self.current = Observation()
        self["env.sample_trajectory"] = self._sampled
        self["spectral.cluster"] = self._clustered
        self["options.compose_options"] = self._composed
        self["pipeline.aggregate_model"] = self._aggregated
        self["pipeline.run_odstc"] = self._trained

    def _sampled(self, args, kwargs, result, exc, elapsed):
        if result is not None:
            self.current.steps += len(result)

    def _clustered(self, args, kwargs, result, exc, elapsed):
        self.current.clusterings.append(exc if exc is not None else result)

    def _composed(self, args, kwargs, result, exc, elapsed):
        if result is not None:
            self.current.composes.append((args[0], args[1], result))

    def _aggregated(self, args, kwargs, result, exc, elapsed):
        self.current.aggregated = result

    def _trained(self, args, kwargs, result, exc, elapsed):
        if result is not None:
            self.current.runs.append((args[1].learner, result, elapsed))


def _max_bytes(counters, args, result):
    m = args[0]
    size = sum(a.nbytes for a in (m.U, m.R_sum, m.R_count, m.D))
    counters["model.bytes"] = max(counters["model.bytes"], size)


def _add(key, measure):
    def count(counters, args, result):
        counters[key] += measure(args, result)
    return count


def _option_outcome(counters, args, result):
    counters["agents.option_steps"] += result.duration
    counters["agents.option_truncated"] += result.truncated
    counters["agents.option_missing_policy"] += result.missing_policy


COUNTERS = {
    "env.sample_trajectory": _add("env.steps", lambda a, r: len(r)),
    "model.init": _max_bytes,
    "model.update_counts": _add("model.transitions", lambda a, r: len(a[1])),
    "model.transition_probabilities": _add("model.tp_rows", lambda a, r: len(r)),
    "agents.intra_option_update": _add("agents.intra_updates", lambda a, r: r),
    "agents.run_option": _option_outcome,
    "pipeline.run_episode": _add("pipeline.decisions", lambda a, r: r[0].decision_epochs),
    "pipeline.run_odstc": _add("agents.q_entries", lambda a, r: len(r.q.values)),
    "pipeline.kmeans_microstates": _add("pipeline.kmeans_iters",
                                        lambda a, r: len(r.sse_history)),
}


def run_op(cli, op: Op, wl: Workload, obs: Observation, tracer, digests: dict):
    """Run one command; return its record (timing, failures, behaviour)."""
    import checks

    shutil.rmtree(op.out_dir, ignore_errors=True)
    command = {"discover": cli.cmd_discover, "train": cli.cmd_train,
               "aggregate": lambda cfg: cli.cmd_aggregate(cfg, wl.features)}[op.command]
    errors, rc = [], None
    record = tracer.open(f"cli.{op.command}") if tracer else None
    start = time.perf_counter()
    try:
        rc = command(op.cfg)
    except Exception:
        errors.append(traceback.format_exc())
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(record)
        wall = record[2] - record[1]
    if rc not in (None, cli.EXIT_OK):
        errors.append(f"exit code {rc}")
    rec = {"command": op.command, "seed": op.seed, "wall_s": wall, "steps": obs.steps}

    world = op.cfg.world()
    n = world.n_states
    # Inside train every re-clustering is an operation of its own; run_odstc
    # survives a failed one, so it fails that operation and not the command.
    refreshes = len(obs.clusterings) if op.command == "train" else 0
    failed_refreshes = 0
    for item in obs.clusterings:
        if not isinstance(item, BaseException):
            errors.extend(checks.check_clustering(item))
        elif refreshes:
            failed_refreshes += 1
        else:
            errors.append(f"clustering failed: {item}")
    for model, result, options in obs.composes:
        errors.extend(checks.check_options(options, checks.full_chi(result, n)))
    if op.command == "discover" and obs.composes:
        errors.extend(checks.check_counts(obs.composes[-1][0], obs.steps))
    if op.command == "aggregate":
        errors.extend(checks.check_counts(obs.aggregated, obs.steps))
        errors.extend(checks.check_triplet_file(
            os.path.join(op.out_dir, "aggregated_model.csv"), obs.steps))
    if op.command == "train":
        rec["learners"] = {}
        for learner, result, seconds in obs.runs:
            errors.extend(checks.check_returns(
                os.path.join(op.out_dir, f"episodes_{learner}.csv")))
            rec["learners"][learner] = {
                "run_s": seconds,
                "decisions": sum(log.decision_epochs for log in result.history)}
        option_row = checks.read_rows(os.path.join(op.out_dir, "summary.csv"))[-1]
        rec["episodes_to_plateau"] = int(option_row["episodes_to_plateau"])
        rec["mean_return"] = float(option_row["mean_return"])
    results = [c for c in obs.clusterings if not isinstance(c, BaseException)]
    if results and obs.composes:
        last = results[-1]
        chi = checks.full_chi(last, n)
        reached, pairs = checks.option_reach(world, obs.composes[-1][2], chi)
        rec["k"] = int(last.spectral.k)
        rec["fallback"] = bool(last.selection and last.selection.fallback)
        rec["room_ari"] = checks.room_ari(chi, wl.room_map.rooms)
        rec["option_reach"] = reached / pairs if pairs else 0.0
    if op.command != "aggregate" and not results:
        errors.append("no clustering was observed")
    rec["digest"] = checks.digest(op.out_dir) if os.path.isdir(op.out_dir) else ""
    if digests.setdefault((op.command, op.seed), rec["digest"]) != rec["digest"]:
        errors.append("output digest differs from an earlier run of the same seed")
    rec["ops"] = 1 + refreshes
    rec["failed_ops"] = bool(errors) + failed_refreshes
    rec["errors"] = errors
    return rec


def layer_metrics(tracer, roots, traced_pass, untraced_pass, observations, world):
    """Per-layer metrics of the traced pass; ``roots`` index its command spans."""
    import numpy as np

    totals = tracer.totals()
    out = {}
    for name in ("env.sample_trajectory", "env.step", "model.init", "model.update_counts",
                 "model.adjacency", "model.transition_probabilities",
                 "model.save_triplets", "spectral.build_laplacian", "spectral.decompose",
                 "spectral.find_simplex_vertices", "spectral.compute_memberships",
                 "spectral.select_k", "options.compose_options", "options.compose_policy",
                 "options.compose_termination", "options.assign_states",
                 "agents.available_choices", "agents.epsilon_greedy",
                 "agents.smdp_q_update", "agents.intra_option_update", "agents.run_option",
                 "pipeline.run_odstc", "pipeline.run_episode", "pipeline.kmeans_microstates",
                 "pipeline.aggregate_model", "cli.load_config"):
        out[f"{name}.s"] = totals[name][1] if name in totals else 0.0
    for name in ("env.step", "model.update_counts", "options.compose_policy",
                 "agents.available_choices", "agents.epsilon_greedy",
                 "agents.smdp_q_update", "agents.intra_option_update", "agents.run_option",
                 "spectral.connectivity", "spectral.cluster"):
        out[f"{name}.calls"] = totals[name][0] if name in totals else 0
    for key in ("env.steps", "model.bytes", "model.transitions", "model.tp_rows",
                "agents.q_entries", "agents.intra_updates", "agents.option_steps",
                "agents.option_truncated", "agents.option_missing_policy",
                "pipeline.decisions", "pipeline.kmeans_iters"):
        out[key] = tracer.counters.get(key, 0)
    out["cli.self.s"] = sum(r[6] for r in tracer.spans if r[0].startswith("cli.")
                            and r[0] != "cli.load_config")

    clusterings = [c for o in observations for c in o.clusterings]
    results = [c for c in clusterings if not isinstance(c, BaseException)]
    train_clusterings = [c for o, op in zip(observations, traced_pass["ops"])
                         if op["command"] == "train" for c in o.clusterings]
    out["pipeline.refreshes"] = len(train_clusterings)
    out["pipeline.cluster_failures"] = sum(isinstance(c, BaseException)
                                           for c in train_clusterings)
    out["spectral.fallbacks"] = sum(bool(r.selection and r.selection.fallback)
                                    for r in results)
    out["spectral.k_max"] = max((r.spectral.k for r in results), default=0)
    last = results[-1] if results else None
    if last is not None:
        k, e = last.spectral.k, last.spectral.eigenvalues
        denom = 1.0 - e[k] if k < e.size else 0.0
        out["spectral.k"] = k
        out["spectral.n"] = int(last.laplacian.kept.size)
        out["spectral.gap_ratio"] = float((e[k - 1] - e[k]) / denom) if denom > 1e-12 else 0.0
        out["spectral.clamped_mass"] = float(np.clip(-last.membership.chi_raw, 0, None).sum())
    composes = [c for o in observations for c in o.composes]
    if composes:
        model, _, options = composes[-1]
        visits = model.U.sum(axis=2) - model.u_prior * model.n_states
        live = [s for s in range(model.n_states) if not world.is_terminal(s)]
        out["model.coverage"] = float((visits[live] > 0).mean())
        out["options.n_options"] = len(options)
        for kind in ("ascent", "fallback", "unmodeled"):
            out[f"options.{kind}_states"] = sum(len(getattr(o, f"{kind}_states"))
                                                for o in options)
    for key, default in (("spectral.k", 0), ("spectral.n", 0), ("spectral.gap_ratio", 0.0),
                         ("spectral.clamped_mass", 0.0), ("model.coverage", 0.0),
                         ("options.n_options", 0), ("options.ascent_states", 0),
                         ("options.fallback_states", 0), ("options.unmodeled_states", 0)):
        out.setdefault(key, default)

    behaviour = traced_pass["behaviour"]
    for key, name in (("room_ari", "spectral.room_ari"), ("option_reach", "options.reach"),
                      ("episodes_to_plateau", "pipeline.episodes_to_plateau"),
                      ("mean_return", "pipeline.mean_return")):
        out[name] = behaviour[key]["mean"] if key in behaviour else 0.0

    per_command = []
    for root, traced, plain in zip(roots, traced_pass["ops"], untraced_pass["ops"]):
        self_sum = sum(v[1] for v in tracer.totals(tracer.subtree(root)).values())
        per_command.append({"command": traced["command"], "seed": traced["seed"],
                            "traced_s": traced["wall_s"], "untraced_s": plain["wall_s"],
                            "self_sum_s": self_sum,
                            "overhead_s": traced["wall_s"] - plain["wall_s"]})
    out["trace.overhead_s"] = sum(c["overhead_s"] for c in per_command)
    return out, per_command


def pass_behaviour(ops) -> dict:
    """Behaviour of one pass: the mean over its commands of each measure."""
    out = {}
    for key in ("room_ari", "option_reach", "episodes_to_plateau", "mean_return", "k"):
        values = [op[key] for op in ops if key in op]
        if values:
            out[key] = {"mean": sum(values) / len(values), "n": len(values)}
    out["fallbacks"] = sum(op.get("fallback", False) for op in ops)
    return out


def machine_record(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    threads = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "process_threads": threads}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    work = os.path.join(WORK, args.workload)
    os.makedirs(work, exist_ok=True)
    from spectral_options import cli
    wl = build_workload(args.workload, args.seed, work)
    for op in wl.ops:
        op.cfg = cli.load_config(op.config_path, overrides=op.overrides, seed=op.seed,
                                 out_dir=op.out_dir)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    import numpy as np
    from tracer import Patches, Tracer

    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)

    observers = Observers()
    digests: dict = {}
    passes: list = []

    def one_pass(tracer, ops):
        patches = Patches()
        patches.install(tracer, observers, COUNTERS)
        try:
            if tracer:
                tracer.run_id = f"{args.workload}:{args.seed}:load_config"
                for op in ops:
                    op.cfg = cli.load_config(op.config_path, overrides=op.overrides,
                                             seed=op.seed, out_dir=op.out_dir)
            records, seen, roots = [], [], []
            for i, op in enumerate(ops):
                observers.current = Observation()
                if tracer:
                    tracer.run_id = f"{args.workload}:{args.seed}:{len(passes)}:{i}"
                    roots.append(len(tracer.spans))
                records.append(run_op(cli, op, wl, observers.current, tracer, digests))
                seen.append(observers.current)
        finally:
            patches.remove()
            observers.current = Observation()
        entry = {"traced": tracer is not None, "ops": records,
                 "pass_s": sum(r["wall_s"] for r in records),
                 "behaviour": pass_behaviour(records)}
        passes.append(entry)
        return entry, seen, roots

    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Peak RSS is taken after the first pass, as a user running each command
    # once would see it. Later passes can raise it with heap the allocator
    # kept from the first, so it would depend on how many passes fit.
    result = {"setup_s": setup_s}
    if args.trace:
        plain, _, _ = one_pass(None, wl.cycle[0])
        result["peak_rss_mb"] = peak_rss_mb()
        tracer = Tracer()
        traced, seen, roots = one_pass(tracer, wl.cycle[0])
        result["layers"], result["trace_commands"] = layer_metrics(
            tracer, roots, traced, plain, seen, wl.ops[0].cfg.world())
        spans_path = os.path.join(work, "spans.jsonl")
        with open(spans_path, "w") as fh:
            for i, (name, start, end, parent, run, folded, self_s) in enumerate(tracer.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "self_s": self_s,
                                     "folded": folded}) + "\n")
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        began = time.perf_counter()
        one_pass(None, wl.cycle[0])
        result["peak_rss_mb"] = peak_rss_mb()
        while len(passes) < MIN_PASSES or time.perf_counter() - began < args.seconds:
            one_pass(None, wl.cycle[len(passes) % len(wl.cycle)])

    result["passes"] = passes
    result["machine"] = machine_record(np)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
