"""Benchmark of the discover, aggregate and train commands of spectral_options.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``WORKLOADS`` or ``all``.  Each workload runs
in its own child process (``worker.py``) with the BLAS thread count pinned to
1; set-up is also timed in ``SETUP_PROBES`` extra processes, half before
and half after the workload process.  The last line of
standard output is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced pass.
The lines before it are the human-readable report and one JSON record with
every measure, its sample count and the machine.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("discover-400", "online-intra-150", "discover-1600", "online-intra-400",
             "train-3rooms")
SETUP_PROBES = 8
DEADLINE_S = 170.0
BLAS_THREADS = "1"
REQUIRED = ("src/spectral_options/cli.py", "configs/three_rooms.ini",
            "configs/three_rooms_train.ini")

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {"trace.overhead_s": "s", "model.bytes": "bytes",
                   "model.coverage": "ratio", "spectral.gap_ratio": "ratio",
                   "spectral.clamped_mass": "mass", "spectral.room_ari": "ari",
                   "options.reach": "ratio", "pipeline.mean_return": "return",
                   "pipeline.episodes_to_plateau": "episodes"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list, result_path: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--result", result_path]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    with open(result_path) as fh:
        return json.load(fh)


def summary(values) -> dict:
    values = sorted(values)
    return {"median": statistics.median(values), "n": len(values),
            "min": values[0], "max": values[-1]}


def measure(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    """Run one workload: set-up probes, then the workload process."""
    work = os.path.join(WORK, name)
    os.makedirs(work, exist_ok=True)
    result_path = os.path.join(work, f"result-{seed}-{trace}.json")
    base = ["--workload", name, "--seed", str(seed)]

    def probe():
        return run_worker(base + ["--setup-only"], os.path.join(work, "setup-probe.json"),
                          deadline - time.monotonic())["setup_s"]

    # Probes before and after the workload sample two moments of the host.
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    res = run_worker(base + ["--seconds", str(seconds), "--trace", str(trace)],
                     result_path, deadline - time.monotonic())
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups.append(res["setup_s"])

    plain = [p for p in res["passes"] if not p["traced"]]
    ops = [op for p in res["passes"] for op in p["ops"]]
    e2e = {"setup_s": summary(setups),
           "pass_s": summary(p["pass_s"] for p in plain),
           "peak_rss_mb": summary([res["peak_rss_mb"]])}
    for command in ("discover", "aggregate", "train"):
        walls = [op["wall_s"] for p in plain for op in p["ops"] if op["command"] == command]
        if walls:
            e2e[f"{command}_s"] = summary(walls)
    learners: dict = {}
    for p in plain:
        for op in p["ops"]:
            for learner, run in op.get("learners", {}).items():
                learners.setdefault(learner, []).append(1e6 * run["run_s"] / run["decisions"])
    for learner, values in learners.items():
        e2e[f"decision_us.{learner}"] = summary(values)
    attempted = sum(op["ops"] for op in ops)
    failed = sum(op["failed_ops"] for op in ops)
    e2e["failed_frac"] = {"median": failed / attempted, "n": attempted}
    errors = [e for op in ops for e in op["errors"]]
    for c in res.get("trace_commands") or []:
        if abs(c["self_sum_s"] - c["traced_s"]) > 1e-6:
            errors.append(f"trace: self times of {c['command']}-{c['seed']} add up to "
                          f"{c['self_sum_s']} s, not its wall time {c['traced_s']} s")
    return {"workload": name, "seed": seed, "trace": trace, "machine": res["machine"],
            "end_to_end": e2e, "behaviour": plain[0]["behaviour"],
            "layers": res.get("layers"), "trace_commands": res.get("trace_commands"),
            "spans_file": res.get("spans_file"), "passes": len(res["passes"]),
            "attempted": attempted, "failed": failed, "errors": errors,
            "correct": not errors}


UNITS = {"setup_s": "s", "pass_s": "s", "discover_s": "s", "aggregate_s": "s",
         "train_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}


def report(r: dict) -> None:
    print(f"== {r['workload']} seed={r['seed']} trace={r['trace']} "
          f"passes={r['passes']} machine={json.dumps(r['machine'], sort_keys=True)}")
    for key, s in r["end_to_end"].items():
        unit = "us" if key.startswith("decision_us") else UNITS[key]
        spread = f" min={s['min']:.6g} max={s['max']:.6g}" if "min" in s else ""
        print(f"  {key:<24} {s['median']:>14.6g} {unit:<6} n={s['n']}{spread}")
    for key, s in r["behaviour"].items():
        if isinstance(s, dict):
            print(f"  {key:<24} {s['mean']:>14.6g} {'':<6} n={s['n']} (mean over seeds)")
        else:
            print(f"  {key:<24} {s:>14} count")
    for c in r["trace_commands"] or []:
        print(f"  trace {c['command']}-{c['seed']}: traced={c['traced_s']:.4f}s "
              f"self_sum={c['self_sum_s']:.4f}s untraced={c['untraced_s']:.4f}s "
              f"overhead={c['overhead_s']:.4f}s")
    for key, value in sorted((r["layers"] or {}).items()):
        print(f"  {key:<40} {value:>16.6g} {layer_unit(key)}")
    for e in r["errors"]:
        print(f"  ERROR {e}")
    print(json.dumps({"record": r}, sort_keys=True))


def layer_unit(key: str) -> str:
    if key in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[key]
    return "s" if key.endswith(".s") else "count"


def contract_metrics(r: dict, trace: int) -> dict:
    if trace:
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in r["layers"].items()}
    return {k: {"value": r["end_to_end"][k]["median"], "unit": u}
            for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    missing = [f for f in REQUIRED if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        print(f"bench: not a spectral_options checkout, missing {missing}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds, args.trace, deadline))
            report(results[-1])
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for k, v in contract_metrics(r, args.trace).items():
            metrics[prefix + k] = v
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
