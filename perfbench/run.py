"""End-to-end and per-layer benchmark of trafficrc's workloads.

    python3 perfbench/run.py --workload density-p-sweep --seed 12345 --seconds 25 --trace 0

Run from the root of a trafficrc checkout; the package is imported from
./src, the recipes are read from ./configs. Each repetition is a fresh
process running the public command line front end on a config derived from
a shipped recipe, one process at a time, with BLAS pinned to one
thread. Repetitions run until --seconds is spent (at least three, or one
traced pair) and each is checked for correctness from its artifacts
(checks.py). Outputs go to a temporary directory under .perfbench/ that is
removed afterwards.

--trace 0 prints the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions, prints the per-layer
metrics (medians over traced repetitions) and the tracing overhead, and
writes the spans to .perfbench/traces/<workload>-seed<seed>.json.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 150
# One BLAS thread: with two on the two shared cores, the idle BLAS thread spins
# against the interpreter and run_s of the small-matrix sweeps swings by +-20%.
BLAS_THREADS = 1

# Sizes are cut from the recipes so that a repetition takes 4-8 s on two
# cores; README.md gives the derivation and what each workload stresses.
WORKLOADS = {
    "density-p-sweep": {
        "recipe": "density_link_p_sweep.json", "overrides": {"trials": 2},
        "param": "p", "values": [f"{i / 10:.1f}" for i in range(1, 11)]},
    "agents-m-sweep": {
        "recipe": "agents_road_subset.json",
        "overrides": {"trials": 2, "train": 300, "test": 200},
        "param": "M", "values": ["8", "14", "20"]},
    "density-n40-trajectory": {
        "recipe": "density_link_p_sweep.json", "overrides": {"n": 40},
        "steps": 150},
}


def workload_config(wl, seed):
    with open(os.path.join(ROOT, "configs", wl["recipe"])) as fh:
        cfg = json.load(fh)
    cfg.update(wl["overrides"], seed=seed)
    return cfg


def reservoir_steps(wl, cfg):
    """Reservoir steps covered by one repetition's outputs."""
    if "steps" in wl:
        return wl["steps"]
    span = cfg["washout"] + cfg["train"] + cfg["test"] + cfg["T"]
    return len(wl["values"]) * cfg["trials"] * span


def cli_args(wl, cfg_path, out):
    if "steps" in wl:
        return ["simulate", "--config", cfg_path, "--steps", str(wl["steps"]), "--out", out]
    return ["sweep", "--config", cfg_path, "--param", wl["param"],
            "--values", ",".join(wl["values"]), "--out", out]


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"     # same dict and set layouts in every repetition
    return env


def layer_metrics(functions, out_files, out_bytes):
    """Per-layer metrics from the tracer's per-function records.

    Holds every layer metric: the ones BENCHMARK.json lists, which are nonzero
    wherever their unit is time, and the finer per-module split.
    """
    def get(name, key):
        return functions.get(name, {}).get(key, 0)

    def total(names, key):
        return sum(get(n, key) for n in names)

    signals = ("signals.PhaseBank.step", "signals.link_go",
               "signals.reservoir_observables")
    tasks = ("tasks.sweep", "tasks.run_experiment", "tasks.run_simulation")
    readout = ("readout.assemble_matrix", "readout.ridge_fit", "readout.predict",
               "readout.log_nrmse", "tasks.lag_diagnostic")
    config = ("io.read_config_dict", "io.config_from_dict", "io.validate_config")
    emit = ("io.emit_run_results", "io.emit_sweep_results", "io.manifest",
            "io.write_trajectory_csv", "io.save_network")
    runs = get("traj.run", "calls")
    trials = get("tasks.run_experiment", "extra")
    return {
        "lattice.build_s": total(("lattice.build_lattice", "lattice.assign_turn_table",
                                  "lattice.matrix"), "incl_s"),
        "lattice.build_calls": get("lattice.build_lattice", "calls"),
        "lattice.matrix_s": get("lattice.matrix", "incl_s"),
        "lattice.matrix_bytes": get("lattice.matrix", "extra"),
        "signals.s": total(signals, "self_s"),
        "signals.calls": total(signals, "calls"),
        "kernels.s": total(("kernels.density_step", "kernels.agents_substep"), "incl_s"),
        "kernels.density_step_s": get("kernels.density_step", "incl_s"),
        "kernels.density_step_calls": get("kernels.density_step", "calls"),
        "kernels.density_step_bytes": get("kernels.density_step", "extra"),
        "kernels.agents_substep_s": get("kernels.agents_substep", "incl_s"),
        "kernels.agents_substep_calls": get("kernels.agents_substep", "calls"),
        "model.step_self_s": total(("density.step", "agents.step"), "self_s"),
        "density.step_self_s": get("density.step", "self_s"),
        "density.steps": get("density.step", "calls"),
        "agents.step_self_s": get("agents.step", "self_s"),
        "agents.steps": get("agents.step", "calls"),
        "traj.collect_self_s": get("traj.run", "self_s"),
        "traj.runs": runs,
        "readout.assemble_s": get("readout.assemble_matrix", "incl_s"),
        "readout.fit_s": get("readout.ridge_fit", "incl_s"),
        "readout.predict_s": get("readout.predict", "incl_s"),
        "readout.score_s": get("readout.log_nrmse", "incl_s"),
        "readout.fit_calls": get("readout.ridge_fit", "calls"),
        "tasks.lag_s": get("tasks.lag_diagnostic", "incl_s"),
        "tasks.self_s": total(tasks, "self_s"),
        "tasks.s": total(tasks, "self_s") + total(readout, "incl_s"),
        "tasks.trials_scored": trials,
        "tasks.reuse": trials / runs if runs else 0.0,
        "io.config_s": total(config, "self_s"),
        "io.emit_s": total(emit, "self_s"),
        "io.bytes_written": out_bytes,
        "io.files_written": out_files,
    }


def tree_size(path):
    files = size = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def run_rep(wl, cfg, tmp, idx, traced):
    """One repetition in a fresh process, then its correctness checks."""
    out = os.path.join(tmp, f"out{idx}")
    stats_path = os.path.join(tmp, f"stats{idx}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), stats_path,
           "1" if traced else "0", "--"] + cli_args(wl, os.path.join(tmp, "config.json"), out)
    spawn = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    rep = {"traced": traced}
    every = ops_per_rep(wl, cfg)
    if proc.returncode != 0:
        # the program failed every operation of this repetition
        print(f"  rep {idx}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}",
              file=sys.stderr)
        rep.update(attempted=every, failed=every)
        return rep
    check = checks.check_trajectory if "steps" in wl else checks.check_sweep
    try:
        with open(stats_path) as fh:
            stats = json.load(fh)
        ops, failed, notes, trends = check(out, wl, cfg)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        # artifacts the checks cannot read: nothing of this repetition is vouched for
        print(f"  rep {idx}: unreadable output: {exc!r}", file=sys.stderr)
        rep.update(attempted=every, failed=every, unreadable=True)
        return rep
    for note in notes:
        print(f"  rep {idx}: {note}", file=sys.stderr)
    stamps = stats["stamps"]
    run_s = stamps["main_end"] - stamps["main_start"]
    files, size = tree_size(out) if traced else (0, 0)
    shutil.rmtree(out)
    rep.update(
        attempted=len(ops), failed=len(failed), env=stats["env"], trends=trends,
        setup_s=stamps["first_step"] - spawn, run_s=run_s,
        steps_per_s=reservoir_steps(wl, cfg) / run_s,
        peak_rss_mb=stats["maxrss_kb"] * 1024 / 1e6)
    if traced:
        rep["layers"] = layer_metrics(stats["trace"]["functions"], files, size)
        rep["trace"] = stats["trace"]
    return rep


def ops_per_rep(wl, cfg):
    return wl["steps"] if "steps" in wl else len(wl["values"]) * cfg["trials"]


def median_of(reps, key, inner=None):
    vals = [r[key] if inner is None else r[key][inner] for r in reps if key in r]
    return statistics.median(vals) if vals else None


def run_workload(name, seed, seconds, trace, bench):
    wl = WORKLOADS[name]
    cfg = workload_config(wl, seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        with open(os.path.join(tmp, "config.json"), "w") as fh:
            json.dump(cfg, fh)
        # warm the bytecode and page caches: users do not pay these per run
        subprocess.run([sys.executable, "-c", "import trafficrc.cli"], env=child_env(),
                       cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        kinds = (False, True) if trace else (False,)
        min_rounds = 1 if trace else 3
        reps, start = [], time.monotonic()
        while True:
            for traced in kinds:
                rep = run_rep(wl, cfg, tmp, len(reps), traced)
                reps.append(rep)
                print(f"  rep {len(reps) - 1} {'traced' if traced else 'plain'}: "
                      + " ".join(f"{k} {rep[k]:.4g}" for k in
                                 ("setup_s", "run_s", "steps_per_s", "peak_rss_mb")
                                 if k in rep), file=sys.stderr)
            rounds = len(reps) // len(kinds)
            elapsed = time.monotonic() - start
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [r for r in reps if not r["traced"] and "run_s" in r]
    traced = [r for r in reps if r["traced"] and "run_s" in r]
    if not plain or (trace and not traced):
        return None
    if trace:
        values = {key: median_of(traced, "layers", key) for key in traced[0]["layers"]}
        values["trace.overhead_s"] = median_of(traced, "run_s") - median_of(plain, "run_s")
        write_trace(name, seed, cfg, plain[0]["env"], traced, values)
        section = "per_layer"
    else:
        values = {key: median_of(plain, key)
                  for key in ("setup_s", "run_s", "steps_per_s", "peak_rss_mb")}
        section = "end_to_end"
    for key in sorted(values):
        print(f"  {key:32s} {values[key]:.6g}", file=sys.stderr)
    print(json.dumps({"env": plain[0]["env"], "workload": name, "seed": seed,
                      "repetitions": len(reps), "trends": plain[0]["trends"]}))
    return {
        "correct": not any(r.get("unreadable") for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in bench[section]},
    }


def write_trace(name, seed, cfg, env, traced, values):
    path = os.path.join(WORK_DIR, "traces", f"{name}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "config": cfg, "env": env,
                   "layers": values,
                   "repetitions": [{"run_s": r["run_s"], **r["trace"]} for r in traced]},
                  fh)
    print(f"  trace written to {os.path.relpath(path, ROOT)}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    needed = [os.path.join(ROOT, "src", "trafficrc", "cli.py")]
    needed += [os.path.join(ROOT, "configs", r)
               for r in sorted({wl["recipe"] for wl in WORKLOADS.values()})]
    missing = [os.path.relpath(p, ROOT) for p in needed if not os.path.exists(p)]
    if missing:
        print(f"not a trafficrc checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        print(f"{name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
              file=sys.stderr)
        result = run_workload(name, args.seed, args.seconds, args.trace, bench)
        if result is None:
            print(f"{name}: no repetition produced output", file=sys.stderr)
            status = 1
            continue
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
