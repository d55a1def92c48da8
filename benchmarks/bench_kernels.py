"""Time the model step of both traffic models over lattice size n.

Everything runs in-process on the numpy kernels. For each n the model is
trial 0 of the default config of its model at seed 7 (so agents use 20-long
links with 10 agents each), built by tasks._union as the tasks build it, and
runs --warmup steps so the agents leave their standing start. The timed steps then run as 20 rounds of run(steps / 20),
and a round's time per step is run(s) / s: it includes what a run pays
besides the steps, the phase schedule and gates computed before the step
loop and the trajectory it records. One reservoir step of the agents model
is round(1/dt) Euler substeps plus the junction transfers. Reports the
median and quartiles of ms per step over rounds and the median us per link
per step, which stays flat when a step is linear in the lattice size.

The union rows time one union of K blocks (block b is trial b) of three
recipes' reservoirs, as the tasks batch trials: the n = 3 agents model of
the agents recipe, the n = 5 density model of the density recipe, and the
n = 10 input-driven density model of the external-series recipe, which is
fed the recipe's standardized series and stores no link, as task2 runs it.
Each is built from its recipe's config at seed 7. ms per step per trial and
us per link show how far K blocks in one set of arrays amortise the
per-call overhead of a lattice. Each row also gives the bytes of u and k
that a trial of the recipe stores (tasks._trial_bytes), per trial and for
K trials, which the tasks hold within tasks._BATCH_BYTES. Each recipe's
unions are timed round-robin, one round of each K in turn, so
a drift of the host's speed reaches every K alike; K = 1 runs twice per
round, and each row's ratio is the median and quartiles over rounds of its
ms per trial-step over that of the first K = 1 union in the same round. The
second K = 1 union's row (A/A) is the noise floor of those ratios.

--against DIR builds every per-n row's sim and every union a second and a
third time from another trafficrc source tree (DIR is a checkout or its src
directory; the package is imported as trafficrc_against, which its relative
imports allow) and times the three side by side in the same rounds: this
tree (the change) and DIR's twice (the parent, and the parent again as the
A/A control). Each row then gives the median and quartiles over rounds of
change/parent and parent/parent, the ratio of ms per step within a round.
In-process, the ratios see no cross-process noise: no fresh interpreter,
page cache or CPU placement differs between the sides.

Within a round the sims take turns in an order rotated by one each round,
so no sim always runs first or right after the same other one.

--write-steps N times Trajectory.write_csv of an N-step trajectory of the
n = 40 density model (the trajectory.csv of `simulate`), in ms per row: once
with this process pinned to one CPU, so the writer formats every row
itself, and once on every CPU it may use, where with two or more it forks a
child to format the second half. The two alternate over WRITE_ROUNDS rounds
and the median is reported.

--startup R times R fresh interpreters that run `import trafficrc.cli`,
after one untimed run that fills the bytecode cache: the wall ms from spawn
to exit and each child's peak RSS, read from the rusage that os.wait4
returns for it (the per-child form of RUSAGE_CHILDREN, so children this
process started before do not count). Every command pays this set-up before
its first step. Reports the median and quartiles of the ms and the median
peak RSS in MB.

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --agents-n 3,6,10 --density-n 5,10,20,40 --json out.json
    python3 benchmarks/bench_kernels.py --agents-n '' --density-n '' --union-k 1,2,4
    python3 benchmarks/bench_kernels.py --agents-n '' --density-n '' --union-k '' --write-steps 150
    python3 benchmarks/bench_kernels.py --agents-n '' --density-n '' --union-k '' --startup 20
    python3 benchmarks/bench_kernels.py --agents-n 3,6,10 --density-n '' --union-k 1,2 --against ../parent
"""

import argparse
import dataclasses
import importlib.util
import json
import os
import pathlib
import platform
import sys
import tempfile
import time

import numpy as np

import trafficrc
from trafficrc import tasks
from trafficrc.io import config_from_dict, read_config_dict
from trafficrc.lattice import build_lattice


def trial_union(keys, k=1, pkg=trafficrc, driven=False):
    """Trials 0 .. k-1 at seed 7 of the config `keys` (a dict; any other key
    at its default), as one union sim of the trafficrc package pkg; a driven
    union draws its blocks' input weights."""
    cfg = pkg.io.config_from_dict({**keys, "seed": 7})
    return pkg.tasks._union(cfg, pkg.lattice.build_lattice(cfg.n, cfg.link_length),
                            range(k), driven)


AGAINST = "trafficrc_against"


def load_tree(root):
    """The trafficrc package of the source tree at root (a checkout or its
    src directory), imported as AGAINST beside this process's trafficrc."""
    root = pathlib.Path(root)
    for pkg in (root / "src" / "trafficrc", root / "trafficrc"):
        if (pkg / "__init__.py").is_file():
            break
    else:
        raise SystemExit(f"--against: no trafficrc package under {root}")
    spec = importlib.util.spec_from_file_location(
        AGAINST, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[AGAINST] = module
    spec.loader.exec_module(module)
    return module


UNION_RECIPES = {"agents": "agents_road_subset.json",
                 "density": "density_link_p_sweep.json",
                 "series": "external_series_horizon.json"}
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
ROUNDS = 20


def summary(values):
    """Median, quartiles and mean of values."""
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "mean": round(float(np.mean(values)), 4)}


def time_round_robin(sims, steps, warmup, inputs=None, links=None):
    """ms per step of each sim, shape (sims, ROUNDS): ROUNDS rounds of
    run(steps / ROUNDS), the sims taking turns within each round, starting
    one sim later each round. Each run is given inputs and links."""
    for sim in sims:
        sim.run(warmup, inputs, links)
    per = max(1, steps // ROUNDS)
    ms = np.empty((len(sims), ROUNDS))
    for r in range(ROUNDS):
        for i in np.roll(np.arange(len(sims)), -r).tolist():
            start = time.perf_counter()
            sims[i].run(per, inputs, links)
            ms[i, r] = (time.perf_counter() - start) * 1e3 / per
    return ms


def against(ms):
    """Per-round ratios of the (change, parent, parent) ms rows: the change
    and the A/A control over the first parent."""
    return {"parent_ms_per_step": summary(ms[1]),
            "change_vs_parent": summary(ms[0] / ms[1]),
            "parent_vs_parent": summary(ms[2] / ms[1])}


def trio(keys, k, parent, driven=False):
    """The change's union and, given a parent package, two of the parent's."""
    sims = [trial_union(keys, k, driven=driven)]
    if parent is not None:
        sims += [trial_union(keys, k, parent, driven) for _ in range(2)]
    return sims


def recipe(name, steps):
    """(config keys, inputs, links, bytes of u and k a trial stores) of the
    recipe `name`. A driven recipe's runs get its task's input, its training
    segment lengthened when `steps` outlast the span, and store its task's
    links; the others get no input and store every link."""
    keys = read_config_dict(CONFIGS / UNION_RECIPES[name])
    cfg = config_from_dict(keys)
    net = build_lattice(cfg.n, cfg.link_length)
    span = tasks._span(cfg)[0]
    inputs, links, _ = tasks._plan(cfg, net)
    trial_bytes = tasks._trial_bytes(cfg, span, links)
    if inputs is None:
        return keys, None, None, trial_bytes
    if steps > span:
        cfg = dataclasses.replace(cfg, train=cfg.train + steps - span)
        inputs = tasks._plan(cfg, net)[0]
    return keys, inputs, links, trial_bytes


def time_unions(name, ks, steps, warmup, parent=None):
    """One row per K of ks (K = 1 first, the A/A control), timed round-robin
    with a reference K = 1 union; with a parent package, each K is also
    timed from the parent's tree twice (see against)."""
    keys, inputs, links, trial_bytes = recipe(name, warmup + max(steps, ROUNDS))
    driven = inputs is not None
    groups = [trio(keys, k, parent, driven) for k in ks]
    sims = [trial_union(keys, driven=driven), *(sim for g in groups for sim in g)]
    ms = time_round_robin(sims, steps, warmup, inputs, links)
    ref, ms = ms[0], ms[1:].reshape(len(ks), len(groups[0]), ROUNDS)
    rows = []
    for k, group, m in zip(ks, groups, ms):
        t = summary(m[0])
        sim = group[0]
        rows.append({"n": keys["n"], "blocks": k, "links": sim.net.n_links,
                     "steps": steps, "ms_per_step": t,
                     "ms_per_trial_step": round(t["median"] / k, 4),
                     "us_per_link": round(t["median"] * 1e3 / sim.net.n_links, 3),
                     "vs_k1": summary(m[0] / k / ref),
                     "stored_bytes_per_trial": trial_bytes,
                     "stored_bytes": k * trial_bytes})
        if parent is not None:
            rows[-1]["against"] = against(m)
    rows[0]["control"] = "A/A"
    return rows


WRITE_N = 40
WRITE_ROUNDS = 3


def time_writer(steps):
    """ms per row of write_csv on a `steps`-step n = WRITE_N density
    trajectory: pinned to one CPU, then on every CPU this process may use.
    Returns {"cpus": k, "pinned": {...}, "unpinned": {...}}, each the median
    and quartiles over rounds."""
    traj = trial_union({"model": "density", "n": WRITE_N}).run(steps)
    # the header names each link by its junctions, which only the lattice holds
    net = build_lattice(WRITE_N)
    allowed = os.sched_getaffinity(0)
    ms = {"pinned": [], "unpinned": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trajectory.csv")
        for _ in range(WRITE_ROUNDS):
            for kind in ms:
                if kind == "pinned":
                    os.sched_setaffinity(0, {min(allowed)})
                try:
                    start = time.perf_counter()
                    traj.write_csv(path, net)
                    ms[kind].append((time.perf_counter() - start) * 1e3 / steps)
                finally:
                    os.sched_setaffinity(0, allowed)
    out = {"cpus": len(allowed)}
    for kind, vals in ms.items():
        q1, med, q3 = np.percentile(vals, [25, 50, 75])
        out[kind] = {"median": round(med, 4), "q1": round(q1, 4),
                     "q3": round(q3, 4)}
    return out


def time_startup(runs):
    """Wall ms and peak RSS MB of `runs` fresh interpreters importing
    trafficrc.cli (after one untimed run), from spawn to exit. Returns the
    median and quartiles of the ms and the median peak RSS."""
    src = str(pathlib.Path(trafficrc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", "import trafficrc.cli"]
    ms, rss = [], []
    for i in range(runs + 1):
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env)
        _, status, usage = os.wait4(pid, 0)
        elapsed = (time.perf_counter() - start) * 1e3
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError("import trafficrc.cli failed in a fresh interpreter")
        if i > 0:
            ms.append(elapsed)
            rss.append(usage.ru_maxrss / 1024)   # ru_maxrss is in KiB on Linux
    q1, med, q3 = np.percentile(ms, [25, 50, 75])
    return {"ms": {"median": round(med, 2), "q1": round(q1, 2),
                   "q3": round(q3, 2)},
            "peak_rss_mb": round(float(np.median(rss)), 2)}


def _ratios(row):
    """The printed change/parent and parent/parent columns of a row."""
    if "against" not in row:
        return ""
    b, a = row["against"]["change_vs_parent"], row["against"]["parent_vs_parent"]
    return (f" {b['median']:>7.3f} {b['q1']:>6.3f} {b['q3']:>6.3f}"
            f" {a['median']:>7.3f} {a['q1']:>6.3f} {a['q3']:>6.3f}")


def _sizes(text):
    return [int(v) for v in text.replace(",", " ").split()]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--agents-n", type=_sizes, default=[3, 6, 10],
                    help="lattice sizes for the agents model")
    ap.add_argument("--density-n", type=_sizes, default=[5, 10, 20, 40],
                    help="lattice sizes for the density model")
    ap.add_argument("--union-k", type=_sizes, default=[1, 2, 4],
                    help="block counts of the n=3 agents, n=5 density and "
                         "n=10 driven density unions; K=1 always runs, as "
                         "the A/A control")
    ap.add_argument("--agents-steps", type=int, default=200,
                    help="timed reservoir steps per agents size")
    ap.add_argument("--density-steps", type=int, default=2000,
                    help="timed reservoir steps per density size")
    ap.add_argument("--warmup", type=int, default=100,
                    help="untimed steps before timing")
    ap.add_argument("--write-steps", type=int, default=0,
                    help="rows of the timed n=40 trajectory.csv (0: skip)")
    ap.add_argument("--startup", type=int, default=0,
                    help="fresh interpreters timed importing trafficrc.cli "
                         "(0: skip)")
    ap.add_argument("--against", metavar="DIR",
                    help="also time the sims of the trafficrc tree in DIR "
                         "(a checkout or its src), twice, in the same rounds")
    ap.add_argument("--json", help="also write the results to this file")
    args = ap.parse_args(argv)
    parent = load_tree(args.against) if args.against else None
    ratio_head = (f" {'vs par':>7} {'q1':>6} {'q3':>6} {'A/A':>7} {'q1':>6} "
                  f"{'q3':>6}" if parent else "")

    rows = {"agents": [], "density": [], "agents_union": [],
            "density_union": [], "series_union": [], "writer": [],
            "startup": []}
    if args.startup > 0:
        t = time_startup(args.startup)
        rows["startup"].append({"runs": args.startup, **t})
        print(f"{'startup':<8} {'runs':>4} {'ms':>9} {'q1':>9} {'q3':>9} "
              f"{'rss_mb':>7}")
        print(f"{'import':<8} {args.startup:>4} {t['ms']['median']:>9.1f} "
              f"{t['ms']['q1']:>9.1f} {t['ms']['q3']:>9.1f} "
              f"{t['peak_rss_mb']:>7.1f}\n")
    print(f"{'model':<8} {'n':>3} {'links':>6} {'ms/step':>9} "
          f"{'q1':>9} {'q3':>9} {'us/link':>8}" + ratio_head)
    for model, sizes, steps in (("agents", args.agents_n, args.agents_steps),
                                ("density", args.density_n, args.density_steps)):
        for n in sizes:
            sims = trio({"model": model, "n": n}, 1, parent)
            ms = time_round_robin(sims, steps, args.warmup)
            t = summary(ms[0])
            r = {"n": n, "links": sims[0].net.n_links, "steps": steps,
                 "ms_per_step": t,
                 "us_per_link": round(t["median"] * 1e3 / sims[0].net.n_links, 3)}
            if parent is not None:
                r["against"] = against(ms)
            rows[model].append(r)
            print(f"{model:<8} {n:>3} {r['links']:>6} {t['median']:>9.3f} "
                  f"{t['q1']:>9.3f} {t['q3']:>9.3f} {r['us_per_link']:>8.2f}"
                  + _ratios(r))
    if args.union_k:
        print(f"\n{'union':<8} {'n':>3} {'K':>4} {'links':>6} {'ms/step':>9} "
              f"{'ms/trial':>9} {'us/link':>8} {'vs K=1':>7} {'q1':>6} {'q3':>6} "
              f"{'MB/trial':>8} {'MB':>6}" + ratio_head)
        # K = 1 first: its row is the A/A control of every ratio
        ks = list(dict.fromkeys([1, *args.union_k]))
        for model, steps in (("agents", args.agents_steps),
                             ("density", args.density_steps),
                             ("series", args.density_steps)):
            for r in time_unions(model, ks, steps, args.warmup, parent):
                rows[f"{model}_union"].append(r)
                t, v = r["ms_per_step"], r["vs_k1"]
                k = "A/A" if r.get("control") else r["blocks"]
                print(f"{model:<8} {r['n']:>3} {k:>4} {r['links']:>6} "
                      f"{t['median']:>9.3f} {r['ms_per_trial_step']:>9.3f} "
                      f"{r['us_per_link']:>8.2f} {v['median']:>7.3f} "
                      f"{v['q1']:>6.3f} {v['q3']:>6.3f} "
                      f"{r['stored_bytes_per_trial'] / 1e6:>8.2f} "
                      f"{r['stored_bytes'] / 1e6:>6.2f}" + _ratios(r))
    if args.write_steps > 0:
        w = time_writer(args.write_steps)
        rows["writer"].append({"n": WRITE_N, "rows": args.write_steps, **w})
        print(f"\n{'writer':<8} {'n':>3} {'rows':>5} {'cpus':>4} {'ms/row':>9} "
              f"{'q1':>9} {'q3':>9}")
        for kind in ("pinned", "unpinned"):
            t = w[kind]
            cpus = 1 if kind == "pinned" else w["cpus"]
            print(f"{kind:<8} {WRITE_N:>3} {args.write_steps:>5} {cpus:>4} "
                  f"{t['median']:>9.3f} {t['q1']:>9.3f} {t['q3']:>9.3f}")
    if args.json:
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine()}
        with open(args.json, "w") as fh:
            json.dump({"env": env, **rows}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
