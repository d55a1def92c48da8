"""Time the model step of both traffic models over lattice size n.

Everything runs in-process on the numpy kernels. For each n the model is
built from the default config of its model (seed 7, so agents use 20-long
links with 10 agents each) and runs --warmup steps so the agents leave their
standing start. The timed steps then run as 20 rounds of run(steps / 20),
and a round's time per step is run(s) / s: it includes what a run pays
besides the steps, the phase schedule and gates computed before the step
loop and the trajectory it records. One reservoir step of the agents model
is round(1/dt) Euler substeps plus the junction transfers. Reports the
median and quartiles of ms per step over rounds and the median us per link
per step, which stays flat when a step is linear in the lattice size.

The union rows time one union of K blocks (block b seeded 7 + b) of the
n = 3 agents model and of the n = 5 density model, as the tasks batch
trials: ms per step per trial and us per link show how far K blocks in one
set of arrays amortise the per-call overhead of a small lattice. Each
model's unions are timed round-robin, one round of each K in turn, so a
drift of the host's speed reaches every K alike.

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --agents-n 3,6,10 --density-n 5,10,20,40 --json out.json
    python3 benchmarks/bench_kernels.py --agents-n '' --density-n '' --union-k 1,2,4
"""

import argparse
import json
import platform
import time

import numpy as np

from trafficrc.agents import AgentSim, init_agents
from trafficrc.density import DensitySim, init_density
from trafficrc.io import config_from_dict
from trafficrc.lattice import assign_turn_table, build_lattice
from trafficrc.tasks import _phase_bank


def build_sim(model, n, seed=7):
    cfg = config_from_dict({"model": model, "n": n, "seed": seed})
    rng = np.random.default_rng(cfg.seed)
    net = build_lattice(cfg.n, cfg.link_length)
    table = assign_turn_table(net, cfg.turn_weights, rng)
    bank = _phase_bank(cfg, rng)
    if model == "agents":
        state = init_agents(net, table, rng, per_link=cfg.agents_per_link,
                            params=cfg.ov)
        return AgentSim(net, table, bank, state, cfg.ov, rng)
    q0 = init_density(net, cfg.total_vehicles, rng, how=cfg.init)
    return DensitySim(net, table, bank, q0)


UNION_N = {"agents": 3, "density": 5}
ROUNDS = 20


def time_round_robin(sims, steps, warmup):
    """ms per step of each sim: ROUNDS rounds of run(steps / ROUNDS), the
    sims taking turns within each round. Returns the median, quartiles and
    mean over rounds, one dict per sim."""
    for sim in sims:
        sim.run(warmup)
    per = max(1, steps // ROUNDS)
    ms = np.empty((len(sims), ROUNDS))
    for r in range(ROUNDS):
        for i, sim in enumerate(sims):
            start = time.perf_counter()
            sim.run(per)
            ms[i, r] = (time.perf_counter() - start) * 1e3 / per
    return [{"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
             "mean": round(row.mean(), 4)}
            for row, (q1, med, q3) in zip(ms, np.percentile(ms, [25, 50, 75],
                                                            axis=1).T)]


def _sizes(text):
    return [int(v) for v in text.replace(",", " ").split()]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--agents-n", type=_sizes, default=[3, 6, 10],
                    help="lattice sizes for the agents model")
    ap.add_argument("--density-n", type=_sizes, default=[5, 10, 20, 40],
                    help="lattice sizes for the density model")
    ap.add_argument("--union-k", type=_sizes, default=[1, 2, 4],
                    help="block counts of the n=3 agents and n=5 density "
                         "unions")
    ap.add_argument("--agents-steps", type=int, default=200,
                    help="timed reservoir steps per agents size")
    ap.add_argument("--density-steps", type=int, default=2000,
                    help="timed reservoir steps per density size")
    ap.add_argument("--warmup", type=int, default=100,
                    help="untimed steps before timing")
    ap.add_argument("--json", help="also write the results to this file")
    args = ap.parse_args(argv)

    rows = {"agents": [], "density": [], "agents_union": [],
            "density_union": []}
    print(f"{'model':<8} {'n':>3} {'links':>6} {'ms/step':>9} "
          f"{'q1':>9} {'q3':>9} {'us/link':>8}")
    for model, sizes, steps in (("agents", args.agents_n, args.agents_steps),
                                ("density", args.density_n, args.density_steps)):
        for n in sizes:
            sim = build_sim(model, n)
            t = time_round_robin([sim], steps, args.warmup)[0]
            r = {"n": n, "links": sim.net.n_links, "steps": steps,
                 "ms_per_step": t,
                 "us_per_link": round(t["median"] * 1e3 / sim.net.n_links, 3)}
            rows[model].append(r)
            print(f"{model:<8} {n:>3} {r['links']:>6} {t['median']:>9.3f} "
                  f"{t['q1']:>9.3f} {t['q3']:>9.3f} {r['us_per_link']:>8.2f}")
    if args.union_k:
        print(f"\n{'union':<8} {'n':>3} {'K':>3} {'links':>6} {'ms/step':>9} "
              f"{'ms/trial':>9} {'us/link':>8}")
        for model, steps in (("agents", args.agents_steps),
                             ("density", args.density_steps)):
            n = UNION_N[model]
            unions = []
            for k in args.union_k:
                sims = [build_sim(model, n, seed=7 + b) for b in range(k)]
                unions.append(type(sims[0]).union(sims))
            times = time_round_robin(unions, steps, args.warmup)
            for k, sim, t in zip(args.union_k, unions, times):
                r = {"n": n, "blocks": k, "links": sim.net.n_links,
                     "steps": steps, "ms_per_step": t,
                     "ms_per_trial_step": round(t["median"] / k, 4),
                     "us_per_link": round(t["median"] * 1e3 / sim.net.n_links, 3)}
                rows[f"{model}_union"].append(r)
                print(f"{model:<8} {n:>3} {k:>3} {r['links']:>6} "
                      f"{t['median']:>9.3f} {r['ms_per_trial_step']:>9.3f} "
                      f"{r['us_per_link']:>8.2f}")
    if args.json:
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine()}
        with open(args.json, "w") as fh:
            json.dump({"env": env, **rows}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
