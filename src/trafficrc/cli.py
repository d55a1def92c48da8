"""Command line front end.

Subcommands:
  simulate       run one model and dump the reservoir trajectory
  task1-density  target-road prediction on the density model
  task1-agents   unmonitored-road prediction on the multi-agent model
  task2          external-series prediction through phase injection
  sweep          re-run the configured experiment over a parameter grid
  synth          write a synthetic external series CSV

Every run writes its outputs plus a manifest.json (with the fully resolved
config) into one directory; a manifest can be fed back to --config to repeat
the run. Errors print a single JSON line to stderr and exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io as _io
from . import tasks
from .lattice import save_network

_TASK_COMMANDS = {
    "task1-density": ("density", "density_link"),
    "task1-agents": ("agents", "density_link"),
    "task2": ("density", "external_series"),
}


def _out_dir(args, command):
    if args.out:
        return args.out
    root = os.environ.get(_io.OUT_ENV, "runs")
    return os.path.join(root, command)


def _load_cfg(args, force=None):
    data = _io.read_config_dict(args.config) if args.config else {}
    data = dict(data)
    if force is not None:
        # the subcommand owns the experiment identity
        data["model"], data["task"] = force
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        data["trials"] = args.trials
    if getattr(args, "steps", None) is not None:
        data["steps"] = args.steps
    if getattr(args, "series", None):
        data["series_csv"] = args.series
    return _io.config_from_dict(data)


def _cmd_simulate(args):
    cfg = _load_cfg(args)
    net, traj = tasks.run_simulation(cfg)
    out = _out_dir(args, "simulate")
    os.makedirs(out, exist_ok=True)
    traj.write_csv(os.path.join(out, "trajectory.csv"), net)
    save_network(os.path.join(out, "network.json"), net)
    _io._manifest(out, "simulate", cfg.seed, cfg,
                  ["trajectory.csv", "network.json", "manifest.json"],
                  notes={"steps": traj.steps})
    print(out)
    return 0


def _cmd_task(args, command):
    cfg = _load_cfg(args, force=_TASK_COMMANDS[command])
    results = tasks.run_experiment(cfg)
    notes = {"summary": tasks.summarize(results)} if results else None
    if command == "task2" and len(results) >= 2:
        k = min(cfg.trial_average, len(results))
        avg_score, _ = tasks.average_prediction(results, k)
        notes["averaged_lognrmse"] = float(avg_score)
        notes["averaged_trials"] = k
    out = _out_dir(args, command)
    _io.emit_run_results(out, command, cfg, results, notes=notes)
    print(out)
    return 0


def _cmd_sweep(args):
    cfg = _load_cfg(args)
    values = [float(v) for v in args.values.replace(",", " ").split()]
    result = tasks.sweep(cfg, args.param, values)
    out = _out_dir(args, "sweep")
    _io.emit_sweep_results(out, f"sweep:{args.param}", cfg, result)
    print(out)
    return 0


def _cmd_synth(args):
    cfg = _load_cfg(args)
    sp = cfg.series_synth
    length = sp.length
    if length is None:
        length = cfg.washout + cfg.T + cfg.train + cfg.test
    rng = np.random.default_rng((cfg.seed, tasks.STREAM_SERIES))
    values = _io.synth_series(sp.kind, length, rng, amplitude=sp.amplitude,
                              offset=sp.offset, period=sp.period, rho=sp.rho,
                              sigma=sp.sigma)
    out = _out_dir(args, "synth")
    os.makedirs(out, exist_ok=True)
    _io.write_series_csv(os.path.join(out, "series.csv"), values)
    _io._manifest(out, "synth", cfg.seed, cfg, ["series.csv", "manifest.json"],
                  notes={"length": int(length)})
    print(out)
    return 0


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file (or a run manifest)")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", help="output directory (default runs/<command>)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trafficrc",
        description="Traffic-signal reservoir computing experiments.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="dump one reservoir trajectory")
    _add_common(p)
    p.add_argument("--steps", type=int, help="number of reservoir steps")

    for name in ("task1-density", "task1-agents", "task2"):
        p = subs.add_parser(name, help=f"run the {name} experiment")
        _add_common(p)
        p.add_argument("--trials", type=int, help="override the trial count")
        if name == "task2":
            p.add_argument("--series", help="external series CSV "
                                            "(default: synthetic)")

    p = subs.add_parser("sweep", help="sweep one parameter of the experiment")
    _add_common(p)
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--param", required=True,
                   help="parameter to sweep: p, M, T, beta, or tau")
    p.add_argument("--values", required=True,
                   help="comma- or space-separated parameter values")
    p.add_argument("--series", help="external series CSV for task2 configs")

    p = subs.add_parser("synth", help="write a synthetic external series")
    _add_common(p)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command in _TASK_COMMANDS:
            return _cmd_task(args, args.command)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "synth":
            return _cmd_synth(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (_io.ConfigError, ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
