"""Timing of the density step and agents-backend comparison.

The density step has a single numpy implementation, so it is timed once.
The agents substep has a numba-jitted kernel and a pure-numpy fallback
(TRAFFICRC_NO_NUMBA=1); both are run in subprocesses, because the backend is
fixed at import time. Reports wall time per backend and the max-abs agents
trajectory difference over a short horizon; the paths follow the same update
rules but are not bit-identical (libm vs numpy transcendentals), so tiny
differences are expected and the agents model is only compared over
--check-steps before its nonlinearity can amplify them.

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --n 14 --steps 5000 --repeat 5
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np


def child(args):
    """Run one model in the current backend; write timings + trajectory."""
    from trafficrc.io import config_from_dict
    from trafficrc.kernels import backend
    from trafficrc.tasks import run_simulation

    cfg = config_from_dict({"model": args.model, "n": args.n, "seed": 7})
    run_simulation(cfg, 3)                      # pay JIT compilation up front
    best = min(
        _timed(lambda: run_simulation(cfg, args.steps))
        for _ in range(args.repeat))
    _, short = run_simulation(cfg, args.check_steps)
    np.savez_compressed(args.out, u=short.u, x1=short.x1, x2=short.x2,
                        k=short.k, seconds=best)
    print(json.dumps({"backend": backend(), "seconds": best}))


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _spawn(args, model, n, no_numba, out):
    env = dict(os.environ, TRAFFICRC_NO_NUMBA="1" if no_numba else "0")
    cmd = [sys.executable, os.path.abspath(__file__), "--child", model,
           "--n", str(n), "--steps", str(args.steps),
           "--check-steps", str(args.check_steps),
           "--repeat", str(args.repeat), "--out", out]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    return np.load(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=10,
                    help="grid size for the density model (agents use n=3)")
    ap.add_argument("--steps", type=int, default=10000,
                    help="timed reservoir steps for the density model")
    ap.add_argument("--agents-steps", type=int, default=1000,
                    help="timed reservoir steps for the agents model")
    ap.add_argument("--check-steps", type=int, default=50,
                    help="horizon for the agents cross-backend agreement check")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timed repetitions; best is reported")
    ap.add_argument("--child", choices=("density", "agents"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        args.model = args.child
        return child(args)

    from trafficrc.kernels import HAVE_NUMBA
    if not HAVE_NUMBA:
        print("numba is not importable; only the numpy agents fallback can run")

    print(f"{'model':<9} {'steps':>6} {'numpy':>9} {'numba':>9} "
          f"{'speedup':>8} {'max|diff|':>10}")
    with tempfile.TemporaryDirectory() as tmp:
        dens = _spawn(args, "density", args.n, True, os.path.join(tmp, "d.npz"))
        print(f"{'density':<9} {args.steps:>6} {float(dens['seconds']):>8.2f}s "
              f"{'(one implementation)':>29}")

        run = argparse.Namespace(**vars(args))
        run.steps = args.agents_steps
        plain = _spawn(run, "agents", 3, True, os.path.join(tmp, "np.npz"))
        t_np = float(plain["seconds"])
        if not HAVE_NUMBA:
            print(f"{'agents':<9} {run.steps:>6} {t_np:>8.2f}s {'-':>9} "
                  f"{'-':>8} {'-':>10}")
            return
        jit = _spawn(run, "agents", 3, False, os.path.join(tmp, "nb.npz"))
        t_nb = float(jit["seconds"])
        diff = max(np.abs(plain[f] - jit[f]).max()
                   for f in ("u", "x1", "x2", "k"))
        print(f"{'agents':<9} {run.steps:>6} {t_np:>8.2f}s {t_nb:>8.2f}s "
              f"{t_np / t_nb:>7.1f}x {diff:>10.2e}")


if __name__ == "__main__":
    main()
