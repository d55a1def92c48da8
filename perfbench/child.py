"""One workload repetition in a fresh process.

    python3 perfbench/child.py STATS_JSON TRACE(0|1) -- CLI_ARGS...

Imports trafficrc, optionally installs the tracer, runs the command line
front end in-process and writes a JSON record of monotonic timestamps, peak
RSS, the exit status, the environment and (when traced) the trace to
STATS_JSON. The parent compares the timestamps with its own spawn time:
CLOCK_MONOTONIC is shared by all processes of the machine.
"""

import json
import os
import platform
import resource
import sys
import time


def _first_step_hook(cls, stamps):
    """Record when the first reservoir step starts, then step aside."""
    original = cls.__dict__["step"]

    def step(self, *args, **kwargs):
        stamps.setdefault("first_step", time.monotonic())
        cls.step = original
        return original(self, *args, **kwargs)

    cls.step = step


def main(argv):
    stats_path, traced, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py STATS_JSON TRACE -- CLI_ARGS...")
    import numpy
    import scipy
    from trafficrc import agents, cli, density, kernels

    stamps = {}
    tracer = None
    run = cli.main
    if traced == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(cli.main, "command", span=True)
    for cls in (density.DensitySim, agents.AgentSim):
        _first_step_hook(cls, stamps)

    stamps["main_start"] = time.monotonic()
    rc = run(cli_args)
    stamps["main_end"] = time.monotonic()
    out = {
        "rc": rc,
        "stamps": stamps,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "backend": kernels.backend(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if tracer is not None:
        out["trace"] = tracer.dump()
    with open(stats_path, "w") as fh:
        json.dump(out, fh)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
