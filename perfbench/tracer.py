"""Wraps trafficrc's public functions from outside and times them.

Every wrapped function adds to an aggregate record (calls, inclusive time,
self time: inclusive minus the time of wrapped callees). Functions called a
few times per trial or command also record a span (id, parent id, name,
start, end); functions called every reservoir step record only the
aggregate. Both stay in memory until the child process writes them out.

Names imported into another module are wrapped where the caller resolves
them (``link_go`` in ``density`` and ``agents``, ``ridge_fit`` in ``tasks``),
so no call escapes through an unwrapped alias.
"""

import time

from trafficrc import agents, cli, density, kernels, lattice, signals, tasks
from trafficrc import io as tio


def _nbytes(values):
    total = 0
    for v in values:
        if isinstance(v, tuple):
            total += _nbytes(v)
        else:
            total += getattr(v, "nbytes", 0)
    return total


def _density_step_bytes(args, result):
    # computed, not measured: array arguments plus the returned arrays
    return _nbytes(args) + _nbytes(result)


def _matrix_bytes(args, result):
    return result.nbytes


def _trials(args, result):
    return len(result)


# (owner, attribute, record name, records spans, extra count)
# The extra count is computed from (args, result) and summed per record.
_TARGETS = (
    (signals.PhaseBank, "step", "signals.PhaseBank.step", False, None),
    (density, "link_go", "signals.link_go", False, None),
    (agents, "link_go", "signals.link_go", False, None),
    (density, "reservoir_observables", "signals.reservoir_observables", False, None),
    (agents, "reservoir_observables", "signals.reservoir_observables", False, None),
    (kernels, "density_step", "kernels.density_step", False, _density_step_bytes),
    (kernels, "agents_substep", "kernels.agents_substep", False, None),
    (density.DensitySim, "step", "density.step", False, None),
    (agents.AgentSim, "step", "agents.step", False, None),
    (density.DensitySim, "run", "traj.run", True, None),
    (agents.AgentSim, "run", "traj.run", True, None),
    (tasks, "build_lattice", "lattice.build_lattice", True, None),
    (tasks, "assign_turn_table", "lattice.assign_turn_table", True, None),
    (lattice.TurnTable, "matrix", "lattice.matrix", True, _matrix_bytes),
    (tasks, "assemble_matrix", "readout.assemble_matrix", True, None),
    (tasks, "ridge_fit", "readout.ridge_fit", True, None),
    (tasks, "predict", "readout.predict", True, None),
    (tasks, "log_nrmse", "readout.log_nrmse", True, None),
    (tasks, "lag_diagnostic", "tasks.lag_diagnostic", True, None),
    (tasks, "sweep", "tasks.sweep", True, None),
    (tasks, "run_experiment", "tasks.run_experiment", True, _trials),
    (tasks, "run_simulation", "tasks.run_simulation", True, None),
    (tio, "read_config_dict", "io.read_config_dict", True, None),
    (tio, "config_from_dict", "io.config_from_dict", True, None),
    (tio, "validate_config", "io.validate_config", True, None),
    (tio, "emit_run_results", "io.emit_run_results", True, None),
    (tio, "emit_sweep_results", "io.emit_sweep_results", True, None),
    (tio, "_manifest", "io.manifest", True, None),
    (density.Trajectory, "write_csv", "io.write_trajectory_csv", True, None),
    (cli, "save_network", "io.save_network", True, None),
)


class Tracer:
    """Aggregate records and spans for one process, kept in memory."""

    def __init__(self):
        self.records = {}   # name -> [calls, inclusive s, self s, extra]
        self.spans = []     # [id, parent id, name, start s, end s]
        self._stack = []    # open frames: [child time s, span id or None]

    def install(self):
        """Replace every target with a timing wrapper."""
        for owner, attr, name, span, extra in _TARGETS:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, span, extra))

    def wrap(self, fn, name, span=False, extra=None):
        record = self.records.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = None
            if span:
                span_id = len(spans)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                spans.append([span_id, parent, name, 0.0, 0.0])
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                record[0] += 1
                record[1] += dt
                record[2] += dt - frame[0]
                if span_id is not None:
                    spans[span_id][3] = t0
                    spans[span_id][4] = t0 + dt
            if extra is not None:
                record[3] += extra(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self):
        return {
            "functions": {name: {"calls": r[0], "incl_s": r[1], "self_s": r[2],
                                 "extra": r[3]}
                          for name, r in self.records.items()},
            "spans": self.spans,
        }
