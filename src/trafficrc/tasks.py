"""Prediction experiments on the signal reservoir.

Three tasks are implemented:

* density model, one target road: predict its current density from the
  signal observables plus the same road's density T steps back.
* multi-agent model, road subset: predict the densities of the unmonitored
  roads from the signal observables, the monitored roads' densities T steps
  back, and the unmonitored mean T steps back.
* external series: inject a standardized scalar series into the signal
  phases and read the current series value back from the observables alone.

Trials are paired through per-purpose rng streams derived from
(seed, trial, stream id), so every value of a parameter sweep sees the same
random networks, initial states, and phases. Each experiment is a reservoir
run (_simulate) followed by a task readout of its trajectory; the trials
run in batches, each one disjoint-union simulation within a byte budget.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from . import io as _io
from .agents import AgentSim, init_agents
from .density import DensitySim, init_density
from .lattice import assign_turn_table, build_lattice
from .readout import assemble_matrix, log_nrmse, predict, ridge_fit
from .signals import TWO_PI, PhaseBank

__all__ = [
    "STREAM_TURNS", "STREAM_INIT", "STREAM_PHASE", "STREAM_MASK",
    "STREAM_INPUT", "STREAM_AGENTS", "STREAM_ROADS", "stream_rng",
    "TrialResult", "SweepResult", "select_reservoir_fraction",
    "default_target_link", "lag_diagnostic", "run_experiment",
    "average_prediction", "summarize", "sweep", "run_simulation",
]

# rng stream ids; one independent stream per random ingredient of a trial
STREAM_TURNS = 1
STREAM_INIT = 2
STREAM_PHASE = 3
STREAM_MASK = 4
STREAM_INPUT = 5
STREAM_AGENTS = 6
STREAM_ROADS = 7
STREAM_SERIES = 1000    # shared across trials, not per-trial


def stream_rng(seed, trial, stream):
    """Independent generator for one purpose within one trial."""
    return default_rng((int(seed), int(trial), int(stream)))


@dataclass
class TrialResult:
    """One trial's test-set outcome.

    teacher/predicted hold the test segment, 1-d for single-output tasks and
    (outputs, steps) otherwise; t0 is the absolute time of the first test
    step.
    """
    trial: int
    seed: int
    score: float
    lag: int | None
    teacher: np.ndarray
    predicted: np.ndarray
    t0: int


@dataclass
class SweepResult:
    """Per-value trial lists plus a mean/stderr summary table."""
    param: str
    by_value: dict
    rows: list


def select_reservoir_fraction(p, n_junctions, rng, exclude=()):
    """Pick ceil(p * n_junctions) reservoir junctions, never the excluded ones.

    One permutation is drawn regardless of p and the first entries are kept,
    so for a fixed rng state the selections are nested across p. Returns
    sorted junction ids.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    order = rng.permutation(n_junctions)
    if exclude:
        drop = set(int(j) for j in exclude)
        order = np.asarray([j for j in order if int(j) not in drop],
                           dtype=np.int64)
    # 1e-9 slack: p * J can land one ulp above an exact integer
    count = max(int(math.ceil(p * n_junctions - 1e-9)), 0)
    count = min(count, order.size)
    return np.sort(order[:count])


def default_target_link(net):
    """Eastbound link out of the grid's central junction."""
    if net.n < 2:
        raise ValueError("prediction tasks need a lattice with n >= 2")
    c = (net.n - 1) // 2
    return net.link_index(net.junction_id(c, c), net.junction_id(c + 1, c))


def _phase_bank(cfg, rng_phase, rng_input=None):
    nj = cfg.n * cfg.n
    xi = rng_phase.uniform(0.0, TWO_PI, nj)
    win = None
    if rng_input is not None:
        win = rng_input.uniform(-cfg.sigma_in, cfg.sigma_in, nj)
    return PhaseBank(cfg.tau, xi, win=win)


def _span(cfg):
    """Total sim steps and the first usable feature row."""
    first = cfg.washout + cfg.T
    return first + cfg.train + cfg.test, first


def lag_diagnostic(y, y_hat, max_lag):
    """Delay at which the prediction best matches the teacher.

    Maximizes the Pearson correlation of y_hat(t) against y(t - lag) over
    lag = 0..max_lag; ties keep the smallest lag. A pass-through readout
    scores its input delay here. Returns None if no lag gives a defined
    correlation (either side constant on the overlap).
    """
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.shape != y_hat.shape:
        raise ValueError("teacher and prediction series differ in length")
    n = y.size
    best, best_c = None, -np.inf
    for lag in range(0, min(int(max_lag), n - 3) + 1):
        a = y[: n - lag]
        b = y_hat[lag:]
        sa, sb = a.std(), b.std()
        if sa == 0.0 or sb == 0.0:
            continue
        c = float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))
        if c > best_c:
            best, best_c = lag, c
    return best


# A union of K trials keeps K * _trial_bytes alive from its run through the
# trials' readouts, and K is the most trials within _BATCH_BYTES: all ten of
# the 3x3 agents recipe (1.35 MB each), 11 of the 5x5 density recipe
# (1.27 MB) and 3 of the 10x10 external-series recipe (4.57 MB). A union pays
# on each of those lattices (a trial-step costs 0.47, 0.31 and 0.71 of its
# K=1 cost at K = 10, 10 and 3), so memory is the only limit. Measured on
# 2 cores, the budget raises the recipe sweeps' peak RSS by 5-16 MB (c5
# 61.9 -> 67.2 MB, c3 56.7 -> 68.2 MB, c6 62.8 -> 78.6 MB) and cuts their
# wall time by 20-35%.
_BATCH_BYTES = 14_000_000


def _trial_bytes(cfg, steps, links):
    """Bytes a trial's run of `steps` steps stores: u, one column per
    junction, and k, one per stored link (links None: every link)."""
    return 8 * steps * (cfg.n * cfg.n + (cfg.n_links if links is None else len(links)))


def _batches(cfg, steps, links):
    """Trials in order, cut into the batches that _simulate runs together,
    yielded one at a time; runs are `steps` long and store `links`."""
    size = max(1, min(cfg.trials, _BATCH_BYTES // _trial_bytes(cfg, steps, links)))
    for b in range(0, cfg.trials, size):
        yield range(b, min(b + size, cfg.trials))


def _union(cfg, net, trials, driven=False):
    """The trials' reservoirs as the blocks of one sim on the lattice net,
    each built from its rng streams (turn table, phase bank, initial state).
    A driven bank draws input weights from its input stream. The readout
    fields (p, M, beta) play no part."""
    tables = [assign_turn_table(net, cfg.turn_weights,
                                stream_rng(cfg.seed, t, STREAM_TURNS)) for t in trials]
    banks = [_phase_bank(cfg, stream_rng(cfg.seed, t, STREAM_PHASE),
                         stream_rng(cfg.seed, t, STREAM_INPUT) if driven else None)
             for t in trials]
    if cfg.model == "agents":
        rngs = [stream_rng(cfg.seed, t, STREAM_AGENTS) for t in trials]
        states = [init_agents(net, table, rng, per_link=cfg.agents_per_link,
                              params=cfg.ov) for table, rng in zip(tables, rngs)]
        return AgentSim(net, tables, banks, states, cfg.ov, rngs)
    q0s = [init_density(net, cfg.total_vehicles, stream_rng(cfg.seed, t, STREAM_INIT))
           for t in trials]
    return DensitySim(net, tables, banks, q0s)


def _simulate(cfg, net, trials, steps, inputs=None, links=None):
    """Run the trials' union (see _union) `steps` steps and return one
    trajectory per trial, in order.

    inputs[t], if given, is injected at step t through each trial's input
    weights. A run stores the densities of `links` only (None: every link).
    """
    sim = _union(cfg, net, trials, driven=inputs is not None)
    return sim.split(sim.run(steps, inputs=inputs, links=links))


def _read(cfg, trial, net, obs, teacher, u=None, k=None, exclude=()):
    """One trial's readout of obs, its (X1, X2) over every row and junction:
    fitted on the training steps and scored on the test steps of teacher
    (1-d, or (outputs, steps)).

    The reservoir mask is drawn from the trial's mask stream, never on the
    excluded junctions. The features [1, U, X1, X2, K] (see assemble_matrix)
    cover rows _span(cfg)[1] onwards, as do teacher, u and k. The lag is the
    first one defined on a non-constant output.
    """
    steps, first = _span(cfg)
    mask = select_reservoir_fraction(
        cfg.p, net.n_junctions, stream_rng(cfg.seed, trial, STREAM_MASK),
        exclude=exclude)
    rows = slice(first, steps)
    x = assemble_matrix(obs[0][rows], obs[1][rows], u=u, k=k, cols=mask)
    tr = cfg.train
    w = ridge_fit(x[:, :tr], teacher[..., :tr], cfg.beta)
    pred = predict(w, x[:, tr:])
    test = teacher[..., tr:]
    score = log_nrmse(test, pred)
    t0 = first + tr
    max_lag = max(2 * cfg.T, 10)
    lag = None
    for y, y_hat in zip(np.atleast_2d(test), pred):
        lag = lag_diagnostic(y, y_hat, max_lag)
        if lag is not None:
            break
    return TrialResult(trial, cfg.seed, score, lag, test.copy(),
                       pred.reshape(test.shape), t0)


def _read_density(cfg, target, trial, net, traj, obs):
    """Target-road density from the observables and the road's own past (U);
    the road's two end junctions stay out of the mask."""
    steps, first = _span(cfg)
    y = traj.density(target)[:steps]
    return _read(cfg, trial, net, obs, y[first:], u=y[cfg.washout:steps - cfg.T],
                 exclude=(net.link_from[target], net.link_to[target]))


def _read_agents(cfg, trial, net, traj, obs):
    """Unmonitored-road densities (multi-output) from the observables, the
    unmonitored mean T steps back (U) and the monitored roads T steps back
    (K)."""
    steps, first = _span(cfg)
    order = stream_rng(cfg.seed, trial, STREAM_ROADS).permutation(net.n_links)
    monitored = np.sort(order[:cfg.M])
    hidden = np.sort(order[cfg.M:])
    past = traj.k[cfg.washout:steps - cfg.T]
    return _read(cfg, trial, net, obs, traj.k[first:steps, hidden].T,
                 u=past[:, hidden].mean(axis=1), k=past[:, monitored])


def _read_series(cfg, y, z, trial, net, traj, obs):
    """Series value y(t) from the observables, plus the injected y(t-T) (U)
    when task2_feature is "a"."""
    steps, first = _span(cfg)
    u = z[cfg.washout:steps - cfg.T] if cfg.task2_feature == "a" else None
    return _read(cfg, trial, net, obs, y[first:], u=u)


def _synth_series(cfg):
    """The configured synthetic series: series_synth.length values, or the
    experiment's span when no length is set. Every trial reads the same one."""
    sp = cfg.series_synth
    length = sp.length if sp.length is not None else _span(cfg)[0]
    return _io.synth_series(sp, length, default_rng((cfg.seed, STREAM_SERIES)))


def _series_values(cfg, steps):
    """(key, values): the config key that names the external series,
    series_csv if set and else series_synth, and its first `steps` values."""
    if cfg.series_csv is None:
        key, values = "series_synth", _synth_series(cfg)
    else:
        key = "series_csv"
        try:
            values = _io.read_series_csv(cfg.series_csv)
        except OSError as exc:
            raise _io.ConfigError(
                f"config key 'series_csv': cannot read {cfg.series_csv!r}: "
                f"{exc.strerror or exc}") from None
        except ValueError as exc:
            raise _io.ConfigError(f"config key 'series_csv': {exc}") from None
    if values.size < steps:
        raise _io.ConfigError(
            f"config key {key!r}: series holds {values.size} steps; the "
            f"experiment needs {steps}")
    return key, values[:steps]


def _plan(cfg, net):
    """Check cfg against its task, on its lattice net, before any simulation.

    Returns (inputs, links, readout): the external drive of every trial
    (None on the density_link task), the links whose densities the readout
    reads (None: every link) and readout(trial, net, traj, obs) ->
    TrialResult, which reads the first _span(cfg)[0] steps of a possibly
    longer run; obs is traj.observables(), the (X1, X2) of every row and
    junction.
    readout is None when every road is monitored. The external series is
    standardized with mean/std taken from its pre-test prefix and injected
    T steps late through each trial's input weights.
    """
    if cfg.n < 2:
        raise _io.ConfigError(
            "config key 'n': prediction tasks need a lattice with n >= 2")
    if cfg.task == "external_series":
        if cfg.model != "density":
            raise _io.ConfigError(
                "config key 'model': the external-series task runs on the "
                "density model")
        steps = _span(cfg)[0]
        key, y = _series_values(cfg, steps)
        prefix = y[:cfg.washout + cfg.train]
        mu, sd = float(prefix.mean()), float(prefix.std())
        if sd == 0.0:
            raise _io.ConfigError(
                f"config key {key!r}: series is constant over the training "
                f"prefix (its first {prefix.size} steps)")
        z = (y - mu) / sd
        inputs = np.concatenate([np.zeros(cfg.T), z[:steps - cfg.T]])
        return inputs, [], functools.partial(_read_series, cfg, y, z)
    if cfg.model == "agents":
        if cfg.agents_per_link == 0:
            raise _io.ConfigError(
                "config key 'agents_per_link': the prediction task needs "
                "agents; with none every road stays empty")
        if cfg.M > cfg.n_links:
            raise _io.ConfigError(
                f"config key 'M': at most {cfg.n_links} roads on an n={cfg.n} grid")
        if cfg.M == cfg.n_links:
            return None, None, None
        return None, None, functools.partial(_read_agents, cfg)
    if cfg.target_link is None:
        target = default_target_link(net)
    else:
        try:
            target = net.link_index(*cfg.target_link)
        except ValueError as exc:
            raise _io.ConfigError(
                f"config key 'target_link': {exc} on an n={cfg.n} grid") from None
    return None, [target], functools.partial(_read_density, cfg, target)


def _run(cfg, net, plans, shared):
    """Simulate, then read out: every trial of cfg, for every plan.

    plans maps a key to (cfg_k, inputs, links, readout) as _plan returns
    them; the configs differ only in fields that keep the lattice and the
    trials. With shared, every plan is read out of one run per trial, as long
    as the longest span among them; otherwise each plan gets its own runs.
    Plans without a readout run nothing. Batches of trials (see _batches) run
    outermost, so one batch is alive at a time. Returns {key: trial list}.
    """
    live = [k for k, plan in plans.items() if plan[3] is not None]
    by_key = {k: [] for k in plans}
    if not live:
        return by_key
    groups = [live] if shared else [[k] for k in live]
    # every plan of cfg stores the same links
    longest = max(_span(plans[k][0])[0] for k in live)
    for batch in _batches(cfg, longest, plans[live[0]][2]):
        for group in groups:
            cfg_k, inputs, links, _ = plans[group[0]]
            steps = max(_span(plans[k][0])[0] for k in group)
            runs = _simulate(cfg_k, net, batch, steps, inputs, links)
            for trial, traj in zip(batch, runs):
                # X1/X2 once per trial, read by every readout of the group
                obs = traj.observables()
                for k in group:
                    by_key[k].append(plans[k][3](trial, net, traj, obs))
                del obs
            del runs, traj
    return by_key


def run_experiment(cfg):
    """Run every trial of the configured (task, model); returns the trial list.

    cfg is validated here, so a config whose model or task was switched
    after loading is checked as it runs.
    """
    _io.validate_config(cfg)
    net = build_lattice(cfg.n, cfg.link_length)
    return _run(cfg, net, {None: (cfg, *_plan(cfg, net))}, True)[None]


def average_prediction(results, count=None):
    """Score the trial-averaged prediction against the shared teacher.

    Valid only for paired trials of the same experiment (identical teacher);
    averaging suppresses the per-trial randomness of the reservoir.
    """
    picked = list(results if count is None else results[:count])
    if not picked:
        raise ValueError("no trials to average")
    teacher = picked[0].teacher
    for r in picked[1:]:
        if not np.array_equal(r.teacher, teacher):
            raise ValueError("trials do not share a teacher; cannot average")
    mean_pred = np.mean([r.predicted for r in picked], axis=0)
    return log_nrmse(teacher, mean_pred), mean_pred


def summarize(results):
    """Mean and standard error of the trial scores."""
    scores = np.asarray([r.score for r in results], dtype=float)
    k = scores.size
    stderr = float(scores.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
    return {"mean": float(scores.mean()), "stderr": stderr, "trials": int(k)}


# a key a sweep takes: its row in ExperimentConfig says what it moves
_ROWS = {f.name: f.metadata for f in dataclasses.fields(_io.ExperimentConfig)}
_SWEEP_PARAMS = tuple(k for k, row in _ROWS.items() if row["moves"])


def _sweep_value(param, raw):
    """An int key's values must be integral (3, "3", 8.0 pass); others become floats."""
    try:
        value = float(raw)
    except ValueError:
        raise _io.ConfigError(
            f"config key {param!r}: sweep value {raw!r} is not a number") from None
    if _ROWS[param]["kind"] is not int:
        return value
    if not value.is_integer():
        raise _io.ConfigError(
            f"config key {param!r}: sweep value {raw!r} is not an integer")
    return int(value)


def sweep(cfg, param, values):
    """Run the configured experiment for each parameter value.

    The base seed is reused, so trials stay paired across values, and every
    value runs on one lattice: no sweep parameter changes it. Every value is
    checked before the first simulation; a value given twice is refused, and
    so is an M sweep off the agents model, whose readout alone reads M. Each
    trial is simulated once per distinct reservoir run and every value
    sharing that run is read out of it, as param's row says: readout keys
    (p, M, beta) never change the run, and on the density_link task the span
    key T only lengthens it, so the longest span serves every T.
    """
    if param not in _SWEEP_PARAMS:
        raise _io.ConfigError(
            f"sweep parameter must be one of {', '.join(_SWEEP_PARAMS)}")
    if not values:
        raise _io.ConfigError(f"config key {param!r}: no sweep values given")
    configs = {}
    for raw in values:
        value = _sweep_value(param, raw)
        if value in configs:
            raise _io.ConfigError(
                f"config key {param!r}: sweep value {value!r} is given twice")
        cfg_v = dataclasses.replace(cfg, **{param: value})
        _io.validate_config(cfg_v)
        configs[value] = cfg_v
    # every value's config, and so every key of the base, is valid here
    if param == "M" and cfg.model != "agents":
        raise _io.ConfigError(
            "config key 'M': only the agents model reads M; a sweep over it "
            f"would repeat one result on the {cfg.model} model")
    net = build_lattice(cfg.n, cfg.link_length)
    plans = {v: (c, *_plan(c, net)) for v, c in configs.items()}
    moves = _ROWS[param]["moves"]
    shared = moves == "readout" or (moves == "span" and cfg.task == "density_link")
    by_value = _run(cfg, net, plans, shared)
    rows = [dict(summarize(by_value[v]), value=v) for v in configs if by_value[v]]
    return SweepResult(param, by_value, rows)


def run_simulation(cfg):
    """Run the configured model once (trial 0 streams) for cfg.steps steps,
    or the experiment's span when unset; returns (net, trajectory)."""
    _io.validate_config(cfg)
    if cfg.model == "density" and cfg.n < 2:
        raise _io.ConfigError(
            "config key 'n': the density model needs a lattice with n >= 2")
    steps = cfg.steps if cfg.steps is not None else _span(cfg)[0]
    net = build_lattice(cfg.n, cfg.link_length)
    return net, _simulate(cfg, net, [0], steps)[0]
