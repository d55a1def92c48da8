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
run (_simulate) followed by a task readout of its trajectory; small
lattices run a batch of trials as one disjoint-union simulation.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import io as _io
from .agents import AgentSim, init_agents
from .density import DensitySim, init_density
from .lattice import assign_turn_table, build_lattice
from .readout import (TAG_A, TAG_A_PRIME, TAG_B, FeatureDef, assemble_matrix,
                      log_nrmse, predict, ridge_fit)
from .signals import TWO_PI, PhaseBank

__all__ = [
    "STREAM_TURNS", "STREAM_INIT", "STREAM_PHASE", "STREAM_MASK",
    "STREAM_INPUT", "STREAM_AGENTS", "STREAM_ROADS", "stream_rng",
    "TrialResult", "SweepResult", "select_reservoir_fraction",
    "default_target_link", "lag_diagnostic", "run_task1_density",
    "run_task1_agents", "run_task2_external", "run_experiment",
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
    return np.random.default_rng((int(seed), int(trial), int(stream)))


@dataclass
class TrialResult:
    """One trial's test-set outcome.

    teacher/predicted hold the test segment, 1-d for single-output tasks and
    (outputs, steps) otherwise; t0 is the absolute time of the first test
    step. per_output holds single-output scores for multi-output tasks
    (None where a component teacher is constant on the test window).
    """
    trial: int
    seed: int
    score: float
    lag: int | None
    teacher: np.ndarray
    predicted: np.ndarray
    t0: int
    per_output: tuple | None = None


@dataclass
class SweepResult:
    """Per-value trial lists plus a mean/stderr summary table."""
    param: str
    values: tuple
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
    tau = np.asarray(cfg.tau, dtype=float) if isinstance(cfg.tau, tuple) \
        else float(cfg.tau)
    nsf = np.asarray(cfg.ns_stop_first, dtype=bool) \
        if isinstance(cfg.ns_stop_first, tuple) else bool(cfg.ns_stop_first)
    win = None
    if rng_input is not None:
        win = rng_input.uniform(-cfg.sigma_in, cfg.sigma_in, nj)
    return PhaseBank(tau, xi, mode=cfg.phase_mode, win=win, ns_stop_first=nsf)


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


def _score(cfg, trial, fdef, x, teacher):
    """Fit on the training steps, score the test steps of teacher (1-d, or
    (outputs, steps)); the lag is taken on the first non-constant output."""
    tr = cfg.train
    model = ridge_fit(x[:, :tr], teacher[..., :tr], cfg.beta, fdef)
    pred = predict(model, x[:, tr:])
    test = teacher[..., tr:]
    score = log_nrmse(test, pred)
    t0 = _span(cfg)[1] + tr
    max_lag = max(2 * cfg.T, 10)
    if test.ndim == 1:
        lag = lag_diagnostic(test, pred[0], max_lag)
        return TrialResult(trial, cfg.seed, score, lag, test.copy(),
                           pred[0].copy(), t0)
    per_output, lag = [], None
    for i in range(test.shape[0]):
        try:
            per_output.append(log_nrmse(test[i:i + 1], pred[i:i + 1]))
        except ValueError:
            per_output.append(None)
            continue
        if lag is None:
            lag = lag_diagnostic(test[i], pred[i], max_lag)
    return TrialResult(trial, cfg.seed, score, lag, test.copy(), pred.copy(),
                       t0, per_output=tuple(per_output))


# trials per union: enough blocks for about this many links. Two n=3 agents
# blocks (48 links) step a trial about 30% cheaper than one; more blocks save
# more but keep more trajectories alive, and n >= 4 stays one trial a time.
_BATCH_LINKS = 48


def _batches(cfg):
    """Trials in order, cut into the batches that _simulate runs together.

    A batch holds min(trials, ceil(_BATCH_LINKS / n_links)) trials, so small
    lattices share one union and n >= 4 runs one trial at a time.
    """
    size = min(cfg.trials, -(-_BATCH_LINKS // cfg.n_links))
    return [range(b, min(b + size, cfg.trials))
            for b in range(0, cfg.trials, size)]


def _simulate(cfg, trials, steps, inputs=None, links=None):
    """Build the trials' reservoirs from their rng streams and run them
    `steps` steps.

    The readout fields (p, M, beta) play no part. inputs[t], if given, is
    injected at step t through each trial's input weights. A run stores the
    densities of `links` only (None: every link). The trials run as the
    blocks of one union sim. Returns one (net, traj) per trial, in order.
    """
    net = build_lattice(cfg.n, cfg.link_length)
    sims = []
    for trial in trials:
        table = assign_turn_table(net, cfg.turn_weights,
                                  stream_rng(cfg.seed, trial, STREAM_TURNS))
        rng_input = None if inputs is None \
            else stream_rng(cfg.seed, trial, STREAM_INPUT)
        bank = _phase_bank(cfg, stream_rng(cfg.seed, trial, STREAM_PHASE),
                           rng_input)
        if cfg.model == "agents":
            rng_agents = stream_rng(cfg.seed, trial, STREAM_AGENTS)
            state = init_agents(net, table, rng_agents,
                                per_link=cfg.agents_per_link, params=cfg.ov)
            sims.append(AgentSim(net, table, bank, state, cfg.ov, rng_agents))
        else:
            q0 = init_density(net, cfg.total_vehicles,
                              stream_rng(cfg.seed, trial, STREAM_INIT),
                              how=cfg.init)
            sims.append(DensitySim(net, table, bank, q0))
    sim = type(sims[0]).union(sims)
    runs = sim.split(sim.run(steps, inputs=inputs, links=links))
    return [(net, traj) for traj in runs]


def _features(fdef, traj, rows, u=None, k_hist=None):
    """The readout's feature matrix, with X1 and X2 derived only at its
    rows and masked junctions."""
    x1, x2 = traj.observables(rows, fdef.mask)
    return assemble_matrix(fdef, x1, x2, u=u, k_hist=k_hist)


def _read_density(cfg, target, trial, net, traj):
    """Target-road density from the observables and the road's own past."""
    steps, first = _span(cfg)
    ends = (net.link_from[target], net.link_to[target])
    mask = select_reservoir_fraction(
        cfg.p, net.n_junctions, stream_rng(cfg.seed, trial, STREAM_MASK),
        exclude=ends)
    y = traj.density(target)[:steps]
    fdef = FeatureDef(TAG_A, mask, horizon=cfg.T)
    x = _features(fdef, traj, slice(first, steps),
                  u=y[cfg.washout:steps - cfg.T])
    return _score(cfg, trial, fdef, x, y[first:])


def _read_agents(cfg, trial, net, traj):
    """Unmonitored-road densities (multi-output) from the observables, the
    monitored roads T steps back and the unmonitored mean T steps back."""
    steps, first = _span(cfg)
    order = stream_rng(cfg.seed, trial, STREAM_ROADS).permutation(net.n_links)
    monitored = np.sort(order[:cfg.M])
    hidden = np.sort(order[cfg.M:])
    mask = select_reservoir_fraction(
        cfg.p, net.n_junctions, stream_rng(cfg.seed, trial, STREAM_MASK))
    past = traj.k[cfg.washout:steps - cfg.T]
    fdef = FeatureDef(TAG_A_PRIME, mask, roads=monitored, horizon=cfg.T)
    x = _features(fdef, traj, slice(first, steps),
                  u=past[:, hidden].mean(axis=1), k_hist=past)
    return _score(cfg, trial, fdef, x, traj.k[first:steps, hidden].T)


def _read_series(cfg, y, z, trial, net, traj):
    """Series value y(t) from the observables (tag "b"), plus the injected
    y(t-T) when task2_feature is "a" (tag "a")."""
    steps, first = _span(cfg)
    mask = select_reservoir_fraction(
        cfg.p, net.n_junctions, stream_rng(cfg.seed, trial, STREAM_MASK))
    with_u = cfg.task2_feature == "a"
    fdef = FeatureDef(TAG_A if with_u else TAG_B, mask, horizon=cfg.T)
    x = _features(fdef, traj, slice(first, steps),
                  u=z[cfg.washout:steps - cfg.T] if with_u else None)
    return _score(cfg, trial, fdef, x, y[first:])


def _series_values(cfg, series, steps):
    if series is None and cfg.series_csv is not None:
        series = _io.read_series_csv(cfg.series_csv)
    if series is None:
        sp = cfg.series_synth
        length = sp.length if sp.length is not None else steps
        values = _io.synth_series(sp.kind, length,
                                  np.random.default_rng((cfg.seed, STREAM_SERIES)),
                                  amplitude=sp.amplitude, offset=sp.offset,
                                  period=sp.period, rho=sp.rho, sigma=sp.sigma)
    elif isinstance(series, _io.Series):
        values = series.values
    else:
        values = np.asarray(series, dtype=float)
    if values.size < steps:
        raise ValueError(
            f"series holds {values.size} steps; the experiment needs {steps}")
    return values[:steps]


def _plan(cfg, series=None):
    """Check cfg against its task before any simulation.

    Returns (inputs, links, readout): the external drive of every trial
    (None on the density_link task), the links whose densities the readout
    reads (None: every link) and readout(trial, net, traj) -> TrialResult,
    which reads the first _span(cfg)[0] steps of a possibly longer run.
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
        y = _series_values(cfg, series, steps)
        prefix = y[:cfg.washout + cfg.train]
        mu, sd = float(prefix.mean()), float(prefix.std())
        if sd == 0.0:
            raise ValueError("external series is constant over the training prefix")
        z = (y - mu) / sd
        inputs = np.concatenate([np.zeros(cfg.T), z[:steps - cfg.T]])
        return inputs, [], functools.partial(_read_series, cfg, y, z)
    if cfg.model == "agents":
        if cfg.M > cfg.n_links:
            raise _io.ConfigError(
                f"config key 'M': at most {cfg.n_links} roads on an n={cfg.n} grid")
        if cfg.M == cfg.n_links:
            return None, None, None
        return None, None, functools.partial(_read_agents, cfg)
    net = build_lattice(cfg.n)
    if cfg.target_link is None:
        target = default_target_link(net)
    else:
        try:
            target = net.link_index(*cfg.target_link)
        except ValueError as exc:
            raise _io.ConfigError(
                f"config key 'target_link': {exc} on an n={cfg.n} grid") from None
    return None, [target], functools.partial(_read_density, cfg, target)


def run_experiment(cfg, series=None):
    """Run every trial of the configured (task, model); returns the trial list.

    cfg is validated here, so a config whose model or task was switched
    after loading is checked as it runs.
    """
    _io.validate_config(cfg)
    inputs, links, readout = _plan(cfg, series)
    if readout is None:
        return []
    steps = _span(cfg)[0]
    return [readout(trial, net, traj) for batch in _batches(cfg)
            for trial, (net, traj) in zip(batch, _simulate(cfg, batch, steps,
                                                           inputs, links))]


def run_task1_density(cfg):
    """Target-road density prediction on the density model."""
    return run_experiment(dataclasses.replace(cfg, model="density", task="density_link"))


def run_task1_agents(cfg):
    """Unmonitored-road density prediction on the multi-agent model; no
    trials when all M = n_links roads are monitored."""
    return run_experiment(dataclasses.replace(cfg, model="agents", task="density_link"))


def run_task2_external(cfg, series=None):
    """External-series prediction on the density model: inject y(t-T),
    read y(t) back."""
    return run_experiment(dataclasses.replace(cfg, task="external_series"), series)


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


_SWEEP_PARAMS = ("p", "M", "T", "beta", "tau")
_READOUT_PARAMS = ("p", "M", "beta")


def _sweep_value(param, raw):
    """M and T must be integral (3, "3" and 8.0 pass); the rest become floats."""
    value = float(raw)
    if param not in ("M", "T"):
        return value
    if not value.is_integer():
        raise _io.ConfigError(
            f"config key {param!r}: sweep value {raw!r} is not an integer")
    return int(value)


def sweep(cfg, param, values, series=None):
    """Run the configured experiment for each parameter value.

    The base seed is reused, so trials stay paired across values. Every
    value is checked before the first simulation. Each trial is simulated
    once per distinct reservoir run and every value sharing that run is read
    out of it: p, M and beta never change the run, and on the density_link
    task a larger T only lengthens it, so the longest span serves every T.
    Batches of trials (see _batches) run outermost, so one batch is alive
    at a time.
    """
    if param not in _SWEEP_PARAMS:
        raise _io.ConfigError(
            f"sweep parameter must be one of {', '.join(_SWEEP_PARAMS)}")
    order, plans = [], {}
    for raw in values:
        cfg_v = dataclasses.replace(cfg, **{param: _sweep_value(param, raw)})
        _io.validate_config(cfg_v)
        value = getattr(cfg_v, param)
        order.append(value)
        if value not in plans:
            plans[value] = (cfg_v, *_plan(cfg_v, series))
    live = [v for v, plan in plans.items() if plan[3] is not None]
    shared = param in _READOUT_PARAMS or (param == "T" and cfg.task == "density_link")
    groups = ([live] if live else []) if shared else [[v] for v in live]
    by_value = {v: [] for v in plans}
    for batch in _batches(cfg):
        for group in groups:
            cfg_v, inputs, links, _ = plans[group[0]]
            steps = max(_span(plans[v][0])[0] for v in group)
            runs = _simulate(cfg_v, batch, steps, inputs, links)
            for trial, (net, traj) in zip(batch, runs):
                for v in group:
                    by_value[v].append(plans[v][3](trial, net, traj))
            del runs, net, traj
    rows = [dict(summarize(by_value[v]), value=v) for v in order if by_value[v]]
    return SweepResult(param, tuple(by_value), by_value, rows)


def run_simulation(cfg, steps=None):
    """Run the configured model once (trial 0 streams) and return (net, trajectory)."""
    if steps is None:
        steps = cfg.steps if cfg.steps is not None else _span(cfg)[0]
    return _simulate(cfg, [0], steps)[0]
