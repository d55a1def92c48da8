"""Experiment drivers: unit selection, lag diagnostic, trials, sweeps."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from trafficrc import tasks
from trafficrc.agents import AgentSim
from trafficrc.cli import main
from trafficrc.density import DensitySim
from trafficrc.io import ConfigError, config_from_dict, load_config
from trafficrc.lattice import build_lattice
from trafficrc.readout import assemble_matrix, log_nrmse
from trafficrc.signals import reservoir_observables
from trafficrc.tasks import (average_prediction, default_target_link,
                             lag_diagnostic, run_experiment, run_simulation,
                             select_reservoir_fraction, summarize, sweep)


# --- reservoir unit selection -------------------------------------------------

def test_fraction_count_rounds_up():
    units = select_reservoir_fraction(0.5, 25, np.random.default_rng(0))
    assert units.size == 13     # ceil(12.5)
    assert np.array_equal(units, np.sort(units))
    assert np.unique(units).size == units.size


def test_fraction_edges():
    assert select_reservoir_fraction(0.0, 25, np.random.default_rng(0)).size == 0
    full = select_reservoir_fraction(1.0, 25, np.random.default_rng(0))
    assert np.array_equal(full, np.arange(25))


def test_fraction_float_product_hazard():
    # 0.04 * 25 lands one ulp above 1.0; must select exactly one unit
    units = select_reservoir_fraction(0.04, 25, np.random.default_rng(3))
    assert units.size == 1


def test_fraction_nested_across_p():
    small = select_reservoir_fraction(0.2, 25, np.random.default_rng(42))
    large = select_reservoir_fraction(0.6, 25, np.random.default_rng(42))
    assert set(small.tolist()) <= set(large.tolist())


def test_fraction_exclusion():
    units = select_reservoir_fraction(1.0, 25, np.random.default_rng(1),
                                      exclude=(3, 17))
    assert units.size == 23
    assert 3 not in units and 17 not in units


def test_fraction_bad_p():
    with pytest.raises(ValueError):
        select_reservoir_fraction(-0.1, 25, np.random.default_rng(0))
    with pytest.raises(ValueError):
        select_reservoir_fraction(1.5, 25, np.random.default_rng(0))


def test_default_target_is_central_eastbound():
    net5 = build_lattice(5)
    target = default_target_link(net5)
    assert net5.link_from[target] == net5.junction_id(2, 2)
    assert net5.link_to[target] == net5.junction_id(3, 2)
    net2 = build_lattice(2)
    target = default_target_link(net2)
    assert net2.link_from[target] == net2.junction_id(0, 0)
    assert net2.link_to[target] == net2.junction_id(1, 0)
    with pytest.raises(ValueError):
        default_target_link(build_lattice(1))


# --- lag diagnostic -----------------------------------------------------------

def test_lag_recovers_shift():
    rng = np.random.default_rng(5)
    y = rng.normal(size=400)
    shifted = np.roll(y, 3)     # prediction trails the teacher by 3 steps
    assert lag_diagnostic(y, shifted, 10) == 3


def test_lag_zero_for_identity():
    y = np.sin(np.arange(200) / 7.0)
    assert lag_diagnostic(y, y, 10) == 0


def test_lag_ties_take_smallest():
    y = np.tile([1.0, -1.0], 50)    # period 2: lags 0 and 2 correlate equally
    assert lag_diagnostic(y, y, 6) == 0


def test_lag_undefined_for_constant():
    y = np.arange(50.0)
    assert lag_diagnostic(y, np.ones(50), 5) is None


def test_lag_length_mismatch():
    with pytest.raises(ValueError):
        lag_diagnostic(np.zeros(10), np.zeros(9), 3)


# --- task runs at desk scale --------------------------------------------------

_SMALL_DENSITY = dict(model="density", task="density_link", n=3, T=2,
                      washout=20, train=120, test=60, trials=3, seed=9)
_SMALL_AGENTS = dict(model="agents", task="density_link", n=2, T=2, M=3,
                     washout=15, train=80, test=40, trials=2, seed=9)
_SMALL_SERIES = dict(model="density", task="external_series", n=3, T=2,
                     washout=20, train=150, test=60, trials=3, seed=9)
_SMALL = {"density": _SMALL_DENSITY, "agents": _SMALL_AGENTS, "series": _SMALL_SERIES}
# simulations per trial loop: the trials of each small config share one union
# (a few KB of stored u and k per trial)
_RUNS = {"density": 1, "agents": 1, "series": 1}


def test_density_task_shapes_and_determinism():
    cfg = config_from_dict(dict(_SMALL_DENSITY))
    res = run_experiment(cfg)
    assert len(res) == cfg.trials
    for r in res:
        assert np.isfinite(r.score)
        assert r.teacher.shape == (cfg.test,)
        assert r.predicted.shape == (cfg.test,)
        assert r.t0 == cfg.washout + cfg.T + cfg.train
    again = run_experiment(cfg)
    for a, b in zip(res, again):
        assert a.score == b.score
        assert np.array_equal(a.predicted, b.predicted)


def test_density_trials_share_teacher():
    res = run_experiment(config_from_dict(dict(_SMALL_DENSITY)))
    # same target link and densities are trial-specific: teachers differ,
    # but each trial's teacher matches its own trajectory length
    assert all(r.teacher.shape == res[0].teacher.shape for r in res)


def test_agents_task_multi_output():
    cfg = config_from_dict(dict(_SMALL_AGENTS))
    res = run_experiment(cfg)
    assert len(res) == cfg.trials
    hidden = cfg.n_links - cfg.M
    for r in res:
        assert r.teacher.shape == (hidden, cfg.test)
        assert r.predicted.shape == (hidden, cfg.test)
        assert np.isfinite(r.score)


def test_agents_monitor_all_roads_returns_no_trials():
    cfg = config_from_dict(dict(_SMALL_AGENTS, M=8))
    assert run_experiment(cfg) == []


def test_agents_too_many_roads_rejected():
    cfg = config_from_dict(dict(_SMALL_AGENTS, M=9))
    with pytest.raises(ConfigError, match="'M'"):
        run_experiment(cfg)


def test_agents_monitor_none():
    cfg = config_from_dict(dict(_SMALL_AGENTS, M=0, trials=1))
    res = run_experiment(cfg)
    assert res[0].teacher.shape[0] == cfg.n_links


def test_task_runners_validate_the_config_they_run():
    # density defaults (1-long links) under the agents model cannot space
    # 10 agents per link d_min apart
    cfg = config_from_dict({"n": 2, "M": 4, "T": 2, "washout": 15,
                            "train": 80, "test": 40, "trials": 1})
    with pytest.raises(ConfigError, match="agents_per_link"):
        run_experiment(dataclasses.replace(cfg, model="agents"))
    agents = config_from_dict(dict(_SMALL_AGENTS, trials=1))
    res = run_experiment(dataclasses.replace(agents, model="density"))
    assert len(res) == 1 and np.isfinite(res[0].score)


def test_series_task_runs_on_synth_default():
    cfg = config_from_dict(dict(_SMALL_SERIES))
    res = run_experiment(cfg)
    assert len(res) == cfg.trials
    for r in res:
        assert np.isfinite(r.score)
        assert r.teacher.shape == (cfg.test,)


def test_series_task_rejects_agents_model():
    cfg = config_from_dict(dict(_SMALL_SERIES, model="agents"))
    with pytest.raises(ConfigError, match="'model'"):
        run_experiment(cfg)


def test_series_too_short_rejected():
    cfg = config_from_dict(dict(_SMALL_SERIES, series_synth={"length": 50}))
    with pytest.raises(ConfigError, match="'series_synth'.*needs"):
        run_experiment(cfg)


def test_series_constant_rejected():
    cfg = config_from_dict(dict(_SMALL_SERIES, series_synth={
        "amplitude": 0.0, "sigma": 0.0}))
    with pytest.raises(ConfigError, match="'series_synth'.*constant"):
        run_experiment(cfg)


def test_series_zero_horizon_runs():
    cfg = config_from_dict(dict(_SMALL_SERIES, T=0, trials=1))
    res = run_experiment(cfg)
    assert np.isfinite(res[0].score)


def test_series_feature_flag_changes_prediction():
    plain = run_experiment(config_from_dict(dict(_SMALL_SERIES, trials=1)))
    with_u = run_experiment(config_from_dict(dict(_SMALL_SERIES, trials=1,
                                                  task2_feature="a")))
    assert not np.array_equal(plain[0].predicted, with_u[0].predicted)


# --- trial averaging and summary ----------------------------------------------

def test_average_prediction_scores_the_mean():
    res = run_experiment(config_from_dict(dict(_SMALL_SERIES)))
    score, mean_pred = average_prediction(res, 2)
    expect = np.mean([res[0].predicted, res[1].predicted], axis=0)
    assert np.array_equal(mean_pred, expect)
    assert score == log_nrmse(res[0].teacher, expect)


def test_average_prediction_rejects_mismatched_teachers():
    res = run_experiment(config_from_dict(dict(_SMALL_DENSITY, trials=2)))
    # density teachers are trial-specific (different initial mass layouts)
    with pytest.raises(ValueError, match="teacher"):
        average_prediction(res)


def test_summarize_hand_stats():
    res = run_experiment(config_from_dict(dict(_SMALL_SERIES)))
    stats = summarize(res)
    scores = np.array([r.score for r in res])
    assert stats["mean"] == pytest.approx(scores.mean())
    assert stats["stderr"] == pytest.approx(scores.std(ddof=1) / np.sqrt(3))
    assert stats["trials"] == 3
    assert summarize(res[:1])["stderr"] == 0.0


# --- parameter sweeps ----------------------------------------------------------

def test_sweep_pairs_with_direct_run():
    cfg = config_from_dict(dict(_SMALL_DENSITY))
    swept = sweep(cfg, "p", [0.5, 1.0])
    direct = run_experiment(dataclasses.replace(cfg, p=0.5))
    for a, b in zip(swept.by_value[0.5], direct):
        assert a.score == b.score
        assert np.array_equal(a.predicted, b.predicted)
    assert [row["value"] for row in swept.rows] == [0.5, 1.0]


def test_sweep_coerces_integer_params():
    cfg = config_from_dict(dict(_SMALL_AGENTS, trials=1))
    swept = sweep(cfg, "M", ["3", "8"])
    assert set(swept.by_value) == {3, 8}
    # M=8 monitors every road: no trials, and no summary row
    assert swept.by_value[8] == []
    assert [row["value"] for row in swept.rows] == [3]


def test_sweep_rejects_unknown_param():
    cfg = config_from_dict(dict(_SMALL_DENSITY))
    with pytest.raises(ConfigError, match="sweep parameter"):
        sweep(cfg, "n", [3, 4])


def test_sweep_validates_each_value():
    cfg = config_from_dict(dict(_SMALL_DENSITY))
    with pytest.raises(ConfigError):
        sweep(cfg, "p", [0.5, 1.5])


@pytest.mark.parametrize("n", [0, 2.5])
def test_sweep_names_a_bad_base_key_before_building(sim_runs, n):
    cfg = dataclasses.replace(config_from_dict(dict(_SMALL_DENSITY)), n=n)
    with pytest.raises(ConfigError, match="'n'"):
        sweep(cfg, "p", [0.5])
    assert sim_runs == []


def test_sweep_rejects_non_integral_counts():
    cfg = config_from_dict(dict(_SMALL_AGENTS, trials=1))
    with pytest.raises(ConfigError, match="'T'"):
        sweep(cfg, "T", [2.7])
    with pytest.raises(ConfigError, match="'M'"):
        sweep(cfg, "M", ["3", 4.5])
    swept = sweep(cfg, "M", [8.0, 4.0])
    assert list(swept.by_value) == [8, 4]
    assert all(type(v) is int for v in swept.by_value)


# --- trajectory reuse in sweeps ---------------------------------------------------

def _assert_same_trials(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.trial, a.seed, a.lag, a.t0) == (b.trial, b.seed, b.lag, b.t0)
        assert np.float64(a.score).tobytes() == np.float64(b.score).tobytes()
        assert a.teacher.shape == b.teacher.shape
        assert a.teacher.tobytes() == b.teacher.tobytes()
        assert a.predicted.shape == b.predicted.shape
        assert a.predicted.tobytes() == b.predicted.tobytes()


@pytest.mark.parametrize("kind,param,values", [
    ("density", "p", [0.3, 1.0, 0.6]),
    ("density", "tau", [40.0, 100.0]),
    ("density", "beta", [1e-8, 1e-2]),
    ("density", "T", [4, 1, 2]),
    ("agents", "p", [0.5, 1.0]),
    ("agents", "M", [2, 8, 5]),
    ("agents", "beta", [1e-8, 1e-3]),
    ("agents", "T", [1, 3]),
    ("series", "p", [0.4, 1.0]),
    ("series", "T", [1, 3]),
])
def test_sweep_matches_run_experiment_bitwise(kind, param, values):
    cfg = config_from_dict(dict(_SMALL[kind]))
    swept = sweep(cfg, param, values)
    assert list(swept.by_value) == values
    for v in values:
        want = run_experiment(dataclasses.replace(cfg, **{param: v}))
        _assert_same_trials(swept.by_value[v], want)


@pytest.fixture
def sim_runs(monkeypatch):
    """Steps requested from every DensitySim.run and AgentSim.run call."""
    calls = []
    for cls in (DensitySim, AgentSim):
        def run(self, steps, inputs=None, _run=cls.run, **kwargs):
            calls.append(steps)
            return _run(self, steps, inputs, **kwargs)
        monkeypatch.setattr(cls, "run", run)
    return calls


@pytest.mark.parametrize("kind,param,values", [
    ("density", "p", [0.2, 0.5, 1.0]),
    ("density", "beta", [1e-8, 1e-4, 1.0]),
    ("agents", "M", [2, 5, 8]),
    ("agents", "p", [0.5, 1.0]),
    ("agents", "beta", [1e-8, 1e-2]),
    ("series", "p", [0.5, 1.0]),
])
def test_readout_sweeps_simulate_each_trial_once(sim_runs, kind, param, values):
    cfg = config_from_dict(dict(_SMALL[kind]))
    sweep(cfg, param, values)
    assert sim_runs == [cfg.washout + cfg.T + cfg.train + cfg.test] * _RUNS[kind]


@pytest.mark.parametrize("kind", ["density", "agents"])
def test_task1_horizon_sweep_simulates_the_longest_span_once(sim_runs, kind):
    cfg = config_from_dict(dict(_SMALL[kind]))
    sweep(cfg, "T", [1, 6, 3])
    assert sim_runs == [cfg.washout + 6 + cfg.train + cfg.test] * _RUNS[kind]


def test_task2_horizon_sweep_simulates_each_value(sim_runs):
    cfg = config_from_dict(dict(_SMALL_SERIES))
    sweep(cfg, "T", [1, 4])
    span = cfg.washout + cfg.train + cfg.test
    assert sim_runs == [span + 1, span + 4] * _RUNS["series"]


def test_agents_batches_match_solo_trials_with_a_partial_last_batch(
        sim_runs, monkeypatch):
    # a budget of six trials' bytes: batches of 6 and 1
    cfg = config_from_dict(dict(_SMALL_AGENTS, trials=7))
    span = cfg.washout + cfg.T + cfg.train + cfg.test
    monkeypatch.setattr(tasks, "_BATCH_BYTES",
                        6 * tasks._trial_bytes(cfg, span, None))
    batched = run_experiment(cfg)
    swept = sweep(cfg, "M", [3, 5])
    assert sim_runs == [span] * 4
    monkeypatch.setattr(tasks, "_BATCH_BYTES", 1)   # every trial on its own
    del sim_runs[:]
    solo = run_experiment(cfg)
    assert sim_runs == [span] * 7
    assert [r.trial for r in batched] == list(range(7))
    _assert_same_trials(batched, solo)
    _assert_same_trials(swept.by_value[3], solo)
    _assert_same_trials(swept.by_value[5], run_experiment(
        dataclasses.replace(cfg, M=5)))


_CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _batch_sizes(cfg):
    net = build_lattice(cfg.n, cfg.link_length)
    _, links, _ = tasks._plan(cfg, net)
    return [len(b) for b in tasks._batches(cfg, tasks._span(cfg)[0], links)]


def test_batches_keep_the_recipes_unions_within_the_byte_budget():
    c3 = load_config(_CONFIGS / "density_link_p_sweep.json")
    assert _batch_sizes(c3) == [11, 9]
    c5 = load_config(_CONFIGS / "agents_road_subset.json")
    assert _batch_sizes(c5) == [10]
    c6 = load_config(_CONFIGS / "external_series_horizon.json")
    assert _batch_sizes(c6) == [3] * 6 + [2]
    # the longest span of c6's T sweep (T = 20) keeps its unions of 3
    assert _batch_sizes(dataclasses.replace(c6, T=20)) == [3] * 6 + [2]
    assert _batch_sizes(dataclasses.replace(c3, n=40, trials=3)) == [1] * 3
    # a batch is made only when it is due: no list of every batch
    batches = tasks._batches(dataclasses.replace(c3, trials=10 ** 20), 6105, [0])
    assert next(batches) == range(11)


class _Stop(Exception):
    pass


def _stop(self, go):
    raise _Stop


def test_the_agents_recipes_m_sweep_simulates_once(sim_runs, monkeypatch):
    # the first run holds every trial at the sweep's span, so it is the only
    # one; it stops at its first step (the whole sweep takes about 15 s)
    unions = []
    union = tasks._union

    def spy(cfg, net, trials, driven=False):
        unions.append(list(trials))
        return union(cfg, net, trials, driven)

    monkeypatch.setattr(tasks, "_union", spy)
    monkeypatch.setattr(AgentSim, "step", _stop)
    c5 = load_config(_CONFIGS / "agents_road_subset.json")
    with pytest.raises(_Stop):
        sweep(c5, "M", [8, 14, 20])
    assert sim_runs == [tasks._span(c5)[0]]
    assert unions == [list(range(c5.trials))]


@pytest.mark.parametrize("kind,param,values,key", [
    ("agents", "M", [3, 9], "'M'"),
    ("density", "p", [0.5, 1.5], "'p'"),
    ("density", "T", [2, 2.5], "'T'"),
    # a repeated value would show its summary row twice in summary.csv
    ("density", "p", ["0.5", "0.5", "1"], "'p': sweep value 0.5 is given twice"),
    ("density", "T", ["3", "3.0"], "'T': sweep value 3 is given twice"),
])
def test_sweep_rejects_bad_values_before_simulating(sim_runs, kind, param, values,
                                                    key):
    cfg = config_from_dict(dict(_SMALL[kind]))
    with pytest.raises(ConfigError, match=key):
        sweep(cfg, param, values)
    assert sim_runs == []


@pytest.mark.parametrize("patch", [
    dict(_SMALL_DENSITY, target_link=[0, 8]),
    dict(_SMALL_DENSITY, target_link=[0, 4]),
])
def test_bad_target_link_is_refused_before_simulating(sim_runs, patch):
    # junctions 0 and 8 (or 4) of the 3x3 grid are not neighbours
    cfg = config_from_dict(patch)
    with pytest.raises(ConfigError, match="'target_link'"):
        run_experiment(cfg)
    with pytest.raises(ConfigError, match="'target_link'"):
        sweep(cfg, "p", [0.5, 1.0])
    assert sim_runs == []


@pytest.mark.parametrize("kind", ["density", "agents", "series"])
def test_prediction_on_a_single_junction_is_refused(sim_runs, kind):
    cfg = config_from_dict(dict(_SMALL[kind], n=1, M=0))
    with pytest.raises(ConfigError, match="'n'"):
        run_experiment(cfg)
    assert sim_runs == []


def test_agents_without_agents_are_refused_before_simulating(
        sim_runs, tmp_path, capsys):
    # with no agent every road stays empty, so the teacher would be constant
    data = {"model": "agents", "n": 2, "agents_per_link": 0, "M": 3, "T": 2,
            "washout": 15, "train": 80, "test": 40, "trials": 2}
    with pytest.raises(ConfigError, match="'agents_per_link'"):
        sweep(config_from_dict(data), "M", [3, 5])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["task1-agents", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"].startswith("config key 'agents_per_link'")
    assert sim_runs == []
    # a simulation of empty roads stays allowed
    net, traj = run_simulation(config_from_dict(dict(data, steps=5)))
    assert sim_runs == [5] and not traj.k.any()


@pytest.mark.parametrize("kind", ["density", "agents", "series"])
def test_lean_trajectories_read_out_as_full_ones(kind):
    cfg = config_from_dict(dict(_SMALL[kind]))
    net = build_lattice(cfg.n, cfg.link_length)
    inputs, links, readout = tasks._plan(cfg, net)
    expect = {"density": 1, "agents": None, "series": 0}[kind]
    assert (links if links is None else len(links)) == expect
    steps = tasks._span(cfg)[0]
    trials = range(cfg.trials)
    lean = tasks._simulate(cfg, net, trials, steps, inputs, links)
    full = tasks._simulate(cfg, net, trials, steps, inputs)
    for trial, lt, ft in zip(trials, lean, full):
        assert lt.u.tobytes() == ft.u.tobytes()
        assert lt.theta.tobytes() == ft.theta.tobytes()
        _assert_same_trials([readout(trial, net, lt, lt.observables())],
                            [readout(trial, net, ft, ft.observables())])


def _spy_readout(monkeypatch):
    """Every readout's mask and the x1 and x2 it assembles, in call order."""
    masks, seen = [], []

    def pick(*args, **kwargs):
        masks.append(select_reservoir_fraction(*args, **kwargs))
        return masks[-1]

    def assemble(x1, x2, cols=None, **kwargs):
        seen.append((masks[-1], x1[:, cols], x2[:, cols]))
        return assemble_matrix(x1, x2, cols=cols, **kwargs)

    monkeypatch.setattr(tasks, "select_reservoir_fraction", pick)
    monkeypatch.setattr(tasks, "assemble_matrix", assemble)
    return seen


def test_readout_features_derive_the_observables_of_their_mask(monkeypatch):
    # features gathered from the trial's shared X1/X2 equal those derived at
    # just their rows and mask junctions, for every readout of a sweep
    seen = _spy_readout(monkeypatch)
    for kind in _SMALL:
        cfg = config_from_dict(dict(_SMALL[kind]))
        net = build_lattice(cfg.n, cfg.link_length)
        inputs, links, _ = tasks._plan(cfg, net)
        steps, first = tasks._span(cfg)
        trajs = tasks._simulate(cfg, net, range(cfg.trials), steps, inputs, links)
        del seen[:]
        sweep(cfg, "p", [0.4, 1.0])
        assert len(seen) == 2 * cfg.trials
        for i, (mask, x1, x2) in enumerate(seen):
            x1_ref, x2_ref = reservoir_observables(
                trajs[i // 2].u[first:steps], trajs[i // 2].theta[first:steps])
            assert x1.tobytes() == x1_ref[:, mask].tobytes(), (kind, i)
            assert x2.tobytes() == x2_ref[:, mask].tobytes(), (kind, i)


@pytest.mark.parametrize("kind", ["density", "agents", "series"])
def test_only_the_density_readout_excludes_junctions(monkeypatch, kind):
    # at p=1 the density readout keeps the target road's two end junctions
    # out of its mask; the other readouts use every junction
    seen = _spy_readout(monkeypatch)
    cfg = config_from_dict(dict(_SMALL[kind], p=1.0))
    run_experiment(cfg)
    nj = cfg.n * cfg.n
    want = nj - 2 if kind == "density" else nj
    assert [x1.shape[1] for _, x1, _ in seen] == [want] * cfg.trials
    if kind == "density":
        net = build_lattice(cfg.n, cfg.link_length)
        target = tasks.default_target_link(net)
        ends = {int(net.link_from[target]), int(net.link_to[target])}
        assert all(ends.isdisjoint(mask.tolist()) for mask, _, _ in seen)


# --- one-shot simulation -------------------------------------------------------

def test_run_simulation_spans_experiment_by_default():
    cfg = config_from_dict(dict(_SMALL_DENSITY))
    net, traj = run_simulation(cfg)
    want = cfg.washout + cfg.T + cfg.train + cfg.test
    assert traj.k.shape == (want, net.n_links)


def test_run_simulation_steps_override():
    cfg = config_from_dict(dict(_SMALL_DENSITY, steps=37))
    _, traj = run_simulation(cfg)
    assert traj.k.shape[0] == 37
    _, traj = run_simulation(dataclasses.replace(cfg, steps=12))
    assert traj.k.shape[0] == 12


def test_run_simulation_validates_the_config_it_runs():
    cfg = config_from_dict(dict(_SMALL_DENSITY))
    with pytest.raises(ConfigError, match="'steps'"):
        run_simulation(dataclasses.replace(cfg, steps=0))
    with pytest.raises(ConfigError, match="'tau'"):
        run_simulation(dataclasses.replace(cfg, tau=-1.0, steps=5))


def test_run_simulation_agents_model():
    cfg = config_from_dict(dict(_SMALL_AGENTS, steps=25))
    net, traj = run_simulation(cfg)
    assert traj.k.shape == (25, net.n_links)
    assert traj.theta.shape == (25, net.n_junctions)
    assert traj.observables()[0].shape == (25, net.n_junctions)
