"""End-to-end acceptance gate.

One criterion per test, in order; each prints a single PASS/FAIL line with
the measured numbers (run with ``pytest tests/test_acceptance.py -s`` to see
the scoreboard as it goes). The experiment-scale criteria reuse the pinned
recipes from configs/, so this file doubles as the reproduction script for
the headline results.
"""

import dataclasses
import filecmp
import json
import os
import pathlib
import time

import numpy as np
import pytest
from scipy import stats

from trafficrc.agents import AgentSim, OVParams, init_agents
from trafficrc.cli import main
from trafficrc.density import DensitySim, init_density
from trafficrc.io import config_from_dict, load_config
from trafficrc.lattice import assign_turn_table, build_lattice
from trafficrc.readout import (FeatureDef, assemble_matrix, log_nrmse,
                               ridge_fit)
from trafficrc.signals import TWO_PI, PhaseBank, reservoir_observables
from trafficrc.tasks import (average_prediction, run_task1_agents,
                             run_task1_density, run_task2_external,
                             select_reservoir_fraction, sweep)

EVEN = (1.0 / 3, 1.0 / 3, 1.0 / 3)
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _verdict(label, ok, detail):
    print(f"\n{label}: {'PASS' if ok else 'FAIL'}  ({detail})", flush=True)
    return ok


def _raises(exc, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except exc:
        return True
    except Exception:
        return False
    return False


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    # pay any one-time JIT compilation outside the timed budgets below
    net = build_lattice(2)
    rng = np.random.default_rng(0)
    table = assign_turn_table(net, EVEN, rng)
    bank = PhaseBank(100.0, rng.uniform(0.0, TWO_PI, net.n_junctions))
    DensitySim(net, table, bank, init_density(net, 8.0, rng)).run(5)
    state = init_agents(net, table, rng, per_link=2)
    AgentSim(net, table, bank.copy(), state, OVParams(), rng).run(5)


def test_c1_density_mass_conservation():
    start = time.perf_counter()
    worst = 0.0
    for n, seed in ((3, 5), (5, 17)):
        net = build_lattice(n)
        rng = np.random.default_rng(seed)
        table = assign_turn_table(net, EVEN, rng)
        bank = PhaseBank(100.0, rng.uniform(0.0, TWO_PI, net.n_junctions))
        q0 = init_density(net, float(net.n_links), rng)
        traj = DensitySim(net, table, bank, q0).run(10_000)
        totals = traj.k @ net.length
        worst = max(worst, np.abs(totals - q0.sum()).max() / q0.sum())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    assert _verdict("C1 mass conservation", ok,
                    f"max rel drift {worst:.2e} over 1e4 steps, {elapsed:.2f} s")


def test_c2_ridge_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        d = int(rng.integers(1, 21))
        length = int(rng.integers(d + 5, 201))
        x = rng.normal(size=(d, length))
        y = rng.normal(size=(int(rng.integers(1, 4)), length))
        beta = (0.0, 1e-8, 1e-2)[i % 3]
        w = ridge_fit(x, y, beta).weights
        gram = x @ x.T + beta * np.eye(d)
        oracle = np.linalg.solve(gram, (y @ x.T).T).T
        worst = max(worst, np.abs(w - oracle).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    assert _verdict("C2 ridge oracle", ok,
                    f"max abs diff {worst:.2e} over 100 instances, {elapsed:.2f} s")


def test_c3_score_improves_with_reservoir_fraction():
    cfg = load_config(CONFIGS / "density_link_p_sweep.json")
    values = [round(0.1 * i, 1) for i in range(1, 11)]
    start = time.perf_counter()
    result = sweep(cfg, "p", values)
    elapsed = time.perf_counter() - start
    means = [row["mean"] for row in result.rows]
    rho = stats.spearmanr(values, means).statistic
    ok = rho <= -0.8 and means[-1] < means[0] and elapsed < 300.0
    assert _verdict(
        "C3 score vs reservoir fraction", ok,
        f"spearman {rho:+.3f}, mean(p=0.1) {means[0]:+.3f}, "
        f"mean(p=1.0) {means[-1]:+.3f}, {elapsed:.0f} s")


def test_c4_lag_diagnostic_flags_delayed_copies():
    base = load_config(CONFIGS / "density_link_p_sweep.json")
    tiny = run_task1_density(dataclasses.replace(base, p=0.05))
    half = run_task1_density(dataclasses.replace(base, p=0.5))
    t = base.T
    delayed = sum(r.lag is not None and abs(r.lag - t) <= 1 for r in tiny)
    genuine = sum(r.lag is not None and abs(r.lag) <= 1 for r in half)
    mean_half = float(np.mean([r.score for r in half]))
    ok = (delayed >= 0.7 * len(tiny) and genuine >= 0.7 * len(half)
          and mean_half < -0.3)
    assert _verdict(
        "C4 delayed-copy lag diagnostic", ok,
        f"p=0.05 lag~T on {delayed}/{len(tiny)}, p=0.5 lag~0 on "
        f"{genuine}/{len(half)}, mean(p=0.5) {mean_half:+.3f}")


def test_c5_score_improves_with_observed_roads():
    cfg = load_config(CONFIGS / "agents_road_subset.json")
    start = time.perf_counter()
    result = sweep(cfg, "M", [8, 14, 20])
    elapsed = time.perf_counter() - start
    means = [row["mean"] for row in result.rows]
    inversions = int(np.sum(np.diff(means) > 0))
    ok = inversions <= 1 and means[-1] < 0.0 and elapsed < 600.0
    assert _verdict(
        "C5 score vs observed road count", ok,
        f"means {['%+.3f' % m for m in means]} over M=8/14/20, "
        f"{inversions} inversions, {elapsed:.0f} s")


def test_c6_score_degrades_with_horizon():
    # Synthetic surrogate series (daily sinusoid + slow AR(1) noise) stands in
    # for real sensor data. The input gain stays small: the phases integrate
    # the injected series, and at the default gain the accumulated phase would
    # wrap many cycles per series period, leaving nothing a linear readout can
    # demodulate.
    cfg = load_config(CONFIGS / "external_series_horizon.json")
    start = time.perf_counter()
    result = sweep(cfg, "T", [1, 5, 10, 20])
    elapsed = time.perf_counter() - start
    means = [row["mean"] for row in result.rows]
    inversions = int(np.sum(np.diff(means) < 0))
    at_ten = result.by_value[10]
    avg_score, _ = average_prediction(at_ten, cfg.trial_average)
    median_single = float(np.median([r.score for r in at_ten]))
    ok = inversions <= 1 and avg_score < median_single
    assert _verdict(
        "C6 score vs forecast horizon", ok,
        f"means {['%+.3f' % m for m in means]} over T=1/5/10/20, "
        f"{inversions} inversions, avg5 {avg_score:+.3f} vs median "
        f"{median_single:+.3f} at T=10, {elapsed:.0f} s")


def test_c7_invariants(tmp_path):
    parts = []

    # observable identity X1 + X2 = u to a few ulp across magnitudes
    rng = np.random.default_rng(7)
    u = np.exp(rng.uniform(-30, 30, 1_000_000))
    theta = rng.uniform(-50.0, 50.0, u.size)
    x1, x2 = reservoir_observables(u, theta)
    ulps = np.abs((x1 + x2) - u) / np.spacing(u)
    parts.append(("x1+x2=u", float(ulps.max()) <= 4.0,
                  f"max {ulps.max():.2f} ulp"))

    # agents: spacing floor holds and no vehicle appears or vanishes
    net = build_lattice(3, link_length=20.0)
    table = assign_turn_table(net, EVEN, rng)
    bank = PhaseBank(100.0, rng.uniform(0.0, TWO_PI, net.n_junctions))
    params = OVParams()
    state = init_agents(net, table, rng, per_link=10, params=params)
    sim = AgentSim(net, table, bank, state, params, rng)
    n0 = sim.state.count
    sim.run(10_000)          # 10 substeps each: 1e5 integration substeps
    parts.append(("agents", sim.min_gap >= params.d_min - 1e-9
                  and sim.state.count == n0,
                  f"min gap {sim.min_gap:.4f}, count {sim.state.count}"))

    # every subcommand: same seed, byte-identical outputs
    cfg = dict(n=3, T=2, washout=10, train=60, test=30, trials=2,
               tau=16.0, seed=11)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    agents_path = tmp_path / "agents.json"
    agents_path.write_text(json.dumps(dict(cfg, n=2, M=3, train=40, test=20)))
    runs = [
        ("simulate", ["--config", str(cfg_path), "--steps", "25"]),
        ("task1-density", ["--config", str(cfg_path)]),
        ("task1-agents", ["--config", str(agents_path)]),
        ("task2", ["--config", str(cfg_path)]),
        ("sweep", ["--config", str(cfg_path), "--param", "p",
                   "--values", "0.5,1.0"]),
        ("synth", ["--config", str(cfg_path)]),
    ]
    stable = []
    for sub, extra in runs:
        one, two = tmp_path / f"{sub}-1", tmp_path / f"{sub}-2"
        assert main([sub, *extra, "--out", str(one)]) == 0
        assert main([sub, *extra, "--out", str(two)]) == 0
        names = sorted(os.listdir(one))
        same = names == sorted(os.listdir(two)) and all(
            filecmp.cmp(one / f, two / f, shallow=False) for f in names)
        stable.append(sub if same else f"{sub}<DIFF>")
    parts.append(("determinism", all("<" not in s for s in stable),
                  "+".join(stable)))

    ok = all(p[1] for p in parts)
    assert _verdict("C7 invariants", ok,
                    "; ".join(f"{n} {d}" for n, _, d in parts))


def test_c8_degenerate_inputs():
    parts = []
    tiny = config_from_dict({"n": 3, "T": 2, "washout": 10, "train": 60,
                             "test": 30, "trials": 2, "tau": 16.0, "seed": 11})

    # p=0: empty unit mask, run still completes on bias+input features
    mask = select_reservoir_fraction(0.0, 9, np.random.default_rng(0))
    zero_p = run_task1_density(dataclasses.replace(tiny, p=0.0))
    parts.append(("p=0", mask.size == 0
                  and all(np.isfinite(r.score) for r in zero_p)))

    # M=0: lagged-density features with an empty road set reduce to plain ones
    rng = np.random.default_rng(1)
    x1, x2 = rng.random((2, 40, 9))
    u, k = rng.random(40), rng.random((40, 24))
    ids = np.arange(9)
    plain = assemble_matrix(FeatureDef("a", ids, horizon=2), x1, x2, u=u)
    empty = assemble_matrix(
        FeatureDef("a_prime", ids, roads=np.empty(0, np.int64), horizon=2),
        x1, x2, u=u, k_hist=k)
    no_roads = run_task1_agents(
        dataclasses.replace(tiny, model="agents", n=2, M=8,
                            train=40, test=20, link_length=20.0))
    parts.append(("M=0", np.array_equal(plain, empty) and no_roads == []))

    # T=0: the target is its own input feature, so the fit is exact and the
    # score pins to the clamp floor (ridge bias hides the floor unless the
    # penalty is well below the feature scale, hence the tiny beta here)
    copies = run_task1_density(dataclasses.replace(tiny, T=0, beta=1e-12))
    parts.append(("T=0", all(r.score <= -11.999 for r in copies)))

    # huge ridge: weights collapse to the explicit shrinkage limit and the
    # whole-task score degrades to no better than the mean predictor
    x = rng.normal(size=(12, 100))
    y = rng.normal(size=(1, 100))
    w = ridge_fit(x, y, 1e12).weights
    w_limit = y @ x.T / 1e12
    shrunk = np.linalg.norm(w - w_limit) <= 1e-6 * np.linalg.norm(w_limit)
    blunt = run_task1_density(dataclasses.replace(tiny, beta=1e12, trials=1))
    parts.append(("beta=1e12", shrunk and blunt[0].score > -0.05))

    # constant teacher: score is undefined and must be refused loudly
    parts.append(("constant teacher",
                  _raises(ValueError, log_nrmse, np.ones(50), np.zeros(50))
                  and _raises(ValueError, run_task2_external, tiny,
                              np.full(300, 7.0))))

    ok = all(flag for _, flag in parts)
    assert _verdict("C8 degenerate inputs", ok,
                    ", ".join(f"{n} {'ok' if f else 'BAD'}" for n, f in parts))
