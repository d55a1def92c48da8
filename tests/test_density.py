"""Density model: kernel equivalence, conservation, linearity, gating."""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficrc import density, kernels
from trafficrc.agents import AgentSim, OVParams, init_agents
from trafficrc.density import DensitySim, Trajectory, init_density
from trafficrc.io import config_from_dict
from trafficrc.lattice import TurnTable, assign_turn_table, build_lattice
from trafficrc.signals import TWO_PI, PhaseBank, link_go
from trafficrc.tasks import _simulate, run_simulation


def make_system(n, seed, link_length=1.0):
    rng = np.random.default_rng(seed)
    net = build_lattice(n, link_length)
    table = assign_turn_table(net, (0.2, 0.3, 0.5), rng)
    bank = PhaseBank(100.0, rng.uniform(0.0, TWO_PI, net.n_junctions))
    q0 = init_density(net, float(net.n_links), rng)
    return net, table, bank, q0


# --- initialization ----------------------------------------------------------

def test_init_random_conserves_total():
    net = build_lattice(4)
    q = init_density(net, 96.0, np.random.default_rng(0))
    assert q.sum() == pytest.approx(96.0, abs=1e-12 * 96.0)
    assert np.all(q >= 0)


def test_init_errors():
    net = build_lattice(3)
    with pytest.raises(ValueError, match="positive"):
        init_density(net, 0.0, np.random.default_rng(0))


# --- kernel equivalence ------------------------------------------------------

def density_oracle(q, inv_len, go, table, net):
    """Literal per-link transcription of one movement step."""
    rate = np.minimum(inv_len, 1.0)
    q_new = q.copy()
    u = np.zeros(net.n_junctions)
    for l in range(net.n_links):
        u[net.link_to[l]] += q[l] * inv_len[l]
        if not go[l]:
            continue
        o = q[l] * rate[l]
        q_new[l] -= o
        ids, w = table.row(l)
        for o_link, frac in zip(ids, w):
            q_new[o_link] += o * frac
    return q_new, u


def step(q, go, net, table):
    rate = np.minimum(1.0 / net.length, 1.0)
    return kernels.density_step(q, rate, go, table.src, table.to, table.wgt)


def first_inflows(q, net, table):
    """The junction inflows u that a run records before its first step."""
    bank = PhaseBank(100.0, np.zeros(net.n_junctions))
    return DensitySim(net, [table], [bank], [q]).run(1).u[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("link_length", [1.0, 2.5, 0.5])
def test_kernel_paths_match_oracle(seed, link_length):
    rng = np.random.default_rng(seed)
    net = build_lattice(4, link_length)
    table = assign_turn_table(net, (0.2, 0.3, 0.5), rng)
    q = rng.uniform(0.0, 3.0, net.n_links)
    go = rng.uniform(size=net.n_links) < 0.5

    q_ref, u_ref = density_oracle(q, 1.0 / net.length, go, table, net)
    assert step(q, go, net, table) == pytest.approx(q_ref, rel=1e-12, abs=1e-14)
    assert first_inflows(q, net, table) == pytest.approx(u_ref, rel=1e-12,
                                                         abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_scatter_step_matches_oracle_on_random_lattices(n, seed, data):
    rng = np.random.default_rng(seed)
    n_links = 4 * n * (n - 1)
    lengths = data.draw(st.lists(st.floats(0.05, 5.0), min_size=n_links,
                                 max_size=n_links))
    go = np.array(data.draw(st.lists(st.booleans(), min_size=n_links,
                                     max_size=n_links)))
    net = build_lattice(n, lengths)
    table = assign_turn_table(net, rng.dirichlet(np.ones(3)), rng)
    q = rng.uniform(0.0, 3.0, n_links)

    q_ref, u_ref = density_oracle(q, 1.0 / net.length, go, table, net)
    q_new = step(q, go, net, table)
    assert q_new == pytest.approx(q_ref, rel=1e-12, abs=1e-14)
    assert first_inflows(q, net, table) == pytest.approx(u_ref, rel=1e-12,
                                                         abs=1e-14)
    assert np.all(q_new >= 0)
    assert q_new.sum() == pytest.approx(q.sum(), rel=1e-12)


@pytest.mark.parametrize("n", [3, 5, 10, 20])
def test_scatter_step_is_bitwise_the_dense_product(n):
    # the replaced formula q - o + o @ M, stepped alongside the sim
    lengths = np.random.default_rng(n).uniform(0.3, 3.0, 4 * n * (n - 1))
    net, table, bank, q0 = make_system(n, seed=n, link_length=lengths)
    inv_len = 1.0 / net.length
    rate = np.minimum(inv_len, 1.0)
    tmat = table.matrix()
    ref_bank = bank.copy()
    sim = DensitySim(net, [table], [bank], [q0])
    q_ref = q0.copy()
    for t in range(100):
        u_ref = np.bincount(net.link_to, weights=q_ref * inv_len,
                            minlength=net.n_junctions)
        o = np.where(link_go(ref_bank.theta, net),
                     q_ref * rate, 0.0)
        q_ref = q_ref - o + o @ tmat
        ref_bank.step(t)
        traj = sim.run(1)
        assert np.array_equal(traj.u[0], u_ref)
        assert np.array_equal(sim.q, q_ref)


def test_density_sim_never_builds_the_dense_matrix(monkeypatch):
    def forbidden(self):
        raise AssertionError("TurnTable.matrix called")

    monkeypatch.setattr(TurnTable, "matrix", forbidden)
    net, table, bank, q0 = make_system(4, seed=3)
    DensitySim(net, [table], [bank], [q0]).run(20)
    run_simulation(config_from_dict({"model": "density", "n": 3, "steps": 20}))


# --- conservation ------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5])
def test_closed_system_conserves_mass(n):
    net, table, bank, q0 = make_system(n, seed=n)
    sim = DensitySim(net, [table], [bank], [q0])
    total0 = sim.q.sum()
    sim.run(10_000)
    assert abs(sim.q.sum() - total0) <= 1e-9 * total0
    assert np.all(sim.q >= 0)


def test_conservation_with_short_links():
    # rate saturates at min(Q/L, Q) = Q for L < 1; mass must still balance
    net, table, bank, q0 = make_system(3, seed=9, link_length=0.25)
    sim = DensitySim(net, [table], [bank], [q0])
    total0 = sim.q.sum()
    sim.run(2_000)
    assert abs(sim.q.sum() - total0) <= 1e-9 * total0


# --- hand-worked example -----------------------------------------------------

def test_single_loaded_link_discharges_by_turn_weights():
    net = build_lattice(2)
    table = assign_turn_table(net, (0.0, 0.0, 1.0), permute=False)
    # theta in the first half period: east-west goes under the default rule
    bank = PhaseBank(100.0, np.full(4, 0.5))
    q0 = np.zeros(net.n_links)
    east = net.link_index(0, 1)
    q0[east] = 0.6
    sim = DensitySim(net, [table], [bank], [q0])
    traj = sim.run(1)
    # the record is pre-movement: destination junction sees k = Q/L = 0.6
    assert traj.u[0, 1] == pytest.approx(0.6)
    assert traj.k[0, east] == pytest.approx(0.6)
    ids, w = table.row(east)
    expect = np.zeros(net.n_links)
    expect[ids] += 0.6 * w
    assert sim.q == pytest.approx(expect, abs=1e-15)


def test_gated_link_holds_its_content():
    net = build_lattice(2)
    rng = np.random.default_rng(4)
    table = assign_turn_table(net, (0.2, 0.3, 0.5), rng)
    bank = PhaseBank(100.0, np.full(4, 0.5))  # NS stopped everywhere
    north = net.link_index(0, 2)
    assert bool(net.link_axis_ns[north])
    q0 = np.zeros(net.n_links)
    q0[north] = 1.3
    sim = DensitySim(net, [table], [bank], [q0])
    assert not link_go(bank.theta, net)[north]
    traj = sim.run(1)
    assert sim.q[north] == 1.3
    assert traj.u[0, 2] == pytest.approx(1.3)  # inflow sum ignores the gate


# --- linearity ---------------------------------------------------------------

def test_step_is_linear_in_the_content_vector():
    net, table, bank, q0 = make_system(3, seed=5)
    sim1 = DensitySim(net, [table], [bank.copy()], [q0])
    sim2 = DensitySim(net, [table], [bank.copy()], [2.0 * q0])
    sim1.run(500)
    sim2.run(500)
    assert sim2.q == pytest.approx(2.0 * sim1.q, rel=1e-12)


def test_trajectory_matches_dense_operator_products():
    net, table, bank, q0 = make_system(3, seed=6)
    rate = np.minimum(1.0 / net.length, 1.0)
    tmat = table.matrix()
    ref_bank = bank.copy()
    sim = DensitySim(net, [table], [bank], [q0])
    q_ref = q0.copy()
    for t in range(300):
        go = link_go(ref_bank.theta, net).astype(float)
        move = go * rate * q_ref
        q_ref = q_ref - move + tmat.T @ move
        ref_bank.step(t)
    sim.run(300)
    assert sim.q == pytest.approx(q_ref, rel=1e-11, abs=1e-13)


# --- sim API -----------------------------------------------------------------

def test_run_collects_pre_movement_snapshots():
    net, table, bank, q0 = make_system(3, seed=7)
    sim = DensitySim(net, [table], [bank], [q0])
    traj = sim.run(40)
    assert traj.t0 == 0
    assert traj.steps == 40
    assert traj.k[0] == pytest.approx(q0 / net.length)
    x1, x2 = traj.observables(0)
    assert x1 + x2 == pytest.approx(traj.u[0], rel=1e-12)
    # second run continues the clock
    traj2 = sim.run(10)
    assert traj2.t0 == 40


def test_sim_validates_inputs():
    net, table, bank, q0 = make_system(2, seed=8)
    with pytest.raises(ValueError):
        DensitySim(net, [table], [bank], [q0[:-1]])
    bad = q0.copy()
    bad[0] = -0.5
    with pytest.raises(ValueError):
        DensitySim(net, [table], [bank], [bad])
    small_bank = PhaseBank(100.0, np.zeros(3))
    with pytest.raises(ValueError):
        DensitySim(net, [table], [small_bank], [q0])
    # every block is checked: three blocks, the third built for the 3x3 grid
    _, *wrong = make_system(3, seed=8)
    three = [table] * 3, [bank] * 3, [q0] * 3
    DensitySim(net, *three)
    for i, part in enumerate(wrong):    # turn table, phase bank, contents
        parts = [list(p) for p in three]
        parts[i][2] = part
        with pytest.raises(ValueError, match="size|per link"):
            DensitySim(net, *parts)
    with pytest.raises(ValueError, match="per link"):
        DensitySim(net, *three[:2], [q0] * 2)


def test_split_runs_equal_one_run():
    # run(a) then run(b) resumes the clock, the phases and the content
    net, table, bank, q0 = make_system(4, seed=11)
    inputs = np.random.default_rng(3).normal(size=90)
    bank.win = np.random.default_rng(4).uniform(-0.5, 0.5, net.n_junctions)
    whole = DensitySim(net, [table], [bank.copy()], [q0])
    parts = DensitySim(net, [table], [bank.copy()], [q0])
    ref = whole.run(90, inputs)
    got = [parts.run(a, inputs) for a in (0, 37, 1, 52)]
    assert [g.t0 for g in got] == [0, 0, 37, 38]
    for name in ("u", "theta", "k"):
        joined = np.concatenate([getattr(g, name) for g in got])
        assert joined.tobytes() == getattr(ref, name).tobytes(), name
    assert parts.q.tobytes() == whole.q.tobytes()
    assert parts.bank.theta.tobytes() == whole.bank.theta.tobytes()


def test_lean_run_stores_only_its_links(tmp_path):
    net, table, bank, q0 = make_system(3, seed=12)
    full = DensitySim(net, [table], [bank.copy()], [q0]).run(60)
    links = [5, 0, 17]
    lean = DensitySim(net, [table], [bank.copy()], [q0]).run(60, links=links)
    assert lean.k.shape == (60, 3)
    assert lean.u.tobytes() == full.u.tobytes()
    assert lean.theta.tobytes() == full.theta.tobytes()
    for l in links:
        assert lean.density(l).tobytes() == full.density(l).tobytes()
    with pytest.raises(ValueError, match="not stored"):
        lean.density(1)
    with pytest.raises(ValueError, match="every link"):
        lean.write_csv(tmp_path / "trajectory.csv", net)
    none = DensitySim(net, [table], [bank.copy()], [q0]).run(60, links=[])
    assert none.k.shape == (60, 0)


def test_observables_are_derived_with_the_per_step_association():
    net, table, bank, q0 = make_system(3, seed=13)
    traj = DensitySim(net, [table], [bank], [q0]).run(50)
    x1, x2 = traj.observables()
    c, s = np.cos(traj.theta), np.sin(traj.theta)
    assert x1.tobytes() == (traj.u * c * c).tobytes()
    assert x2.tobytes() == (traj.u * s * s).tobytes()
    for rows in (slice(7, 31), 12):
        m1, m2 = traj.observables(rows)
        assert m1.tobytes() == x1[rows].tobytes()
        assert m2.tobytes() == x2[rows].tobytes()


def test_non_finite_input_is_refused_before_the_first_step(monkeypatch):
    net, table, bank, q0 = make_system(3, seed=14)
    bank.win = np.full(net.n_junctions, 0.1)
    sim = DensitySim(net, [table], [bank], [q0])
    steps = []
    monkeypatch.setattr(DensitySim, "step",
                        lambda self, go: steps.append(go))
    with pytest.raises(ValueError, match="finite"):
        sim.run(40, np.r_[np.zeros(39), np.inf])
    assert steps == [] and sim.t == 0
    assert sim.q.tobytes() == q0.tobytes()


# --- blocks of one sim vs solo runs ------------------------------------------

def random_blocks(rng, n, k, with_input):
    """A lattice (some links shorter than 1) and, for each of k random
    blocks on it, a turn table, a phase bank (per-junction tau, input weights
    if asked) and contents."""
    n_links = 4 * n * (n - 1)
    net = build_lattice(n, rng.uniform(0.2, 3.0, n_links))
    nj = net.n_junctions
    blocks = []
    for _ in range(k):
        table = assign_turn_table(net, rng.dirichlet(np.ones(3)), rng)
        bank = PhaseBank(rng.uniform(5.0, 60.0, nj), rng.uniform(0.0, TWO_PI, nj),
                         win=rng.uniform(-0.5, 0.5, nj) if with_input else None)
        blocks.append((table, bank, init_density(net, float(n_links), rng)))
    return net, blocks


def block_sim(net, blocks):
    """One sim of the blocks, side by side; it copies their parts."""
    return DensitySim(net, *zip(*blocks))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), n=st.integers(2, 4),
       with_input=st.booleans(), lean=st.booleans())
def test_density_union_blocks_match_their_solo_runs(seed, k, n, with_input,
                                                    lean):
    rng = np.random.default_rng(seed)
    net, blocks = random_blocks(rng, n, k, with_input)
    steps = 60
    inputs = rng.normal(size=steps) if with_input else None
    n_links = net.n_links
    links = rng.choice(n_links, rng.integers(0, 4), replace=False) \
        if lean else None
    solo = [block_sim(net, [block]) for block in blocks]
    solo_trajs = [sim.run(steps, inputs, links) for sim in solo]
    union = block_sim(net, blocks)
    trajs = union.split(union.run(steps, inputs, links))
    assert union.blocks == len(trajs) == k
    nj = n * n
    for b, (sim, ref, got) in enumerate(zip(solo, solo_trajs, trajs)):
        for name in ("u", "theta", "k"):
            g, want = getattr(got, name), getattr(ref, name)
            assert g.flags.c_contiguous and g.shape == want.shape, name
            assert g.tobytes() == want.tobytes(), name
        if lean:
            assert np.array_equal(got.links, ref.links)
        else:
            assert got.links is None
        # block b holds links [b * n_links, (b + 1) * n_links) of the sim
        mine = slice(b * n_links, (b + 1) * n_links)
        assert union.q[mine].tobytes() == sim.q.tobytes()
        junctions = slice(b * nj, (b + 1) * nj)
        assert union.bank.theta[junctions].tobytes() == sim.bank.theta.tobytes()


def test_density_union_split_runs_equal_one_run():
    # run(a) then run(b) resumes the clock, the phases and the content
    rng = np.random.default_rng(17)
    net, blocks = random_blocks(rng, 3, 3, True)
    inputs = rng.normal(size=90)
    whole = block_sim(net, blocks)
    parts = block_sim(net, blocks)
    ref = whole.run(90, inputs, links=[4, 1])
    got = [parts.run(a, inputs, links=[4, 1]) for a in (37, 0, 53)]
    assert [g.t0 for g in got] == [0, 37, 37]
    for name in ("u", "theta", "k"):
        joined = np.concatenate([getattr(g, name) for g in got])
        assert joined.tobytes() == getattr(ref, name).tobytes(), name
    assert parts.q.tobytes() == whole.q.tobytes()
    assert parts.bank.theta.tobytes() == whole.bank.theta.tobytes()


# --- block-wise recording --------------------------------------------------------

def per_step_record(sim, steps, links=None):
    """run()'s record taken one step at a time, as run() took it before it
    recorded blocks of rows: a gather into k and a bincount into u after
    every step. Returns (u, theta, k)."""
    net = sim.net
    theta = sim.bank.schedule(sim.t, steps)
    go = link_go(theta, net)
    cols = slice(None) if links is None else (
        sim._link_off[:-1, None] + np.asarray(links, dtype=np.int64)).ravel()
    u = np.empty((steps, net.n_junctions))
    k = np.empty((steps, net.length[cols].size))
    for s in range(steps):
        dens = sim.step(go[s])
        k[s] = dens[cols]
        u[s] = np.bincount(net.link_to, weights=dens, minlength=net.n_junctions)
    return u, theta, k


def recorded_sims(model, rng, n, k):
    """Two equal sims of k random blocks of one n x n lattice."""
    params = OVParams(dt=0.25)
    net = build_lattice(n, rng.uniform(3.0, 20.0, 4 * n * (n - 1)))
    tables, banks, states, seeds = [], [], [], []
    for _ in range(k):
        tables.append(assign_turn_table(net, rng.dirichlet(np.ones(3)), rng))
        banks.append(PhaseBank(rng.uniform(5.0, 60.0, n * n),
                               rng.uniform(0.0, TWO_PI, n * n)))
        if model == "agents":
            states.append(init_agents(net, tables[-1], rng,
                                      per_link=int(rng.integers(0, 6)),
                                      params=params))
        else:
            states.append(init_density(net, float(net.n_links), rng))
        seeds.append(int(rng.integers(2**32)))

    def sim():
        if model == "agents":
            return AgentSim(net, tables, banks, states, params,
                            [np.random.default_rng(seed) for seed in seeds])
        return DensitySim(net, tables, banks, states)
    return sim(), sim()


# n = 1 (agents only) has no links; rows small enough that runs cross blocks
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(["density", "agents"]),
       k=st.integers(1, 3), n=st.integers(1, 3), rows=st.integers(1, 9),
       steps=st.lists(st.integers(0, 30), min_size=1, max_size=2),
       lean=st.booleans())
def test_run_records_as_the_per_step_loop(seed, model, k, n, rows, steps, lean):
    if model == "density":
        n = max(n, 2)
    rng = np.random.default_rng(seed)
    sim, ref = recorded_sims(model, rng, n, k)
    n_links = 4 * n * (n - 1)
    links = rng.choice(n_links, rng.integers(0, min(n_links, 4) + 1),
                       replace=False) if lean else None
    for a in steps:     # a second run resumes the first
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "_RECORD_BYTES", 8 * rows * sim.net.n_links)
            traj = sim.run(a, links=links)
        want = per_step_record(ref, a, links)
        for name, w in zip(("u", "theta", "k"), want):
            got = getattr(traj, name)
            assert got.shape == w.shape and got.tobytes() == w.tobytes(), name
    if model == "agents":
        for name in ("link", "x", "v", "next_link"):
            assert (getattr(sim.state, name).tobytes()
                    == getattr(ref.state, name).tobytes()), name
        assert sim.min_gaps.tobytes() == ref.min_gaps.tobytes()
    else:
        assert sim.q.tobytes() == ref.q.tobytes()


@pytest.mark.parametrize("model", ["density", "agents"])
@pytest.mark.parametrize("with_input", [False, True])
def test_derived_phases_are_each_blocks_schedule(model, with_input):
    # a trajectory stores no phases: theta and the observables are derived
    # from its block's bank at t0 and equal one schedule of that block's own
    # bank, though the run scheduled record blocks of 7 rows, so the input
    # cumsum is cut at every block boundary
    rng = np.random.default_rng(23)
    k, n = 3, 3
    sim, _ = recorded_sims(model, rng, n, k)
    nj = n * n
    blocks = [slice(b * nj, (b + 1) * nj) for b in range(k)]
    win = rng.uniform(-0.5, 0.5, k * nj) if with_input else None
    sim.bank.win = win
    refs = [PhaseBank(sim.bank.tau[js], sim.bank.xi[js],
                      win=None if win is None else win[js]) for js in blocks]
    inputs = rng.normal(size=70) if with_input else None
    runs = []
    for steps in (31, 39):     # the second run resumes the first
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "_RECORD_BYTES", 8 * 7 * sim.net.n_links)
            trajs = sim.split(sim.run(steps, inputs))
        runs.append([(traj, ref.schedule(traj.t0, steps, inputs))
                     for ref, traj in zip(refs, trajs)])
    # read after both runs: a trajectory keeps its own copy of the phases
    for run in runs:
        for traj, want in run:
            assert traj.theta.tobytes() == want.tobytes()
            c, s = np.cos(want), np.sin(want)
            x1, x2 = traj.observables()
            assert x1.tobytes() == (traj.u * c * c).tobytes()
            assert x2.tobytes() == (traj.u * s * s).tobytes()
    assert [traj.t0 for traj, _ in runs[1]] == [31] * k


def test_doubling_the_vehicles_doubles_the_record():
    # the p-sweep recipe: 80 links, so 3000 steps cross several record blocks
    cfg = config_from_dict({"n": 5, "T": 5, "tau": 100.0, "seed": 12345})
    net = build_lattice(cfg.n, cfg.link_length)
    assert 3000 > density._RECORD_BYTES // (8 * net.n_links)
    one, = _simulate(cfg, net, [0], 3000)
    two, = _simulate(replace(cfg, total_vehicles=2 * cfg.total_vehicles),
                     net, [0], 3000)
    assert two.theta.tobytes() == one.theta.tobytes()
    pairs = [(one.u, two.u), (one.k, two.k),
             *zip(one.observables(), two.observables())]
    for a, b in pairs:
        assert b.tobytes() == (2.0 * a).tobytes()


# --- trajectory.csv writer -----------------------------------------------------

def trajectory_csv_oracle(traj, net):
    """The one-loop writer's text: every float through repr(float(v))."""
    nj = net.n_junctions
    cols = (["t"] + [f"u_{j}" for j in range(nj)] + [f"x1_{j}" for j in range(nj)]
            + [f"x2_{j}" for j in range(nj)]
            + [f"k_{net.link_from[l]}_{net.link_to[l]}" for l in range(net.n_links)])
    lines = [",".join(cols)]
    for s in range(traj.steps):
        x1, x2 = traj.observables(s)
        row = [str(traj.t0 + s)]
        for a in (traj.u[s], x1, x2, traj.k[s]):
            row += [repr(float(v)) for v in a]
        lines.append(",".join(row))
    return "".join(line + "\n" for line in lines)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) makes the writer see k CPUs; returns the list of forks made."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        return forks
    return set_cpus


def assert_no_leftovers(tmp_path):
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".part"] == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# an agents lattice with n = 1 has no links, so its rows end after x2
@pytest.mark.parametrize("model,n", [("density", 3), ("agents", 3), ("agents", 1)])
@pytest.mark.parametrize("steps", [1, 2, 3, 8, 17])
def test_two_process_csv_equals_one_process_csv(tmp_path, cpus, model, n, steps):
    net, traj = run_simulation(config_from_dict(
        {"model": model, "n": n, "seed": 4, "steps": steps}))
    want = trajectory_csv_oracle(traj, net).encode()
    forks = cpus(1)
    traj.write_csv(tmp_path / "one.csv", net)
    assert forks == []
    cpus(2)
    traj.write_csv(tmp_path / "two.csv", net)
    assert len(forks) == 1
    assert (tmp_path / "one.csv").read_bytes() == want
    assert (tmp_path / "two.csv").read_bytes() == want
    assert_no_leftovers(tmp_path)


# "alone": one CPU, so this process formats every row and fails
@pytest.mark.parametrize("where", ["child", "parent", "alone"])
def test_a_failing_half_fails_the_write(tmp_path, cpus, monkeypatch, where):
    net, traj = run_simulation(config_from_dict({"n": 3, "seed": 4, "steps": 9}))
    forks = cpus(1 if where == "alone" else 2)
    write_rows = Trajectory._write_rows
    parent = os.getpid()

    def failing(self, fh, *rows):
        if (os.getpid() == parent) == (where != "child"):
            raise RuntimeError("formatter failed")
        write_rows(self, fh, *rows)

    monkeypatch.setattr(Trajectory, "_write_rows", failing)
    raises = OSError if where == "child" else RuntimeError
    with pytest.raises(raises, match="status 1" if where == "child" else "formatter"):
        traj.write_csv(tmp_path / "trajectory.csv", net)
    assert len(forks) == (0 if where == "alone" else 1)
    assert not (tmp_path / "trajectory.csv").exists()
    assert_no_leftovers(tmp_path)
