"""Density model: kernel equivalence, conservation, linearity, gating."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficrc import kernels
from trafficrc.density import DensitySim, init_density
from trafficrc.io import config_from_dict
from trafficrc.lattice import TurnTable, assign_turn_table, build_lattice
from trafficrc.signals import (MODE_CONSTANT_RATE, MODE_LITERAL, TWO_PI,
                               PhaseBank, link_go)
from trafficrc.tasks import run_simulation


def make_system(n, seed, link_length=1.0):
    rng = np.random.default_rng(seed)
    net = build_lattice(n, link_length)
    table = assign_turn_table(net, (0.2, 0.3, 0.5), rng)
    bank = PhaseBank(100.0, rng.uniform(0.0, TWO_PI, net.n_junctions))
    q0 = init_density(net, float(net.n_links), rng)
    return net, table, bank, q0


# --- initialization ----------------------------------------------------------

def test_init_uniform_is_exact():
    net = build_lattice(3)
    q = init_density(net, 48.0, how="uniform")
    assert np.all(q == 2.0)


def test_init_random_conserves_total():
    net = build_lattice(4)
    q = init_density(net, 96.0, np.random.default_rng(0))
    assert q.sum() == pytest.approx(96.0, abs=1e-12 * 96.0)
    assert np.all(q >= 0)


def test_init_errors():
    net = build_lattice(3)
    with pytest.raises(ValueError):
        init_density(net, 0.0)
    with pytest.raises(ValueError):
        init_density(net, 10.0, how="random")  # rng required
    with pytest.raises(ValueError):
        init_density(net, 10.0, how="banana")


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


def scatter_args(net, table):
    """The flattened turn table (src, to, wgt) that DensitySim builds."""
    valid = table.idx >= 0
    src = np.repeat(np.arange(net.n_links), table.cnt)
    return src, table.idx[valid], table.wgt[valid]


def step(q, go, net, table):
    rate = np.minimum(1.0 / net.length, 1.0)
    return kernels.density_step(q, rate, go, *scatter_args(net, table))


def first_inflows(q, net, table):
    """The junction inflows u that a run records before its first step."""
    bank = PhaseBank(100.0, np.zeros(net.n_junctions))
    return DensitySim(net, table, bank, q).run(1).u[0]


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
    sim = DensitySim(net, table, bank, q0)
    q_ref = q0.copy()
    for t in range(100):
        u_ref = np.bincount(net.link_to, weights=q_ref * inv_len,
                            minlength=net.n_junctions)
        o = np.where(link_go(ref_bank.theta, ref_bank.ns_stop_first, net),
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
    DensitySim(net, table, bank, q0).run(20)
    run_simulation(config_from_dict({"model": "density", "n": 3}), 20)


# --- conservation ------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5])
def test_closed_system_conserves_mass(n):
    net, table, bank, q0 = make_system(n, seed=n)
    sim = DensitySim(net, table, bank, q0)
    total0 = sim.q.sum()
    sim.run(10_000)
    assert abs(sim.q.sum() - total0) <= 1e-9 * total0
    assert np.all(sim.q >= 0)


def test_conservation_with_short_links():
    # rate saturates at min(Q/L, Q) = Q for L < 1; mass must still balance
    net, table, bank, q0 = make_system(3, seed=9, link_length=0.25)
    sim = DensitySim(net, table, bank, q0)
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
    sim = DensitySim(net, table, bank, q0)
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
    sim = DensitySim(net, table, bank, q0)
    assert not link_go(bank.theta, bank.ns_stop_first, net)[north]
    traj = sim.run(1)
    assert sim.q[north] == 1.3
    assert traj.u[0, 2] == pytest.approx(1.3)  # inflow sum ignores the gate


# --- linearity ---------------------------------------------------------------

def test_step_is_linear_in_the_content_vector():
    net, table, bank, q0 = make_system(3, seed=5)
    sim1 = DensitySim(net, table, bank.copy(), q0)
    sim2 = DensitySim(net, table, bank.copy(), 2.0 * q0)
    sim1.run(500)
    sim2.run(500)
    assert sim2.q == pytest.approx(2.0 * sim1.q, rel=1e-12)


def test_trajectory_matches_dense_operator_products():
    net, table, bank, q0 = make_system(3, seed=6)
    rate = np.minimum(1.0 / net.length, 1.0)
    tmat = table.matrix()
    ref_bank = bank.copy()
    sim = DensitySim(net, table, bank, q0)
    q_ref = q0.copy()
    for t in range(300):
        go = link_go(ref_bank.theta, ref_bank.ns_stop_first, net).astype(float)
        move = go * rate * q_ref
        q_ref = q_ref - move + tmat.T @ move
        ref_bank.step(t)
    sim.run(300)
    assert sim.q == pytest.approx(q_ref, rel=1e-11, abs=1e-13)


# --- sim API -----------------------------------------------------------------

def test_run_collects_pre_movement_snapshots():
    net, table, bank, q0 = make_system(3, seed=7)
    sim = DensitySim(net, table, bank, q0)
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
        DensitySim(net, table, bank, q0[:-1])
    bad = q0.copy()
    bad[0] = -0.5
    with pytest.raises(ValueError):
        DensitySim(net, table, bank, bad)
    small_bank = PhaseBank(100.0, np.zeros(3))
    with pytest.raises(ValueError):
        DensitySim(net, table, small_bank, q0)


def test_split_runs_equal_one_run():
    # run(a) then run(b) resumes the clock, the phases and the content
    net, table, bank, q0 = make_system(4, seed=11)
    inputs = np.random.default_rng(3).normal(size=90)
    bank.win = np.random.default_rng(4).uniform(-0.5, 0.5, net.n_junctions)
    whole = DensitySim(net, table, bank.copy(), q0)
    parts = DensitySim(net, table, bank.copy(), q0)
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
    full = DensitySim(net, table, bank.copy(), q0).run(60)
    links = [5, 0, 17]
    lean = DensitySim(net, table, bank.copy(), q0).run(60, links=links)
    assert lean.k.shape == (60, 3)
    assert lean.u.tobytes() == full.u.tobytes()
    assert lean.theta.tobytes() == full.theta.tobytes()
    for l in links:
        assert lean.density(l).tobytes() == full.density(l).tobytes()
    with pytest.raises(ValueError, match="not stored"):
        lean.density(1)
    with pytest.raises(ValueError, match="every link"):
        lean.write_csv(tmp_path / "trajectory.csv", net)
    none = DensitySim(net, table, bank.copy(), q0).run(60, links=[])
    assert none.k.shape == (60, 0)


def test_observables_are_derived_with_the_per_step_association():
    net, table, bank, q0 = make_system(3, seed=13)
    traj = DensitySim(net, table, bank, q0).run(50)
    x1, x2 = traj.observables()
    c, s = np.cos(traj.theta), np.sin(traj.theta)
    assert x1.tobytes() == (traj.u * c * c).tobytes()
    assert x2.tobytes() == (traj.u * s * s).tobytes()
    rows, cols = slice(7, 31), np.array([8, 2, 5])
    m1, m2 = traj.observables(rows, cols)
    assert m1.tobytes() == np.ascontiguousarray(x1[rows][:, cols]).tobytes()
    assert m2.tobytes() == np.ascontiguousarray(x2[rows][:, cols]).tobytes()


def test_non_finite_input_is_refused_before_the_first_step(monkeypatch):
    net, table, bank, q0 = make_system(3, seed=14)
    bank.win = np.full(net.n_junctions, 0.1)
    sim = DensitySim(net, table, bank, q0)
    steps = []
    monkeypatch.setattr(DensitySim, "step",
                        lambda self, go: steps.append(go))
    with pytest.raises(ValueError, match="finite"):
        sim.run(40, np.r_[np.zeros(39), np.inf])
    assert steps == [] and sim.t == 0
    assert sim.q.tobytes() == q0.tobytes()


# --- disjoint unions of blocks vs solo runs ----------------------------------

def random_block(rng, n, mode, with_input):
    """Network (some links shorter than 1), turn table, phase bank
    (per-junction tau and stop convention, input weights if asked) and
    contents of one random block."""
    n_links = 4 * n * (n - 1)
    net = build_lattice(n, rng.uniform(0.2, 3.0, n_links))
    table = assign_turn_table(net, rng.dirichlet(np.ones(3)), rng)
    nj = net.n_junctions
    bank = PhaseBank(rng.uniform(5.0, 60.0, nj), rng.uniform(0.0, TWO_PI, nj),
                     mode=mode,
                     win=rng.uniform(-0.5, 0.5, nj) if with_input else None,
                     ns_stop_first=rng.uniform(size=nj) < 0.5)
    return net, table, bank, init_density(net, float(n_links), rng)


def block_sims(blocks):
    return [DensitySim(net, table, bank.copy(), q0)
            for net, table, bank, q0 in blocks]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), n=st.integers(2, 4),
       mode=st.sampled_from([MODE_CONSTANT_RATE, MODE_LITERAL]),
       with_input=st.booleans(), lean=st.booleans())
def test_density_union_blocks_match_their_solo_runs(seed, k, n, mode,
                                                    with_input, lean):
    rng = np.random.default_rng(seed)
    blocks = [random_block(rng, n, mode, with_input) for _ in range(k)]
    steps = 60
    inputs = rng.normal(size=steps) if with_input else None
    n_links = 4 * n * (n - 1)
    links = rng.choice(n_links, rng.integers(0, 4), replace=False) \
        if lean else None
    solo = block_sims(blocks)
    solo_trajs = [sim.run(steps, inputs, links) for sim in solo]
    union = DensitySim.union(block_sims(blocks))
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
        # block b holds links [b * n_links, (b + 1) * n_links) of the union
        mine = slice(b * n_links, (b + 1) * n_links)
        assert union.q[mine].tobytes() == sim.q.tobytes()
        junctions = slice(b * nj, (b + 1) * nj)
        assert union.bank.theta[junctions].tobytes() == sim.bank.theta.tobytes()


def test_density_union_split_runs_equal_one_run():
    # run(a) then run(b) resumes the clock, the phases and the content
    rng = np.random.default_rng(17)
    blocks = [random_block(rng, 3, MODE_LITERAL, True) for _ in range(3)]
    inputs = rng.normal(size=90)
    whole = DensitySim.union(block_sims(blocks))
    parts = DensitySim.union(block_sims(blocks))
    ref = whole.run(90, inputs, links=[4, 1])
    got = [parts.run(a, inputs, links=[4, 1]) for a in (37, 0, 53)]
    assert [g.t0 for g in got] == [0, 37, 37]
    for name in ("u", "theta", "k"):
        joined = np.concatenate([getattr(g, name) for g in got])
        assert joined.tobytes() == getattr(ref, name).tobytes(), name
    assert parts.q.tobytes() == whole.q.tobytes()
    assert parts.bank.theta.tobytes() == whole.bank.theta.tobytes()
    ahead = block_sims(blocks[:1])[0]
    ahead.run(1)
    with pytest.raises(ValueError, match="time"):
        DensitySim.union(block_sims(blocks[1:]) + [ahead])
