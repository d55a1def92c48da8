"""Density model: kernel equivalence, conservation, linearity, gating."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficrc import kernels
from trafficrc.density import DensitySim, init_density
from trafficrc.io import config_from_dict
from trafficrc.lattice import TurnTable, assign_turn_table, build_lattice
from trafficrc.signals import PhaseBank, link_go
from trafficrc.tasks import run_simulation


def make_system(n, seed, link_length=1.0):
    rng = np.random.default_rng(seed)
    net = build_lattice(n, link_length)
    table = assign_turn_table(net, (0.2, 0.3, 0.5), rng)
    bank = PhaseBank.random(net.n_junctions, rng)
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
    inv_len = 1.0 / net.length
    return kernels.density_step(q, inv_len, np.minimum(inv_len, 1.0), go,
                                net.link_to, net.n_junctions,
                                *scatter_args(net, table))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("link_length", [1.0, 2.5, 0.5])
def test_kernel_paths_match_oracle(seed, link_length):
    rng = np.random.default_rng(seed)
    net = build_lattice(4, link_length)
    table = assign_turn_table(net, (0.2, 0.3, 0.5), rng)
    q = rng.uniform(0.0, 3.0, net.n_links)
    go = rng.uniform(size=net.n_links) < 0.5

    q_ref, u_ref = density_oracle(q, 1.0 / net.length, go, table, net)
    q_new, u_new = step(q, go, net, table)
    assert q_new == pytest.approx(q_ref, rel=1e-12, abs=1e-14)
    assert u_new == pytest.approx(u_ref, rel=1e-12, abs=1e-14)


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
    q_new, u_new = step(q, go, net, table)
    assert q_new == pytest.approx(q_ref, rel=1e-12, abs=1e-14)
    assert u_new == pytest.approx(u_ref, rel=1e-12, abs=1e-14)
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
        o = np.where(link_go(ref_bank, net), q_ref * rate, 0.0)
        q_ref = q_ref - o + o @ tmat
        ref_bank.step(t)
        snap = sim.step()
        assert np.array_equal(snap.u, u_ref)
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
    total0 = sim.total
    sim.run(10_000)
    assert abs(sim.total - total0) <= 1e-9 * total0
    assert np.all(sim.q >= 0)


def test_conservation_with_short_links():
    # rate saturates at min(Q/L, Q) = Q for L < 1; mass must still balance
    net, table, bank, q0 = make_system(3, seed=9, link_length=0.25)
    sim = DensitySim(net, table, bank, q0)
    total0 = sim.total
    sim.run(2_000)
    assert abs(sim.total - total0) <= 1e-9 * total0


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
    snap = sim.step()
    # snapshot is pre-movement: destination junction sees k = Q/L = 0.6
    assert snap.u[1] == pytest.approx(0.6)
    assert snap.k[east] == pytest.approx(0.6)
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
    assert not link_go(bank, net)[north]
    snap = sim.step()
    assert sim.q[north] == 1.3
    assert snap.u[2] == pytest.approx(1.3)  # inflow sum ignores the gate


# --- linearity ---------------------------------------------------------------

def test_step_is_linear_in_the_content_vector():
    net, table, bank, q0 = make_system(3, seed=5)
    sim1 = DensitySim(net, table, bank.copy(), q0)
    sim2 = DensitySim(net, table, bank.copy(), 2.0 * q0)
    for _ in range(500):
        sim1.step()
        sim2.step()
    assert sim2.q == pytest.approx(2.0 * sim1.q, rel=1e-12)


def test_trajectory_matches_dense_operator_products():
    net, table, bank, q0 = make_system(3, seed=6)
    rate = np.minimum(1.0 / net.length, 1.0)
    tmat = table.matrix()
    ref_bank = bank.copy()
    sim = DensitySim(net, table, bank, q0)
    q_ref = q0.copy()
    for t in range(300):
        go = link_go(ref_bank, net).astype(float)
        move = go * rate * q_ref
        q_ref = q_ref - move + tmat.T @ move
        ref_bank.step(t)
        sim.step()
    assert sim.q == pytest.approx(q_ref, rel=1e-11, abs=1e-13)


# --- sim API -----------------------------------------------------------------

def test_run_collects_pre_movement_snapshots():
    net, table, bank, q0 = make_system(3, seed=7)
    sim = DensitySim(net, table, bank, q0)
    traj = sim.run(40)
    assert traj.t0 == 0
    assert traj.steps == 40
    assert traj.k[0] == pytest.approx(q0 / net.length)
    x1, x2 = traj.x1[0], traj.x2[0]
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
