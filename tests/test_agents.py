"""Multi-agent model: car following, junction transfers, invariants."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficrc import kernels
from trafficrc.agents import (AgentSim, AgentState, OVParams,
                              agent_link_densities, init_agents)
from trafficrc.lattice import assign_turn_table, build_lattice
from trafficrc.signals import (MODE_CONSTANT_RATE, MODE_LITERAL, TWO_PI,
                               PhaseBank, link_go)


# --- optimal velocity function -----------------------------------------------

def ov_velocity(h, params):
    """Reference optimal speed V(h) = (v_scale/2) [tanh((h-c)/w) + tanh(c/w)]."""
    h = np.asarray(h, dtype=float)
    half = 0.5 * params.v_scale
    return half * (np.tanh((h - params.c) / params.w) + np.tanh(params.c / params.w))


def kernel_velocity(h, params):
    """The optimal speed the kernel relaxes to: one substep with a = dt = 1
    of standing lone green leaders whose headway beyond the line is h."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    n = h.size
    _, vs = run_kernel(np.zeros(n), np.zeros(n), np.arange(n), h, np.zeros(n),
                       np.zeros(n, dtype=bool), 1.0, 0.5 * params.v_scale,
                       params.c, params.w, math.tanh(params.c / params.w),
                       1.0, params.d_min)
    return vs


def test_velocity_hand_values():
    p = OVParams()
    # V(0) = 0; at h = c the first tanh vanishes; V saturates at v_sup
    h = [0.0, p.c, 1e6]
    want = [0.0, 0.5 * p.v_scale * math.tanh(p.c / p.w),
            0.5 * p.v_scale * (1.0 + math.tanh(p.c / p.w))]
    for v in (ov_velocity(h, p), kernel_velocity(h, p)):
        assert v == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert v[2] < p.v_sup + 1e-12


def test_velocity_monotone_and_nonnegative():
    p = OVParams()
    h = np.linspace(0.0, 12.0, 400)
    v = kernel_velocity(h, p)
    assert v == pytest.approx(ov_velocity(h, p), rel=1e-14, abs=1e-15)
    assert np.all(np.diff(v) >= 0)
    assert np.all(v >= 0)
    # a negative headway counts as none
    assert kernel_velocity(-0.1, p)[0] == kernel_velocity(0.0, p)[0]


def test_params_validation():
    with pytest.raises(ValueError):
        OVParams(dt=0.0)
    with pytest.raises(ValueError):
        OVParams(a=-1.0)
    with pytest.raises(ValueError):
        OVParams(d_min=-0.1)
    assert OVParams(dt=0.1).substeps == 10
    assert OVParams(dt=1.0).substeps == 1


# --- initialization ----------------------------------------------------------

def test_init_agents_even_spacing():
    net = build_lattice(2, 20.0)
    rng = np.random.default_rng(0)
    table = assign_turn_table(net, (0.2, 0.3, 0.5), rng)
    st = init_agents(net, table, rng, per_link=4)
    assert st.count == 4 * net.n_links
    on0 = st.x[st.link == 0]
    assert on0 == pytest.approx([4.0, 8.0, 12.0, 16.0])
    assert np.all(st.v == 0.0)
    # routes start from the arrival link's turn row
    for i in range(st.count):
        ids, _ = table.row(int(st.link[i]))
        assert st.next_link[i] in ids


def test_init_agents_per_link_counts_and_spacing_guard():
    net = build_lattice(2, 20.0)
    rng = np.random.default_rng(1)
    table = assign_turn_table(net, (0.2, 0.3, 0.5), rng)
    counts = np.zeros(net.n_links, dtype=int)
    counts[2] = 3
    st = init_agents(net, table, rng, per_link=counts)
    assert st.count == 3
    assert np.all(st.link == 2)
    with pytest.raises(ValueError):
        init_agents(net, table, rng, per_link=250)  # spacing below d_min


def test_link_densities_are_counts_over_length():
    net = build_lattice(2, 20.0)
    rng = np.random.default_rng(2)
    table = assign_turn_table(net, (0.2, 0.3, 0.5), rng)
    st = init_agents(net, table, rng, per_link=5)
    k = agent_link_densities(st, net)
    assert k == pytest.approx(np.full(net.n_links, 0.25))


# --- kernel vs sequential-loop oracle -----------------------------------------

def _agents_substep_loops(xs, vs, ls, extra, link_len, red, a, vhalf, c, w,
                          tanh_c, dt, d_min):
    """The agents substep agent by agent, in place (the kernel's oracle).

    Agents arrive sorted by (link, position ascending); segment leaders sit
    at segment ends. extra[i] holds the gap beyond the stop line that a
    green leader may use (rear of its next link, or the horizon).
    """
    n = xs.shape[0]
    for i in range(n):
        if i + 1 < n and ls[i + 1] == ls[i]:
            h = xs[i + 1] - xs[i]
        else:
            h = link_len[ls[i]] - xs[i] + extra[i]
        if h < 0.0:
            h = 0.0
        vopt = vhalf * (math.tanh((h - c) / w) + tanh_c)
        v = vs[i] + a * (vopt - vs[i]) * dt
        vs[i] = v if v > 0.0 else 0.0
        xs[i] += vs[i] * dt
    for i in range(n):
        if i + 1 >= n or ls[i + 1] != ls[i]:
            if red[ls[i]] and xs[i] > link_len[ls[i]]:
                xs[i] = link_len[ls[i]]
                vs[i] = 0.0
    for i in range(n - 2, -1, -1):
        if ls[i] == ls[i + 1]:
            cap = xs[i + 1] - d_min
            if xs[i] > cap:
                xs[i] = cap


def run_kernel(xs, vs, ls, extra, link_len, red, *params):
    """kernels.agents_substep on copies, with the masks _substep builds."""
    xs, vs = xs.copy(), vs.copy()
    same = ls[1:] == ls[:-1]
    lead = np.r_[~same, True]
    end = link_len[ls]
    kernels.agents_substep(xs, vs, end, extra, same, lead, lead & red[ls],
                           *params)
    return xs, vs


def run_oracle(xs, vs, ls, extra, link_len, red, *params):
    xs, vs = xs.copy(), vs.copy()
    _agents_substep_loops(xs, vs, ls, extra, link_len, red, *params)
    return xs, vs


def test_agents_kernel_paths_agree():
    rng = np.random.default_rng(3)
    link_len = np.full(8, 20.0)
    ls = np.sort(rng.integers(0, 8, 40)).astype(np.int64)
    xs = np.empty(40)
    for l in np.unique(ls):
        m = ls == l
        xs[m] = np.sort(rng.uniform(0.0, 20.0, m.sum()))
    vs = rng.uniform(0.0, 2.0, 40)
    red = rng.uniform(size=8) < 0.5
    extra = np.zeros(40)
    lead = np.r_[ls[1:] != ls[:-1], True]
    extra[lead] = rng.uniform(0.0, 30.0, int(lead.sum()))

    args = (ls, extra, link_len, red,
            1.0, 1.0, 2.0, 1.0, math.tanh(2.0), 0.1, 0.1)
    x_np, v_np = run_kernel(xs, vs, *args)
    x_py, v_py = run_oracle(xs, vs, *args)
    # np.tanh and math.tanh may differ in the last bit
    assert x_np == pytest.approx(x_py, rel=1e-12, abs=1e-14)
    assert v_np == pytest.approx(v_py, rel=1e-12, abs=1e-14)


def compressed_queues(rng, n_links, per_link, d_min, length=20.0):
    """Sorted agents packed mostly inside d_min of each other near the line."""
    ls = np.repeat(np.arange(n_links), per_link).astype(np.int64)
    xs = np.empty(ls.size)
    for l in range(n_links):
        gaps = rng.choice([0.0, 0.3 * d_min, 0.9 * d_min, 1.5 * d_min, 4 * d_min],
                          size=per_link, p=[0.1, 0.4, 0.2, 0.2, 0.1])
        xs[ls == l] = length - 0.5 - np.cumsum(gaps)[::-1]
    vs = rng.uniform(0.0, 2.0, ls.size)
    return ls, xs, vs, np.full(n_links, length)


def test_follower_clamp_matches_sequential_oracle_on_a_red_queue():
    rng = np.random.default_rng(11)
    d_min = 0.1
    ls, xs, vs, link_len = compressed_queues(rng, 3, 24, d_min)
    # link 0: 24 agents spaced 0.02..0.05 apart, behind a red stop line
    xs[:24] = 19.9 - np.cumsum(rng.uniform(0.2, 0.5, 24) * d_min)[::-1]
    red = np.array([True, False, True])
    extra = np.zeros(ls.size)
    lead = np.r_[ls[1:] != ls[:-1], True]
    extra[lead] = 1e3
    # v_scale = 0 makes the optimal velocity exactly 0 on both paths, so the
    # pre-clamp positions agree bit for bit and the clamps can be compared
    args = (ls, extra, link_len, red, 1.0, 0.0, 2.0, 1.0, math.tanh(2.0),
            0.1, d_min)
    assert np.all(np.diff(xs[:24]) < d_min)   # a long compressed red queue
    x_np, v_np = run_kernel(xs, vs, *args)
    x_py, v_py = run_oracle(xs, vs, *args)
    assert np.array_equal(x_np, x_py)
    assert np.array_equal(v_np, v_py)
    same = ls[1:] == ls[:-1]
    assert np.all(x_np[:-1][same] <= x_np[1:][same] - d_min)
    assert np.all(x_np[ls == 0] <= 20.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_links=st.integers(1, 5),
       per_link=st.integers(1, 30), d_min=st.sampled_from([0.0, 0.05, 0.1]))
def test_follower_clamp_matches_sequential_oracle(seed, n_links, per_link,
                                                  d_min):
    rng = np.random.default_rng(seed)
    ls, xs, vs, link_len = compressed_queues(rng, n_links, per_link,
                                             max(d_min, 0.05))
    red = rng.uniform(size=n_links) < 0.5
    extra = rng.uniform(0.0, 3.0, ls.size)
    args = (ls, extra, link_len, red, 0.7, 0.0, 2.0, 1.0, math.tanh(2.0),
            0.5, d_min)
    x_np, v_np = run_kernel(xs, vs, *args)
    x_py, v_py = run_oracle(xs, vs, *args)
    assert np.array_equal(x_np, x_py)
    assert np.array_equal(v_np, v_py)


# --- red light queue vs scalar oracle ----------------------------------------

def red_queue_oracle(x, v, length, p, substeps):
    """Single red link, transcribed agent by agent."""
    x, v = x.copy(), v.copy()
    n = x.size
    tanh_c = math.tanh(p.c / p.w)
    for _ in range(substeps):
        for i in range(n):
            h = (x[i + 1] - x[i]) if i + 1 < n else (length - x[i])
            if h < 0.0:
                h = 0.0
            vopt = 0.5 * p.v_scale * (math.tanh((h - p.c) / p.w) + tanh_c)
            vv = v[i] + p.a * (vopt - v[i]) * p.dt
            v[i] = vv if vv > 0.0 else 0.0
            x[i] += v[i] * p.dt
        if x[-1] > length:
            x[-1] = length
            v[-1] = 0.0
        for i in range(n - 2, -1, -1):
            cap = x[i + 1] - p.d_min
            if x[i] > cap:
                x[i] = cap
    return x, v


def test_red_light_queue_matches_oracle():
    net = build_lattice(2, 20.0)
    rng = np.random.default_rng(4)
    table = assign_turn_table(net, (0.2, 0.3, 0.5), rng)
    north = net.link_index(0, 2)
    assert bool(net.link_axis_ns[north])
    counts = np.zeros(net.n_links, dtype=int)
    counts[north] = 4
    p = OVParams()
    st = init_agents(net, table, rng, per_link=counts, params=p)
    x0, v0 = st.x.copy(), st.v.copy()
    # enormous tau freezes the phases; NS axis stays stopped (default rule)
    bank = PhaseBank(1e12, np.full(4, 0.5))
    assert not link_go(bank.theta, bank.ns_stop_first, net)[north]
    sim = AgentSim(net, table, bank, st, p, rng)
    steps = 50
    sim.run(steps)
    x_ref, v_ref = red_queue_oracle(x0, v0, 20.0, p, steps * p.substeps)
    assert sim.state.x == pytest.approx(x_ref, rel=1e-9, abs=1e-12)
    assert sim.state.v == pytest.approx(v_ref, rel=1e-9, abs=1e-12)
    # queue compressed against the stop line, creeping at most
    assert np.all(sim.state.x <= 20.0 + 1e-12)
    assert np.all(sim.state.v <= 0.01)
    gaps = np.diff(sim.state.x)
    assert np.all(gaps >= p.d_min - 1e-12)


# --- circular route fixed point ----------------------------------------------

def ring_setup(per_link, spacing_offset=0.5):
    """All-left ring on the 2x2 lattice with permanently green ring links."""
    net = build_lattice(2, 20.0)
    table = assign_turn_table(net, (0.0, 1.0, 0.0), permute=False)
    ring = [net.link_index(0, 1), net.link_index(1, 3),
            net.link_index(3, 2), net.link_index(2, 0)]
    ring_next = {ring[i]: ring[(i + 1) % 4] for i in range(4)}
    for l in ring:
        ids, w = table.row(l)
        assert dict(zip(ids.tolist(), w.tolist()))[ring_next[l]] == 1.0
    # junction flags chosen so each ring link's axis shows go at its dst
    flags = np.empty(4, dtype=bool)
    flags[1] = True    # 0->1 eastbound: EW go at junction 1
    flags[3] = False   # 1->3 northbound: NS go at junction 3
    flags[2] = True    # 3->2 westbound: EW go at junction 2
    flags[0] = False   # 2->0 southbound: NS go at junction 0
    bank = PhaseBank(1e12, np.full(4, 0.5), ns_stop_first=flags)
    assert np.all(link_go(bank.theta, bank.ns_stop_first, net)[ring])

    spacing = 20.0 / per_link
    links, xs = [], []
    for l in ring:
        links += [l] * per_link
        xs += [spacing * (k + spacing_offset) for k in range(per_link)]
    link = np.asarray(links, dtype=np.int64)
    x = np.asarray(xs)
    nxt = np.asarray([ring_next[int(l)] for l in link], dtype=np.int64)
    return net, table, bank, ring, link, x, nxt, spacing


def ring_positions(net, ring, state):
    offset = {l: 20.0 * i for i, l in enumerate(ring)}
    pos = np.array([offset[int(l)] + x for l, x in zip(state.link, state.x)])
    return np.sort(pos)


def test_uniform_ring_flow_is_a_fixed_point():
    per_link = 4
    net, table, bank, ring, link, x, nxt, spacing = ring_setup(per_link)
    p = OVParams()
    v_star = float(ov_velocity(spacing, p))
    st = AgentState(link, x, np.full(link.size, v_star), nxt)
    sim = AgentSim(net, table, bank, st, p, np.random.default_rng(5))
    sim.run(20)
    st = sim.state
    assert st.count == 4 * per_link
    # velocities stay pinned at V(spacing)
    assert st.v == pytest.approx(np.full(st.count, v_star), rel=1e-9)
    # cyclic headways stay uniform, junction gaps included
    pos = ring_positions(net, ring, st)
    gaps = np.diff(np.r_[pos, pos[0] + 80.0])
    assert gaps == pytest.approx(np.full(st.count, spacing), rel=1e-9)
    # total advance equals v* times elapsed time (mod the comb period)
    expected = 20 * p.substeps * p.dt * v_star
    shift = (pos[0] - ring_positions(net, ring,
                                     AgentState(link, x, x * 0.0, nxt))[0])
    residue = (shift - expected) % spacing
    assert min(residue, spacing - residue) == pytest.approx(0.0, abs=1e-9)


def test_transfer_into_empty_link_keeps_velocity():
    net, table, bank, ring, _, _, _, _ = ring_setup(1)
    p = OVParams(dt=1.0, a=0.2)
    l0, l1 = ring[0], ring[1]
    st = AgentState(np.array([l0]), np.array([19.5]), np.array([2.0]),
                    np.array([l1]))
    sim = AgentSim(net, table, bank, st, p, np.random.default_rng(6))
    sim.run(1)
    st = sim.state
    assert st.link[0] == l1
    assert 0.0 < st.x[0] < 2.0   # crossed with the overshoot kept
    assert st.v[0] > 0.5         # velocity survives the transfer


def test_transfer_blocked_when_target_entry_is_full():
    net, table, bank, ring, _, _, _, _ = ring_setup(1)
    p = OVParams(dt=1.0, a=0.2, d_min=0.1)
    l0, l1, l2 = ring[0], ring[1], ring[2]
    # the d_min pair at the head of l1 pins its rear agent near the entry
    link = np.array([l0, l1, l1], dtype=np.int64)
    x = np.array([19.5, 0.05, 0.15])
    v = np.array([2.0, 0.0, 0.0])
    nxt = np.array([l1, l2, l2], dtype=np.int64)
    st = AgentState(link, x, v, nxt)
    sim = AgentSim(net, table, bank, st, p, np.random.default_rng(7))
    sim.run(1)
    st = sim.state
    stuck = np.flatnonzero(st.link == l0)
    assert stuck.size == 1   # the crosser was turned back at the line
    assert st.x[stuck[0]] == 20.0
    assert st.v[stuck[0]] == 0.0


def test_transfer_clamps_to_rear_gap():
    net, table, bank, ring, _, _, _, _ = ring_setup(1)
    p = OVParams(dt=1.0, a=0.2, d_min=0.1)
    l0, l1, l2 = ring[0], ring[1], ring[2]
    st = AgentState(np.array([l0, l1], dtype=np.int64),
                    np.array([19.5, 0.5]),
                    np.array([2.0, 0.0]),
                    np.array([l1, l2], dtype=np.int64))
    sim = AgentSim(net, table, bank, st, p, np.random.default_rng(8))
    sim.run(1)
    st = sim.state
    assert np.all(st.link == l1)
    # the agent ahead moves first; entry clamps to its post-move rear gap
    v_ahead = p.a * float(ov_velocity(20.0 - 0.5 + p.horizon, p)) * p.dt
    rear_post = 0.5 + v_ahead * p.dt
    entered = int(np.argmin(st.x))
    assert st.x[entered] == pytest.approx(rear_post - p.d_min, rel=1e-12)
    assert st.x[entered] < 1.11  # tighter than the raw overshoot


# --- transfers vs the full re-sort reference ---------------------------------

class ResortTransfersSim(AgentSim):
    """AgentSim whose transfers take the first crossing leader of the sorted
    arrays, move it, and re-sort all agents, once per transfer: the reference
    for the in-place insertion."""

    def _transfers(self, heap, go):
        st = self.state
        lens = self.net.length
        p = self.params
        while True:
            ls, xs = st.link, st.x
            n = st.count
            lead = np.empty(n, dtype=bool)
            lead[-1] = True
            lead[:-1] = ls[1:] != ls[:-1]
            cross = lead & go[ls] & (xs > lens[ls])
            hits = np.flatnonzero(cross)
            if hits.size == 0:
                return
            i = int(hits[0])
            src = int(ls[i])
            tgt = int(st.next_link[i])
            overshoot = xs[i] - lens[src]
            on_tgt = np.flatnonzero(ls == tgt)
            if on_tgt.size == 0:
                pos = overshoot
            else:
                rear = float(xs[on_tgt[0]])
                if rear - p.d_min < 0.0:
                    st.x[i] = lens[src]
                    st.v[i] = 0.0
                    j = i - 1
                    while j >= 0 and ls[j] == src \
                            and st.x[j] > st.x[j + 1] - p.d_min:
                        st.x[j] = st.x[j + 1] - p.d_min
                        j -= 1
                    continue
                pos = min(overshoot, rear - p.d_min)
            st.link[i] = tgt
            st.x[i] = pos
            st.next_link[i] = self._sampler.draw(tgt, self.rngs[0])
            st.sort()


def run_both(net, table, bank, state, params, seed, steps):
    """Run AgentSim and the re-sort reference from the same start."""
    out = []
    for cls in (AgentSim, ResortTransfersSim):
        sim = cls(net, table, copy.deepcopy(bank), state.copy(), params,
                  np.random.default_rng(seed))
        out.append((sim, sim.run(steps)))
    return out


def assert_bitwise_equal(runs):
    (sim, traj), (ref, ref_traj) = runs
    for name in ("u", "theta", "k"):
        assert np.array_equal(getattr(traj, name), getattr(ref_traj, name)), name
    for name in ("link", "x", "v", "next_link"):
        a, b = getattr(sim.state, name), getattr(ref.state, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert sim.min_gap == ref.min_gap
    assert sim.rngs[0].bit_generator.state == ref.rngs[0].bit_generator.state


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       d_min=st.sampled_from([0.0, 0.05, 0.1]),
       dt=st.sampled_from([0.1, 0.25, 0.5, 1.0]))
def test_transfers_match_full_resort_on_random_lattices(seed, n, d_min, dt):
    rng = np.random.default_rng(seed)
    n_links = 4 * n * (n - 1)
    lengths = rng.uniform(3.0, 20.0, n_links)
    cap = np.floor(lengths / max(d_min, 0.2)).astype(int) - 1
    counts = np.minimum(rng.integers(0, 16, n_links), cap)
    net = build_lattice(n, lengths)
    table = assign_turn_table(net, rng.dirichlet(np.ones(3)), rng)
    tau = rng.uniform(5.0, 60.0)
    bank = PhaseBank(tau, rng.uniform(0.0, TWO_PI, net.n_junctions))
    p = OVParams(dt=dt, d_min=d_min)
    state = init_agents(net, table, rng, per_link=counts, params=p)
    runs = run_both(net, table, bank, state, p, seed, 40)
    assert_bitwise_equal(runs)
    assert runs[0][0].state.count == counts.sum()


# --- disjoint unions of blocks vs solo runs ----------------------------------

def random_block(rng, n, params, mode, empty=False):
    """Network, turn table, phase bank (per-junction tau and stop
    convention) and agents of one random block."""
    n_links = 4 * n * (n - 1)
    lengths = rng.uniform(3.0, 20.0, n_links)
    cap = np.floor(lengths / max(params.d_min, 0.2)).astype(int) - 1
    counts = np.minimum(rng.integers(0, 16, n_links), cap) * (not empty)
    net = build_lattice(n, lengths)
    table = assign_turn_table(net, rng.dirichlet(np.ones(3)), rng)
    nj = net.n_junctions
    bank = PhaseBank(rng.uniform(5.0, 60.0, nj), rng.uniform(0.0, TWO_PI, nj),
                     mode=mode, ns_stop_first=rng.uniform(size=nj) < 0.5)
    state = init_agents(net, table, rng, per_link=counts, params=params)
    return net, table, bank, state


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), n=st.integers(2, 4),
       d_min=st.sampled_from([0.0, 0.05, 0.1]),
       dt=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
       mode=st.sampled_from([MODE_CONSTANT_RATE, MODE_LITERAL]),
       empty=st.integers(-1, 3))
def test_union_blocks_match_their_solo_runs(seed, k, n, d_min, dt, mode, empty):
    rng = np.random.default_rng(seed)
    p = OVParams(dt=dt, d_min=d_min)
    blocks = [random_block(rng, n, p, mode, empty=b == empty) for b in range(k)]

    def sims():
        return [AgentSim(net, table, copy.deepcopy(bank), state.copy(), p,
                         np.random.default_rng((seed, b)))
                for b, (net, table, bank, state) in enumerate(blocks)]

    solo = sims()
    solo_trajs = [sim.run(40) for sim in solo]
    union = AgentSim.union(sims())
    trajs = union.split(union.run(40))
    assert union.blocks == len(trajs) == k
    for b, (sim, ref) in enumerate(zip(solo, solo_trajs)):
        for name in ("u", "theta", "k"):
            got, want = getattr(trajs[b], name), getattr(ref, name)
            assert got.flags.c_contiguous and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        # block b holds links [b * n_links, (b + 1) * n_links) of the union
        offset = b * sim.net.n_links
        mine = union.state.link // sim.net.n_links == b
        for name in ("link", "x", "v", "next_link"):
            got, want = getattr(union.state, name)[mine], getattr(sim.state, name)
            if name in ("link", "next_link"):
                got = got - offset
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert union.min_gaps[b] == sim.min_gap
        assert (union.rngs[b].bit_generator.state
                == sim.rngs[0].bit_generator.state)
    assert union.min_gap == min(sim.min_gap for sim in solo)


@pytest.mark.parametrize("k", [1, 3])
def test_split_runs_equal_one_run(k):
    # run(a) then run(b) resumes the clock, phases, agents and rngs
    rng = np.random.default_rng(16)
    p = OVParams(dt=0.25)
    blocks = [random_block(rng, 2, p, MODE_CONSTANT_RATE) for _ in range(k)]
    inputs = rng.normal(size=30)

    def sim():
        sims = [AgentSim(net, table, copy.deepcopy(bank), state.copy(), p,
                         np.random.default_rng((16, b)))
                for b, (net, table, bank, state) in enumerate(blocks)]
        for s in sims:
            s.bank.win = np.full(s.net.n_junctions, 0.4)
        return AgentSim.union(sims) if k > 1 else sims[0]

    whole, parts = sim(), sim()
    ref = whole.run(30, inputs)
    got = [parts.run(a, inputs) for a in (11, 0, 19)]
    assert [g.t0 for g in got] == [0, 11, 11]
    for name in ("u", "theta", "k"):
        joined = np.concatenate([getattr(g, name) for g in got])
        assert joined.tobytes() == getattr(ref, name).tobytes(), name
    for name in ("link", "x", "v", "next_link"):
        assert np.array_equal(getattr(parts.state, name),
                              getattr(whole.state, name)), name
    assert [r.bit_generator.state for r in parts.rngs] == \
        [r.bit_generator.state for r in whole.rngs]


def test_union_refuses_blocks_out_of_step():
    net, table, bank, state = random_block(np.random.default_rng(15), 2,
                                           OVParams(), MODE_CONSTANT_RATE)

    def sim(params):
        return AgentSim(net, table, bank.copy(), state.copy(), params,
                        np.random.default_rng(0))

    ahead = sim(OVParams())
    ahead.run(1)
    with pytest.raises(ValueError, match="time"):
        AgentSim.union([sim(OVParams()), ahead])
    with pytest.raises(ValueError, match="params"):
        AgentSim.union([sim(OVParams()), sim(OVParams(dt=0.5))])


def ring_state(ring, placed):
    """AgentState from (link, x, v) triples on the ring lattice; each agent's
    next link is its ring successor."""
    ring_next = {ring[i]: ring[(i + 1) % 4] for i in range(4)}
    link = np.array([l for l, _, _ in placed], dtype=np.int64)
    nxt = np.array([ring_next.get(l, l) for l in link], dtype=np.int64)
    return AgentState(link, [x for _, x, _ in placed],
                      [v for _, _, v in placed], nxt)


def test_follower_crosses_right_after_its_leader():
    net, table, bank, ring, _, _, _, _ = ring_setup(1)
    p = OVParams(dt=1.0, a=0.2, d_min=0.1)
    src, tgt = ring[0], ring[1]
    state = ring_state(ring, [(src, 19.0, 2.0), (src, 19.3, 2.0)])
    runs = run_both(net, table, bank, state, p, 12, 1)
    assert_bitwise_equal(runs)
    st = runs[0][0].state
    # one substep: the leader enters the empty link, then its follower
    assert np.all(st.link == tgt)
    assert st.x[0] < st.x[1] and st.x[1] < 2.0


def test_entry_into_an_empty_lower_link_shifts_the_agents_between():
    net, table, bank, ring, _, _, _, _ = ring_setup(1)
    p = OVParams(dt=1.0, a=0.2, d_min=0.1)
    src, tgt = ring[3], ring[0]
    assert tgt < src
    between = [(l, 10.0, 0.0) for l in range(tgt + 1, src)]
    state = ring_state(ring, between + [(src, 19.5, 2.0)])
    runs = run_both(net, table, bank, state, p, 13, 1)
    assert_bitwise_equal(runs)
    st = runs[0][0].state
    assert st.link[0] == tgt and 0.0 < st.x[0] < 2.0
    assert np.array_equal(st.link[1:], np.arange(tgt + 1, src))


@pytest.mark.parametrize("hop", [0, 2])   # ring hops 1 -> 2 and 7 -> 5
def test_tied_entry_at_zero_spacing_keeps_the_resort_order(hop):
    net, table, bank, ring, _, _, _, _ = ring_setup(1)
    p = OVParams(dt=1.0, a=0.2, d_min=0.0)
    src, tgt = ring[hop], ring[hop + 1]
    # the overshoot passes the target's rear pair, so the mover enters at
    # exactly the rear position, tied with two standing agents
    state = ring_state(ring, [(src, 19.5, 2.0), (tgt, 0.3, 0.0),
                              (tgt, 0.3, 0.0)])
    runs = run_both(net, table, bank, state, p, 14, 1)
    assert_bitwise_equal(runs)
    st = runs[0][0].state
    on_tgt = st.link == tgt
    assert on_tgt.sum() == 3 and np.all(st.x[on_tgt][:2] == st.x[on_tgt][0])


# --- global invariants -------------------------------------------------------

def test_busy_network_conserves_agents_and_spacing():
    net = build_lattice(3, 20.0)
    rng = np.random.default_rng(9)
    table = assign_turn_table(net, (1 / 3, 1 / 3, 1 / 3), rng)
    bank = PhaseBank(100.0, rng.uniform(0.0, TWO_PI, net.n_junctions))
    p = OVParams()
    st = init_agents(net, table, rng, per_link=10, params=p)
    total = st.count
    sim = AgentSim(net, table, bank, st, p, rng)
    traj = sim.run(300)
    assert sim.state.count == total
    assert sim.min_gap >= p.d_min - 1e-9
    assert np.all(sim.state.v >= 0.0)
    assert np.all(sim.state.x >= -1e-12)
    assert np.all(sim.state.x <= net.length[sim.state.link] + 1e-9)
    # snapshots: u aggregates incoming densities, observables split u
    k0 = traj.k[0]
    u0 = np.bincount(net.link_to, weights=k0, minlength=net.n_junctions)
    assert traj.u[0] == pytest.approx(u0)
    x1, x2 = traj.observables(0)
    assert x1 + x2 == pytest.approx(traj.u[0], rel=1e-12)
    # densities track counts over length
    assert traj.k[0] == pytest.approx(np.full(net.n_links, 0.5))


def test_same_seed_reproduces_the_trajectory():
    def run():
        rng = np.random.default_rng(10)
        net = build_lattice(2, 20.0)
        table = assign_turn_table(net, (0.2, 0.3, 0.5), rng)
        bank = PhaseBank(50.0, rng.uniform(0.0, TWO_PI, net.n_junctions))
        st = init_agents(net, table, rng, per_link=6)
        sim = AgentSim(net, table, bank, st, OVParams(), rng)
        traj = sim.run(120)
        return traj, sim.state

    traj_a, st_a = run()
    traj_b, st_b = run()
    assert np.array_equal(traj_a.k, traj_b.k)
    assert np.array_equal(st_a.x, st_b.x)
    assert np.array_equal(st_a.link, st_b.link)
