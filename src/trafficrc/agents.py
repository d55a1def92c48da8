"""Multi-agent traffic: optimal-velocity car following under signal control."""

from __future__ import annotations

import heapq
import math

import numpy as np

from . import kernels
from .density import _Reservoir
from .io import OVParams
# link_go and reservoir_observables stay importable here: perfbench/tracer.py
# wraps them
from .signals import link_go, reservoir_observables  # noqa: F401

__all__ = ["AgentState", "init_agents", "agent_link_densities", "AgentSim"]


class AgentState:
    """Flat agent arrays, kept sorted by (link id, position ascending).

    next_link[i] is the outgoing link agent i will take at the end of its
    current link, pre-drawn at link entry.
    """

    def __init__(self, link, x, v, next_link):
        self.link = np.asarray(link, dtype=np.int64).copy()
        self.x = np.asarray(x, dtype=float).copy()
        self.v = np.asarray(v, dtype=float).copy()
        self.next_link = np.asarray(next_link, dtype=np.int64).copy()
        if not (self.link.shape == self.x.shape == self.v.shape
                == self.next_link.shape):
            raise ValueError("agent arrays must share one shape")
        self.sort()

    @property
    def count(self):
        return self.link.size

    def sort(self):
        order = np.lexsort((self.x, self.link))
        self.link = self.link[order]
        self.x = self.x[order]
        self.v = self.v[order]
        self.next_link = self.next_link[order]

    def copy(self):
        return AgentState(self.link, self.x, self.v, self.next_link)


class _TurnSampler:
    """Inverse-CDF turn draws from a TurnTable's rows (one uniform per draw)."""

    def __init__(self, table):
        rows = [table.row(l) for l in range(table.n_links)]
        self.to = [to for to, _ in rows]
        self.cum = [np.cumsum(w) for _, w in rows]

    def draw(self, link, rng):
        cum = self.cum[link]
        k = int(np.searchsorted(cum, rng.random(), side="right"))
        return int(self.to[link][min(k, cum.size - 1)])


def init_agents(net, table, rng, per_link=10, params=None):
    """Evenly spaced standing agents on every link, routes pre-drawn.

    per_link is a count applied to all links or a per-link sequence. Spacing
    must respect d_min: (count+1) slots must fit in the link length.
    """
    params = params or OVParams()
    if np.isscalar(per_link):
        counts = np.full(net.n_links, int(per_link), dtype=np.int64)
    else:
        counts = np.asarray(per_link, dtype=np.int64)
        if counts.shape != (net.n_links,):
            raise ValueError("per_link sequence must have one entry per link")
    if np.any(counts < 0):
        raise ValueError("agent counts must be nonnegative")
    links, xs = [], []
    for l in range(net.n_links):
        c = int(counts[l])
        if c == 0:
            continue
        length = net.length[l]
        if length / (c + 1) < params.d_min:
            raise ValueError(
                f"link {l}: {c} agents cannot keep spacing d_min={params.d_min}")
        links.append(np.full(c, l, dtype=np.int64))
        xs.append(length * (np.arange(c) + 1.0) / (c + 1))
    if not links:
        empty = np.empty(0, dtype=np.int64)
        return AgentState(empty, np.empty(0), np.empty(0), empty)
    link = np.concatenate(links)
    x = np.concatenate(xs)
    sampler = _TurnSampler(table)
    nxt = np.array([sampler.draw(l, rng) for l in link], dtype=np.int64)
    return AgentState(link, x, np.zeros_like(x), nxt)


def agent_link_densities(state, net):
    """Per-link densities: agent count / link length."""
    counts = np.bincount(state.link, minlength=net.n_links)
    return counts / net.length


class AgentSim(_Reservoir):
    """Steps the multi-agent model; runs record reservoir trajectories.

    Each reservoir step takes the agent-count densities, then runs the
    Euler substeps under that step's fixed signal state. A red light acts as
    a stationary obstacle at the stop line; a leader crossing on green moves
    to its pre-drawn outgoing link at x - L with velocity kept, and is
    blocked at the line when the target link has no room at its upstream
    end.

    The blocks of a union (see _Reservoir.union) each keep their own agents
    and rng.
    """

    def __init__(self, net, table, bank, state, params, rng):
        # the block index reads the agents, so they come first
        self.state = state
        self.params = params
        self.rngs = [rng]
        self.min_gaps = np.full(1, math.inf)
        super().__init__(net, table, bank)
        self._sampler = _TurnSampler(table)
        self._tanh_c = math.tanh(params.c / params.w)

    @classmethod
    def _joined(cls, sims, net, table, bank, lo):
        """The union's sim: blocks never exchange agents, transfers stay
        lowest link id first and turn draws take the rng of the target
        link's block. The sims must share params; their rngs are shared."""
        first = sims[0]
        if any(s.params != first.params for s in sims):
            raise ValueError("union blocks must share params")
        sts = [s.state for s in sims]
        state = AgentState(
            np.concatenate([st.link + o for st, o in zip(sts, lo)]),
            np.concatenate([st.x for st in sts]),
            np.concatenate([st.v for st in sts]),
            np.concatenate([st.next_link + o for st, o in zip(sts, lo)]))
        sim = cls(net, table, bank, state, first.params, None)
        sim.rngs = [r for s in sims for r in s.rngs]
        sim.min_gaps = np.concatenate([s.min_gaps for s in sims])
        return sim

    def _index_blocks(self, links, junctions):
        super()._index_blocks(links, junctions)
        self._block_of_link = np.repeat(np.arange(len(links)), links).tolist()
        # a block's agents stay on its links, so its agent slice is fixed;
        # min_gap reduces over the slices of the blocks that have agents
        agent_off = self.state.link.searchsorted(self._link_off)
        self._gap_of = np.flatnonzero(np.diff(agent_off))
        self._gap_at = agent_off[self._gap_of]

    @property
    def min_gap(self):
        """Smallest same-link spacing seen by any block (inf before any)."""
        return float(self.min_gaps.min())

    def step(self, go):
        """Advance one reservoir step under the per-link go mask: the Euler
        substeps and their transfers. Returns the link densities taken
        before the step."""
        dens = agent_link_densities(self.state, self.net)
        for _ in range(self.params.substeps):
            self._substep(go)
        self.t += 1
        return dens

    def _substep(self, go):
        st = self.state
        p = self.params
        n = st.count
        if n == 0:
            return
        xs, ls = st.x, st.link
        # segment masks, shared by the kernel, the transfers and min_gap
        same = ls[1:] == ls[:-1]
        lead = np.empty(n, dtype=bool)
        lead[-1] = True
        np.logical_not(same, out=lead[:-1])
        go_ls = go[ls]
        red_lead = lead & ~go_ls
        green_lead = lead & go_ls
        end = self.net.length[ls]
        extra = np.zeros(n)
        if green_lead.any():
            # rear-most occupant per link: the first agent of each segment
            rear = np.full(self.net.n_links, np.inf)
            starts = np.flatnonzero(lead[:-1]) + 1
            rear[ls[starts]] = xs[starts]
            rear[ls[0]] = xs[0]
            ahead = rear[st.next_link[green_lead]]
            extra[green_lead] = np.where(np.isfinite(ahead), ahead, p.horizon)
        kernels.agents_substep(xs, st.v, end, extra, same, lead, red_lead,
                               p.a, 0.5 * p.v_scale, p.c, p.w, self._tanh_c,
                               p.dt, p.d_min)
        crossing = ls[green_lead & (xs > end)]
        if crossing.size:
            self._transfers(crossing.tolist(), go)
            same = st.link[1:] == st.link[:-1]
        # per-block minimum of the same-link gaps, one reduceat over blocks
        gap = np.full(n, np.inf)
        np.subtract(st.x[1:], st.x[:-1], out=gap[:-1], where=same)
        np.minimum.at(self.min_gaps, self._gap_of,
                      np.minimum.reduceat(gap, self._gap_at))

    def _transfers(self, heap, go):
        """Move green leaders past their stop line onto their next links.

        heap holds the links whose leader crosses, ascending; sources are
        taken lowest link id first, which is the order of a scan over the
        sorted agents. A crosser enters the front of its target segment at
        the overshoot, clamped d_min behind the target's rear agent, and is
        blocked at the line when that rear agent is within d_min of the
        entry. The blocks of a union share the heap; restricted to one block
        it pops that block's links in the same ascending order.
        """
        st = self.state
        lens = self.net.length
        d_min = self.params.d_min
        ls, xs, vs, nxt = st.link, st.x, st.v, st.next_link
        # first[l]: index of link l's rear agent; first[l + 1] - 1 its leader
        first = ls.searchsorted(np.arange(lens.size + 1))
        while heap:
            src = heapq.heappop(heap)
            s0, i = int(first[src]), int(first[src + 1]) - 1
            tgt = int(nxt[i])
            t0, t1 = int(first[tgt]), int(first[tgt + 1])
            overshoot = xs[i] - lens[src]
            if t0 == t1:
                pos = overshoot
            else:
                rear = float(xs[t0])
                if rear - d_min < 0.0:
                    # no room at the upstream end: wait at the stop line, and
                    # push the follower chain back so spacing stays >= d_min
                    xs[i] = lens[src]
                    vs[i] = 0.0
                    j = i - 1
                    while j >= s0 and xs[j] > xs[j + 1] - d_min:
                        xs[j] = xs[j + 1] - d_min
                        j -= 1
                    continue
                pos = min(overshoot, rear - d_min)
            follower_crosses = i > s0 and xs[i - 1] > lens[src]
            v = vs[i]
            turn = self._sampler.draw(tgt, self.rngs[self._block_of_link[tgt]])
            # ties keep the order of a stable sort by (link, x): the mover
            # goes before equal positions when it comes from a lower link,
            # after them when it comes from a higher one
            if src < tgt:
                k = t0 + int(xs[t0:t1].searchsorted(pos, side="left")) - 1
                for arr in (ls, xs, vs, nxt):
                    arr[i:k] = arr[i + 1:k + 1]
                first[src + 1:tgt + 1] -= 1
            else:
                k = t0 + int(xs[t0:t1].searchsorted(pos, side="right"))
                for arr in (ls, xs, vs, nxt):
                    arr[k + 1:i + 1] = arr[k:i]
                first[tgt + 1:src + 1] += 1
            ls[k], xs[k], vs[k], nxt[k] = tgt, pos, v, turn
            if follower_crosses:
                heapq.heappush(heap, src)
            if t0 == t1 and go[tgt] and pos > lens[tgt]:
                heapq.heappush(heap, tgt)
