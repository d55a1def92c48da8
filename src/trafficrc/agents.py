"""Multi-agent traffic: optimal-velocity car following under signal control."""

from __future__ import annotations

import bisect
import heapq
import math
from typing import NamedTuple

import numpy as np

from . import kernels
from .density import _Reservoir
from .io import OVParams
# link_go and reservoir_observables stay importable here: perfbench/tracer.py
# wraps them
from .signals import link_go, reservoir_observables  # noqa: F401

__all__ = ["AgentState", "init_agents", "AgentSim"]


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
    """Inverse-CDF turn draws from a TurnTable's rows (one uniform per draw).

    Rows are kept as lists: bisect_right on a list of floats picks what
    np.searchsorted(..., side="right") picks on its array, without numpy's
    per-call overhead on a row of a few entries.
    """

    def __init__(self, table):
        rows = [table.row(l) for l in range(table.n_links)]
        self.to = [to.tolist() for to, _ in rows]
        self.cum = [np.cumsum(w).tolist() for _, w in rows]

    def draw(self, link, rng):
        cum = self.cum[link]
        k = bisect.bisect_right(cum, rng.random())
        return self.to[link][min(k, len(cum) - 1)]


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


class _Segments(NamedTuple):
    """AgentSim's segment index under one go mask (see AgentSim._index)."""
    first: np.ndarray        # (n_links + 1,) rear agent index of each link
    same: np.ndarray         # same[i]: agents i and i + 1 share a link
    lead: np.ndarray         # leader indices, red-facing first
    end: np.ndarray          # the leaders' link lengths
    extra: np.ndarray        # the leaders' gaps past the line (0 on red)
    n_red: int               # leaders facing red
    green_links: np.ndarray  # the green leaders' links, ascending
    rear: np.ndarray         # rear agent index of each green leader's next link
    empty: np.ndarray        # that next link holds no agent
    h: np.ndarray            # per-agent scratch: headways, then gaps


class AgentSim(_Reservoir):
    """Steps the multi-agent model; runs record reservoir trajectories.

    Each reservoir step takes the agent-count densities, then runs the
    Euler substeps under that step's fixed signal state. A red light acts as
    a stationary obstacle at the stop line; a leader crossing on green moves
    to its pre-drawn outgoing link at x - L with velocity kept, and is
    blocked at the line when the target link has no room at its upstream
    end.

    Each block (see _Reservoir) keeps its own agents, states[b] on the
    lattice's links, and its own rng, rngs[b]; blocks never exchange agents.
    """

    def __init__(self, net, tables, banks, states, params, rngs):
        super().__init__(net, tables, banks)
        if len(states) != self.blocks or len(rngs) != self.blocks:
            raise ValueError("a sim needs one agent state and one rng per block")
        offs = self._link_off
        self.state = AgentState(
            np.concatenate([st.link + o for st, o in zip(states, offs)]),
            np.concatenate([st.x for st in states]),
            np.concatenate([st.v for st in states]),
            np.concatenate([st.next_link + o for st, o in zip(states, offs)]))
        self.params = params
        self.rngs = list(rngs)
        self._block_links = net.n_links
        self.min_gaps = np.full(self.blocks, math.inf)
        self._sampler = _TurnSampler(self.table)
        self._tanh_c = math.tanh(params.c / params.w)
        # a block's agents stay on its links, so its agent slice is fixed;
        # min_gap reduces over the slices of the blocks that have agents
        agent_off = self.state.link.searchsorted(offs)
        self._link_ids = np.arange(offs[-1] + 1)
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
        self._index(go)
        dens = np.diff(self._seg.first) / self.net.length
        for _ in range(self.params.substeps):
            self._substep(go)
        self.t += 1
        return dens

    def _index(self, go):
        """Cache the segment index of the sorted agents under go.

        first[l] is the index of link l's rear agent and first[l + 1] - 1
        that of its leader. The links and masks derived from it change only
        when an agent changes link, so a step builds them once and a substep
        rebuilds them only after transfers.
        """
        st = self.state
        ls = st.link
        first = ls.searchsorted(self._link_ids)
        after = first[1:]           # after[l]: one past link l's leader
        occupied = after != first[:-1]
        # the leaders facing red first, then those facing green, each by link
        red = (occupied & ~go).nonzero()[0]
        green = (occupied & go).nonzero()[0]
        links = np.concatenate((red, green))
        lead = after[links] - 1
        # a green leader's next link: the index of its rear agent, or empty
        nxt = st.next_link[lead[red.size:]]
        rear = first[nxt]
        self._seg = _Segments(
            first, ls[1:] == ls[:-1], lead, self.net.length[links],
            np.zeros(links.size), red.size, green, rear,
            rear == after[nxt], np.empty(ls.size))

    def _substep(self, go):
        seg = self._seg
        p = self.params
        xs = self.state.x
        if xs.size == 0:
            return
        n_red = seg.n_red
        # an empty next link's rear index may be n: clipped, then not used
        seg.extra[n_red:] = np.where(seg.empty, p.horizon,
                                     xs.take(seg.rear, mode="clip"))
        kernels.agents_substep(xs, self.state.v, seg.h, seg.same, seg.lead,
                               seg.end, seg.extra, n_red, p.a,
                               0.5 * p.v_scale, p.c, p.w, self._tanh_c, p.dt,
                               p.d_min)
        crossing = seg.green_links[xs.take(seg.lead[n_red:]) > seg.end[n_red:]]
        if crossing.size:
            self._transfers(crossing.tolist(), go)
            # the agents moved, and a subclass's transfers may even replace
            # the state's arrays: index and read them again
            self._index(go)
            seg = self._seg
            xs = self.state.x
        # per-block minimum of the same-link gaps, one reduceat over blocks
        gap = seg.h
        np.subtract(xs[1:], xs[:-1], out=gap[:-1])
        gap[seg.lead] = np.inf
        np.minimum.at(self.min_gaps, self._gap_of,
                      np.minimum.reduceat(gap, self._gap_at))

    def _transfers(self, heap, go):
        """Move green leaders past their stop line onto their next links.

        heap holds the links whose leader crosses, ascending; sources are
        taken lowest link id first, which is the order of a scan over the
        sorted agents. A crosser enters the front of its target segment at
        the overshoot, clamped d_min behind the target's rear agent, and is
        blocked at the line when that rear agent is within d_min of the
        entry. The blocks share the heap; restricted to one block it pops
        that block's links in the same ascending order, and a turn draw takes
        the rng of the target link's block.
        """
        st = self.state
        lens = self.net.length
        d_min = self.params.d_min
        ls, xs, vs, nxt = st.link, st.x, st.v, st.next_link
        # the cached index's first (see _index), kept up to date here; the
        # substep rebuilds the whole index after this call
        first = self._seg.first
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
            turn = self._sampler.draw(tgt, self.rngs[tgt // self._block_links])
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
