"""Continuum free-flow density traffic model on the lattice, and the
reservoir core that both traffic models share."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .lattice import TurnTable
from .signals import PhaseBank, link_go, reservoir_observables

__all__ = ["Trajectory", "init_density", "DensitySim"]


@dataclass
class Trajectory:
    """A run's record; row s holds the state at time step t0 + s, taken
    before that step moves any traffic.

    u: junction inflow sums (Q/L over all incoming links), theta: signal
    phases, k: densities Q/L of the links in `links` (None: every link, in
    canonical order). The observables X1 = u cos^2(theta) and
    X2 = u sin^2(theta) are derived on read (observables).
    """
    t0: int
    u: np.ndarray      # (steps, n_junctions)
    theta: np.ndarray  # (steps, n_junctions)
    k: np.ndarray      # (steps, len(links) or n_links)
    links: np.ndarray | None = None

    @property
    def steps(self):
        return self.u.shape[0]

    def observables(self, rows=slice(None), junctions=slice(None)):
        """(X1, X2) at the given rows and junctions, each (rows, junctions)."""
        return reservoir_observables(self.u[rows, junctions],
                                     self.theta[rows, junctions])

    def density(self, link):
        """The stored density series of one link, (steps,)."""
        if self.links is None:
            return self.k[:, link]
        hit = np.flatnonzero(self.links == link)
        if hit.size == 0:
            raise ValueError(f"link {link} is not stored in this trajectory")
        return self.k[:, hit[0]]

    def write_csv(self, path, net):
        """One row per step: t, u_<j>.., x1_<j>.., x2_<j>.., k_<from>_<to>..

        Junction columns are ordered by junction id, link columns in
        canonical link order; floats are shortest round-trip reprs. Every
        link must be stored.
        """
        if self.links is not None:
            raise ValueError("write_csv needs every link's density")
        cols = ["t"]
        nj = net.n_junctions
        cols += [f"u_{j}" for j in range(nj)]
        cols += [f"x1_{j}" for j in range(nj)]
        cols += [f"x2_{j}" for j in range(nj)]
        cols += [f"k_{net.link_from[l]}_{net.link_to[l]}" for l in range(net.n_links)]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for s in range(self.steps):
                # one row at a time: no whole-run X1/X2 arrays stay alive
                x1, x2 = self.observables(s)
                row = [str(self.t0 + s)]
                row += [repr(float(v)) for v in self.u[s]]
                row += [repr(float(v)) for v in x1]
                row += [repr(float(v)) for v in x2]
                row += [repr(float(v)) for v in self.k[s]]
                fh.write(",".join(row) + "\n")


def init_density(net, total_vehicles, rng=None, how="random"):
    """Distribute total vehicle mass over links.

    how="uniform" splits evenly; how="random" draws one flat Dirichlet split.
    The total is conserved exactly up to float rounding.
    """
    if net.n_links == 0:
        raise ValueError("network has no links to load")
    total = float(total_vehicles)
    if not total > 0:
        raise ValueError("total_vehicles must be positive")
    if how == "uniform":
        return np.full(net.n_links, total / net.n_links)
    if how == "random":
        if rng is None:
            raise ValueError('init "random" requires an rng')
        return rng.dirichlet(np.ones(net.n_links)) * total
    raise ValueError(f"unknown init mode {how!r}")


class _UnionNet(NamedTuple):
    """The parts of a network that a step reads, for networks side by side."""
    n_links: int
    n_junctions: int
    link_to: np.ndarray
    length: np.ndarray
    link_axis_ns: np.ndarray


class _Reservoir:
    """A traffic model whose signal phases are read out through its traffic.

    A model defines step(go), which advances one reservoir step under the
    per-link go mask and returns the link densities it started from, and
    _joined(sims, net, table, bank, link_offsets), which builds a union's
    sim from the joined network, turn table and phases. Runs, unions and
    their split are shared.

    A sim holds one or more blocks (see union): independent networks, each
    with its own turn table, phases and traffic, stepped in one set of
    arrays. A sim built from one network is a single block.
    """

    def __init__(self, net, table, bank):
        if bank.n_junctions != net.n_junctions:
            raise ValueError("phase bank size does not match the network")
        if table.n_links != net.n_links:
            raise ValueError("turn table size does not match the network")
        self.net = net
        self.table = table
        self.bank = bank
        self.t = 0
        self._index_blocks([net.n_links], [net.n_junctions])

    def _index_blocks(self, links, junctions):
        """Block offsets from the per-block link and junction counts."""
        self._link_off = np.cumsum(np.r_[0, links])
        self._junction_off = np.cumsum(np.r_[0, junctions])

    @property
    def blocks(self):
        return self._link_off.size - 1

    @classmethod
    def union(cls, sims):
        """One sim that steps the blocks of `sims` side by side.

        Block ids run in the order of `sims`, and each block's link and
        junction ids follow those of the blocks before it, with its own turn
        table (ids offset) and phases (PhaseBank.concat). Every update is
        elementwise or a bincount scatter, which adds the entries of a bin
        in input order, so every block steps bit for bit as its own sim
        would. The sims must share their time; they are not advanced
        themselves.
        """
        first = sims[0]
        if any(s.t != first.t for s in sims):
            raise ValueError("union blocks must share their time")
        lo = np.cumsum([0] + [s.net.n_links for s in sims])
        jo = np.cumsum([0] + [s.net.n_junctions for s in sims])
        net = _UnionNet(
            int(lo[-1]), int(jo[-1]),
            np.concatenate([s.net.link_to + j for s, j in zip(sims, jo)]),
            np.concatenate([s.net.length for s in sims]),
            np.concatenate([s.net.link_axis_ns for s in sims]))
        table = TurnTable(
            np.concatenate([np.where(s.table.idx >= 0, s.table.idx + o, -1)
                            for s, o in zip(sims, lo)]),
            np.concatenate([s.table.wgt for s in sims]),
            np.concatenate([s.table.cnt for s in sims]))
        sim = cls._joined(sims, net, table,
                          PhaseBank.concat([s.bank for s in sims]), lo)
        sim.t = first.t
        sim._index_blocks(np.concatenate([np.diff(s._link_off) for s in sims]),
                          np.concatenate([np.diff(s._junction_off) for s in sims]))
        return sim

    def run(self, steps, inputs=None, links=None):
        """Run `steps` steps and record them; inputs[t] (if given) is
        injected at step t. links selects the stored density columns by
        block link id, the same links of every block (None: every link).

        The phases never see the traffic, so the whole run's phase schedule
        and gates are computed first; the loop only steps the model.
        """
        net = self.net
        t0 = self.t
        theta = self.bank.schedule(t0, steps, inputs)
        go = link_go(theta, self.bank.ns_stop_first, net)
        cols = slice(None) if links is None else (
            self._link_off[:-1, None] + np.asarray(links, dtype=np.int64)).ravel()
        u = np.empty((steps, net.n_junctions))
        k = np.empty((steps, net.length[cols].size))
        for s in range(steps):
            dens = self.step(go[s])
            k[s] = dens[cols]
            u[s] = np.bincount(net.link_to, weights=dens, minlength=net.n_junctions)
        return Trajectory(t0, u, theta, k, None if links is None else cols)

    def split(self, traj):
        """Per-block trajectories of a run of this sim, in block order.

        Each gets C-contiguous arrays of its own columns, laid out as those
        of the same run of the block's own sim.
        """
        jo, lo = self._junction_off, self._link_off
        out = []
        for b in range(self.blocks):
            js = slice(jo[b], jo[b + 1])
            if traj.links is None:
                ks, links = slice(lo[b], lo[b + 1]), None
            else:
                per = traj.links.size // self.blocks
                ks = slice(b * per, (b + 1) * per)
                links = traj.links[ks] - lo[b]
            out.append(Trajectory(
                traj.t0, np.ascontiguousarray(traj.u[:, js]),
                np.ascontiguousarray(traj.theta[:, js]),
                np.ascontiguousarray(traj.k[:, ks]), links))
        return out


class DensitySim(_Reservoir):
    """Steps the density model under signal control.

    Per step, each link whose axis shows go at its destination junction
    discharges o = min(Q/L, Q), split over that junction's outgoing links by
    the turn table; gated links hold their content. The system is closed, so
    the total content is invariant.
    """

    def __init__(self, net, table, bank, q0):
        super().__init__(net, table, bank)
        q0 = np.asarray(q0, dtype=float)
        if q0.shape != (net.n_links,):
            raise ValueError("q0 must hold one value per link")
        if np.any(q0 < 0) or not np.all(np.isfinite(q0)):
            raise ValueError("link contents must be finite and nonnegative")
        self.q = q0.copy()
        self._inv_len = 1.0 / net.length
        self._rate = np.minimum(self._inv_len, 1.0)  # outflow <= content
        # turn table flattened to one (src, to, wgt) entry per turn
        valid = table.idx >= 0
        self._src = np.repeat(np.arange(net.n_links), table.cnt)
        self._to = table.idx[valid]
        self._wgt = table.wgt[valid]

    @classmethod
    def _joined(cls, sims, net, table, bank, lo):
        return cls(net, table, bank, np.concatenate([s.q for s in sims]))

    def step(self, go):
        """Advance one step under the per-link gate go; returns the link
        densities Q/L taken before movement."""
        dens = self.q * self._inv_len
        self.q = kernels.density_step(self.q, self._rate, go, self._src,
                                      self._to, self._wgt)
        self.t += 1
        return dens
