"""Continuum free-flow density traffic model on the lattice."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .signals import link_go, reservoir_observables

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


class DensitySim:
    """Steps the density model under signal control.

    Per step, each link whose axis shows go at its destination junction
    discharges o = min(Q/L, Q), split over that junction's outgoing links by
    the turn table; gated links hold their content. The system is closed, so
    the total content is invariant. Runs record the state before movement.
    """

    def __init__(self, net, table, bank, q0):
        if bank.n_junctions != net.n_junctions:
            raise ValueError("phase bank size does not match the network")
        if table.n_links != net.n_links:
            raise ValueError("turn table size does not match the network")
        q0 = np.asarray(q0, dtype=float)
        if q0.shape != (net.n_links,):
            raise ValueError("q0 must hold one value per link")
        if np.any(q0 < 0) or not np.all(np.isfinite(q0)):
            raise ValueError("link contents must be finite and nonnegative")
        self.net = net
        self.table = table
        self.bank = bank
        self.q = q0.copy()
        self.t = 0
        self._inv_len = 1.0 / net.length
        self._rate = np.minimum(self._inv_len, 1.0)  # outflow <= content
        self._dst = net.link_to
        # turn table flattened to one (src, to, wgt) entry per turn
        valid = table.idx >= 0
        self._src = np.repeat(np.arange(net.n_links), table.cnt)
        self._to = table.idx[valid]
        self._wgt = table.wgt[valid]

    def step(self, go):
        """Advance one step under the per-link gate go; returns the junction
        inflows u taken before movement."""
        self.q, u = kernels.density_step(
            self.q, self._inv_len, self._rate, go, self._dst,
            self.net.n_junctions, self._src, self._to, self._wgt)
        self.t += 1
        return u

    def run(self, steps, inputs=None, links=None):
        """Run `steps` steps and record them; inputs[t] (if given) is
        injected at step t. links selects the stored density columns
        (None: every link).

        The phases never see the traffic, so the whole run's phase schedule
        and gates are computed first; the loop only runs the kernel.
        """
        t0 = self.t
        theta = self.bank.schedule(t0, steps, inputs)
        go = link_go(theta, self.bank.ns_stop_first, self.net)
        cols = slice(None) if links is None else np.asarray(links, dtype=np.int64)
        u = np.empty((steps, self.net.n_junctions))
        k = np.empty((steps, self._inv_len[cols].size))
        for s in range(steps):
            k[s] = self.q[cols]
            u[s] = self.step(go[s])
        k *= self._inv_len[cols]
        return Trajectory(t0, u, theta, k, None if links is None else cols)

    @property
    def total(self):
        return float(self.q.sum())
