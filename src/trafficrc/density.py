"""Continuum free-flow density traffic model on the lattice."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .signals import link_go, reservoir_observables

__all__ = [
    "ReservoirSnapshot", "Trajectory",
    "init_density", "DensitySim",
]


@dataclass
class ReservoirSnapshot:
    """State of the reservoir drive at one time step.

    u: junction inflow sums (Q/L over all incoming links),
    x1/x2: phase observables u cos^2(theta) and u sin^2(theta),
    k: per-link densities Q/L.
    """
    t: int
    u: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    k: np.ndarray


@dataclass
class Trajectory:
    """Stacked snapshots; row s holds the state at time step t0 + s."""
    t0: int
    u: np.ndarray    # (steps, n_junctions)
    x1: np.ndarray
    x2: np.ndarray
    k: np.ndarray    # (steps, n_links)

    @property
    def steps(self):
        return self.u.shape[0]

    def write_csv(self, path, net):
        """One row per step: t, u_<j>.., x1_<j>.., x2_<j>.., k_<from>_<to>..

        Junction columns are ordered by junction id, link columns in
        canonical link order; floats are shortest round-trip reprs.
        """
        cols = ["t"]
        nj = net.n_junctions
        cols += [f"u_{j}" for j in range(nj)]
        cols += [f"x1_{j}" for j in range(nj)]
        cols += [f"x2_{j}" for j in range(nj)]
        cols += [f"k_{net.link_from[l]}_{net.link_to[l]}" for l in range(net.n_links)]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for s in range(self.steps):
                row = [str(self.t0 + s)]
                row += [repr(float(v)) for v in self.u[s]]
                row += [repr(float(v)) for v in self.x1[s]]
                row += [repr(float(v)) for v in self.x2[s]]
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


def _run_trajectory(sim, steps, inputs):
    """Shared run loop: collect `steps` snapshots from any sim with .step()."""
    if inputs is not None and len(inputs) < sim.t + steps:
        raise ValueError("inputs shorter than the requested run")
    nj = sim.net.n_junctions
    nl = sim.net.n_links
    t0 = sim.t
    u = np.empty((steps, nj))
    x1 = np.empty((steps, nj))
    x2 = np.empty((steps, nj))
    k = np.empty((steps, nl))
    for s in range(steps):
        snap = sim.step(None if inputs is None else inputs[sim.t])
        u[s] = snap.u
        x1[s] = snap.x1
        x2[s] = snap.x2
        k[s] = snap.k
    return Trajectory(t0, u, x1, x2, k)


class DensitySim:
    """Steps the density model under signal control.

    Per step, each link whose axis shows go at its destination junction
    discharges o = min(Q/L, Q), split over that junction's outgoing links by
    the turn table; gated links hold their content. The system is closed, so
    the total content is invariant. Snapshots are taken before movement.
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

    def step(self, u_ext=None):
        """Advance one step; returns the pre-movement snapshot."""
        go = link_go(self.bank, self.net)
        q_new, u = kernels.density_step(
            self.q, self._inv_len, self._rate, go, self._dst,
            self.net.n_junctions, self._src, self._to, self._wgt)
        x1, x2 = reservoir_observables(u, self.bank.theta)
        snap = ReservoirSnapshot(self.t, u, x1, x2, self.q * self._inv_len)
        self.q = q_new
        self.bank.step(self.t, u_ext)
        self.t += 1
        return snap

    def run(self, steps, inputs=None):
        """Collect `steps` snapshots; inputs[t] (if given) is injected at step t."""
        return _run_trajectory(self, steps, inputs)

    @property
    def total(self):
        return float(self.q.sum())
