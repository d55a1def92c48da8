"""Continuum free-flow density traffic model on the lattice, and the
reservoir core that both traffic models share."""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import sys
import traceback
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

    u: junction inflow sums (Q/L over all incoming links), k: densities Q/L
    of the links in `links` (None: every link, in canonical order). bank is
    a copy of the phases at t0 and inputs the run's external input (None:
    none), from which the signal phases theta are derived on read, as are
    the observables X1 = u cos^2(theta) and X2 = u sin^2(theta).
    """
    t0: int
    u: np.ndarray      # (steps, n_junctions)
    k: np.ndarray      # (steps, len(links) or n_links)
    bank: PhaseBank
    links: np.ndarray | None = None
    inputs: np.ndarray | None = None

    @property
    def steps(self):
        return self.u.shape[0]

    @property
    def theta(self):
        """The signal phases of every row, (steps, n_junctions): the run's
        schedule, bit for bit."""
        return self.bank.copy().schedule(self.t0, self.steps, self.inputs)

    def observables(self, rows=slice(None)):
        """(X1, X2) at the given rows, each (rows, n_junctions)."""
        return reservoir_observables(self.u[rows], self.theta[rows])

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

        Formatting the floats is nearly all of the time, so where the host
        can fork and this process may run on two CPUs, a child process
        formats the second half of the rows into <path>.part while this
        process formats the first half; the part is then appended. Both
        halves use one row formatter, so the file has the same bytes either
        way. A failed write leaves no file at path.
        """
        if self.links is not None:
            raise ValueError("write_csv needs every link's density")
        cols = ["t"]
        nj = net.n_junctions
        cols += [f"u_{j}" for j in range(nj)]
        cols += [f"x1_{j}" for j in range(nj)]
        cols += [f"x2_{j}" for j in range(nj)]
        cols += [f"k_{net.link_from[l]}_{net.link_to[l]}" for l in range(net.n_links)]
        steps = self.steps
        theta = self.theta
        two_cpus = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                    and len(os.sched_getaffinity(0)) >= 2)
        split = steps // 2 if two_cpus else steps
        part = os.fspath(path) + ".part"
        # fork before the output file is open, so the child inherits no
        # buffer of it; the child runs only the row formatter, which calls
        # no BLAS, so the BLAS threads that a fork leaves behind are not
        # missed
        child = os.fork() if split < steps else None
        if child == 0:
            _child_write(self, theta, part, split, steps)
        opened = False
        try:
            with open(path, "w") as fh:
                opened = True
                fh.write(",".join(cols) + "\n")
                self._write_rows(fh, theta, 0, split)
                if child is not None:
                    status = os.waitpid(child, 0)[1]
                    child = None
                    code = os.waitstatus_to_exitcode(status)
                    if code != 0:
                        raise OSError(
                            f"trajectory writer child exited with status {code}")
                    fh.flush()
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, fh.buffer, 1 << 16)
        except BaseException:
            if opened:
                # leave no partial file behind
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            raise
        finally:
            if child is not None:
                # this process failed before reaping the child
                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
            if split < steps:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(part)

    def _write_rows(self, fh, theta, start, stop):
        """Write rows start..stop-1, whose phases are theta; tolist() yields
        Python floats, whose repr is the shortest round trip."""
        for s in range(start, stop):
            # one row, and within it one array, at a time: no whole-run X1/X2
            # arrays and no whole-row lists stay alive
            x1, x2 = reservoir_observables(self.u[s], theta[s])
            fh.write(str(self.t0 + s))
            for vals in (self.u[s], x1, x2, self.k[s]):
                # the leading "" puts a comma before each value, none if empty
                fh.write(",".join(["", *map(repr, vals.tolist())]))
            fh.write("\n")


def _child_write(traj, theta, path, start, stop):
    """In a forked child: write rows start..stop-1 of traj to path, then
    leave without running the parent's exit handlers or flushing its
    inherited buffers. Exits 1, after printing the traceback, on failure."""
    code = 1
    try:
        with open(path, "w") as fh:
            traj._write_rows(fh, theta, start, stop)
        code = 0
    except Exception:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def init_density(net, total_vehicles, rng):
    """Distribute total vehicle mass over links by one flat Dirichlet split.

    The total is conserved exactly up to float rounding.
    """
    if net.n_links == 0:
        raise ValueError("network has no links to load")
    total = float(total_vehicles)
    if not total > 0:
        raise ValueError("total_vehicles must be positive")
    return rng.dirichlet(np.ones(net.n_links)) * total


# bytes of step densities that _Reservoir.run buffers between two recordings;
# the rows they hold are also the rows whose phases and gates it computes at
# a time
_RECORD_BYTES = 1 << 18


class _UnionNet(NamedTuple):
    """The parts of a network that a step reads, for the blocks of one
    lattice side by side."""
    n_links: int
    n_junctions: int
    link_to: np.ndarray
    length: np.ndarray
    link_axis_ns: np.ndarray


class _Reservoir:
    """A traffic model whose signal phases are read out through its traffic.

    A model defines step(go), which advances one reservoir step under the
    per-link go mask and returns the link densities it started from. Runs
    and their split are shared.

    A sim holds K = len(tables) blocks of one lattice net side by side: block
    b's link and junction ids follow those of blocks 0..b-1, with its own turn
    table (ids offset), phases (PhaseBank.concat) and traffic, all stepped in
    one set of arrays. Every update is elementwise or a bincount scatter,
    which adds the entries of a bin in input order, so every block steps bit
    for bit as a sim of that block alone would.
    """

    def __init__(self, net, tables, banks):
        if len(banks) != len(tables):
            raise ValueError("a sim needs one phase bank per turn table")
        for table, bank in zip(tables, banks):
            if bank.n_junctions != net.n_junctions:
                raise ValueError("phase bank size does not match the network")
            if table.n_links != net.n_links:
                raise ValueError("turn table size does not match the network")
        self.blocks = k = len(tables)
        nl, nj = net.n_links, net.n_junctions
        self._link_off = nl * np.arange(k + 1)
        self._junction_off = nj * np.arange(k + 1)
        self.net = _UnionNet(
            k * nl, k * nj,
            (net.link_to + self._junction_off[:-1, None]).ravel(),
            np.tile(net.length, k), np.tile(net.link_axis_ns, k))
        self.table = TurnTable(
            np.concatenate([t.src + o for t, o in zip(tables, self._link_off)]),
            np.concatenate([t.to + o for t, o in zip(tables, self._link_off)]),
            np.concatenate([t.wgt for t in tables]), k * nl)
        self.bank = PhaseBank.concat(banks)
        self.t = 0

    def run(self, steps, inputs=None, links=None):
        """Run `steps` steps and record them; inputs[t] (if given) is
        injected at step t. links selects the stored density columns by
        block link id, the same links of every block (None: every link).

        The phases never see the traffic, so the phase schedule and gates
        of each record block (see _RECORD_BYTES) are computed just before
        its steps, and the trajectory keeps the phases at t0 and the inputs,
        not the schedule. Bad input is refused before the first step.
        """
        net = self.net
        t0 = self.t
        self.bank.drive(t0, steps, inputs)
        bank = self.bank.copy()
        cols = slice(None) if links is None else (
            self._link_off[:-1, None] + np.asarray(links, dtype=np.int64)).ravel()
        nl, nj = net.n_links, net.n_junctions
        u = np.empty((steps, nj))
        k = np.empty((steps, net.length[cols].size))
        # the steps' densities are recorded a block of rows at a time: one
        # gather fills k, and one bincount over per-row junction bins fills
        # u, each bin adding the same densities in the same order as a
        # bincount of its own row would
        rows = max(1, min(steps, _RECORD_BYTES // (8 * max(nl, 1))))
        dens = np.empty((rows, nl))
        bins = (np.arange(rows)[:, None] * nj + net.link_to).ravel()
        for start in range(0, steps, rows):
            stop = min(start + rows, steps)
            r = stop - start
            go = link_go(self.bank.schedule(t0 + start, r, inputs), net)
            for s in range(r):
                dens[s] = self.step(go[s])
            k[start:stop] = dens[:r, cols]
            u[start:stop] = np.bincount(
                bins[:r * nl], weights=dens[:r].ravel(),
                minlength=r * nj).reshape(r, nj)
        return Trajectory(t0, u, k, bank, None if links is None else cols,
                          inputs)

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
                np.ascontiguousarray(traj.k[:, ks]), traj.bank.take(js),
                links, traj.inputs))
        return out


class DensitySim(_Reservoir):
    """Steps the density model under signal control.

    Per step, each link whose axis shows go at its destination junction
    discharges o = min(Q/L, Q), split over that junction's outgoing links by
    the turn table; gated links hold their content. The system is closed, so
    the total content is invariant. q0s holds each block's link contents.
    """

    def __init__(self, net, tables, banks, q0s):
        super().__init__(net, tables, banks)
        q0s = [np.asarray(q0, dtype=float) for q0 in q0s]
        if len(q0s) != self.blocks or any(q0.shape != (net.n_links,)
                                          for q0 in q0s):
            raise ValueError("q0 must hold one value per link, in each block")
        q = np.concatenate(q0s)
        if np.any(q < 0) or not np.all(np.isfinite(q)):
            raise ValueError("link contents must be finite and nonnegative")
        self.q = q
        self._inv_len = 1.0 / self.net.length
        self._rate = np.minimum(self._inv_len, 1.0)  # outflow <= content

    def step(self, go):
        """Advance one step under the per-link gate go; returns the link
        densities Q/L taken before movement."""
        dens = self.q * self._inv_len
        t = self.table
        self.q = kernels.density_step(self.q, self._rate, go, t.src, t.to, t.wgt)
        self.t += 1
        return dens
