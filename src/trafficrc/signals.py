"""Traffic-signal phase dynamics and the reservoir-unit observables."""

from __future__ import annotations

import numpy as np

__all__ = ["TWO_PI", "PhaseBank", "reservoir_observables", "link_go"]

TWO_PI = 2.0 * np.pi


class PhaseBank:
    """Per-junction signal phases theta with period tau and offset xi.

    theta(t) = xi + 2*pi*t/tau plus the accumulated input perturbations: the
    phase advances at the constant rate 2*pi/tau, so every signal switches
    once per half period.

    External input (when input weights are configured) adds win * u to the
    phase increment of the step it is supplied to. Phases are unbounded;
    reduce mod 2*pi on read. A PhaseBank is mutated only by its owning
    simulation loop; hand copies to anything else.
    """

    def __init__(self, tau, xi, win=None):
        xi = np.atleast_1d(np.asarray(xi, dtype=float)).copy()
        if xi.ndim != 1:
            raise ValueError("xi must be one-dimensional")
        tau = np.broadcast_to(np.asarray(tau, dtype=float), xi.shape).copy()
        if not np.all(np.isfinite(xi)):
            raise ValueError("xi must be finite")
        if not np.all(np.isfinite(tau) & (tau > 0)):
            raise ValueError("tau must be positive and finite")
        self.tau = tau
        self.xi = xi
        self.win = None
        if win is not None:
            self.win = np.broadcast_to(np.asarray(win, dtype=float), xi.shape).copy()
            if not np.all(np.isfinite(self.win)):
                raise ValueError("input weights must be finite")
        self.theta = xi.copy()
        self._input_acc = np.zeros_like(xi)

    @property
    def n_junctions(self):
        return self.xi.size

    def step(self, t, u_ext=None):
        """Advance from step t to t+1, optionally injecting external input."""
        if u_ext is not None:
            if self.win is None:
                raise ValueError("external input requires configured input weights")
            u_ext = float(u_ext)
            if not np.isfinite(u_ext):
                raise ValueError("external input must be finite")
            self._input_acc = self._input_acc + self.win * u_ext
        # closed form keeps the no-input phase exact for all t
        self.theta = self.xi + TWO_PI * (t + 1) / self.tau + self._input_acc
        return self

    def drive(self, t0, steps, inputs):
        """inputs[t0:t0+steps] as floats (None without inputs), after checking
        that this bank takes input and that the run's inputs are there and
        finite."""
        if inputs is None:
            return None
        if self.win is None:
            raise ValueError("external input requires configured input weights")
        if len(inputs) < t0 + steps:
            raise ValueError("inputs shorter than the requested run")
        inputs = np.asarray(inputs[t0:t0 + steps], dtype=float)
        if not np.all(np.isfinite(inputs)):
            raise ValueError("external input must be finite")
        return inputs

    def schedule(self, t0, steps, inputs=None):
        """Phases at the start of steps t0 .. t0+steps-1, shape (steps, n).

        Row 0 is the current theta. inputs[t], if given, is injected at step
        t. Leaves the bank where step(t, inputs[t]) for t = t0 .. t0+steps-1
        would, and every row equals the stepped phase bit for bit: the
        closed form plus a sequential cumsum of the input terms. So
        consecutive schedules of a run's pieces equal one schedule of the
        run. Bad input is refused before the bank changes.
        """
        inputs = self.drive(t0, steps, inputs)
        t = np.arange(t0, t0 + steps)[:, None]
        acc = self._input_acc
        if inputs is not None:
            # np.cumsum adds along an axis sequentially, as repeated stepping does
            acc = np.cumsum(
                np.concatenate([acc[None], self.win * inputs[:, None]]), axis=0)
            self._input_acc = acc[-1].copy()
            acc = acc[1:]
        rows = np.concatenate(
            [self.theta[None], self.xi + TWO_PI * (t + 1) / self.tau + acc])
        self.theta = rows[-1].copy()
        return rows[:-1]

    def copy(self):
        return self.take(slice(None))

    def take(self, junctions):
        """A bank of the given junctions (a slice or index array) of this
        one, in their current state."""
        out = PhaseBank(self.tau[junctions], self.xi[junctions],
                        win=None if self.win is None else self.win[junctions])
        out.theta = self.theta[junctions].copy()
        out._input_acc = self._input_acc[junctions].copy()
        return out

    @classmethod
    def concat(cls, banks):
        """One bank holding `banks` side by side, in their current state.

        Bank b's junctions follow those of banks 0..b-1 and keep their own
        tau, xi, input weights and phase. Every update is elementwise, so
        each slice steps exactly as its bank would. Either all banks have
        input weights or none.
        """
        first = banks[0]
        if any((b.win is None) != (first.win is None) for b in banks):
            raise ValueError("banks must share an input setting")

        def cat(name):
            return np.concatenate([getattr(b, name) for b in banks])

        out = cls(cat("tau"), cat("xi"),
                  win=None if first.win is None else cat("win"))
        out.theta = cat("theta")
        out._input_acc = cat("_input_acc")
        return out


def reservoir_observables(u, theta):
    """Reservoir readout pair X1 = u cos^2(theta), X2 = u sin^2(theta).

    Elementwise over arrays of any shape, e.g. (steps, junctions). Requires
    u >= 0; X1 + X2 recovers u up to a few ulp.
    """
    u = np.asarray(u, dtype=float)
    # (u * c) * c, as u * c * c associates, with one product array per
    # observable
    c = np.cos(theta)
    x1 = u * c
    x1 *= c
    del c
    s = np.sin(theta)
    x2 = u * s
    x2 *= s
    return x1, x2


def link_go(theta, net):
    """Per-link gate from junction phases theta (..., n_junctions): True
    where the link's axis shows go at its destination junction.

    In the first half period (0 <= mod(theta, 2*pi) < pi) the north-south
    axis stops and east-west goes; the rest of the period is reversed. A
    junction's offset xi sets where in the period it starts.
    """
    # one gather of the junctions' first-half state; NS links take its
    # complement
    return (np.mod(theta, TWO_PI) < np.pi)[..., net.link_to] ^ net.link_axis_ns
