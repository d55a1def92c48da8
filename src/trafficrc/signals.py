"""Traffic-signal phase dynamics and the reservoir-unit observables."""

from __future__ import annotations

import numpy as np

__all__ = [
    "TWO_PI", "MODE_CONSTANT_RATE", "MODE_LITERAL",
    "PhaseBank", "signal_state", "reservoir_observables",
    "link_go",
]

TWO_PI = 2.0 * np.pi

MODE_CONSTANT_RATE = "constant-rate"
MODE_LITERAL = "literal"
_MODES = (MODE_CONSTANT_RATE, MODE_LITERAL)


class PhaseBank:
    """Per-junction signal phases theta with period tau and offset xi.

    Modes:
      constant-rate  theta(t) = xi + 2*pi*t/tau plus accumulated input
                     perturbations; the rate 2*pi/tau is constant in t.
      literal        the increment from step t to t+1 is 2*pi*t/tau + xi,
                     a chirp whose step grows with t; theta(0) = 0.

    External input (when input weights are configured) adds win * u to the
    phase increment of the step it is supplied to. Phases are unbounded;
    reduce mod 2*pi on read. A PhaseBank is mutated only by its owning
    simulation loop; hand copies to anything else.
    """

    def __init__(self, tau, xi, mode=MODE_CONSTANT_RATE, win=None,
                 ns_stop_first=True):
        xi = np.atleast_1d(np.asarray(xi, dtype=float)).copy()
        if xi.ndim != 1:
            raise ValueError("xi must be one-dimensional")
        tau = np.broadcast_to(np.asarray(tau, dtype=float), xi.shape).copy()
        if np.any(tau <= 0):
            raise ValueError("tau must be positive")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        self.tau = tau
        self.xi = xi
        self.mode = mode
        self.win = None
        if win is not None:
            self.win = np.broadcast_to(np.asarray(win, dtype=float), xi.shape).copy()
        self.ns_stop_first = np.broadcast_to(
            np.asarray(ns_stop_first, dtype=bool), xi.shape).copy()
        self.theta = xi.copy() if mode == MODE_CONSTANT_RATE else np.zeros_like(xi)
        self._input_acc = np.zeros_like(xi)

    @property
    def n_junctions(self):
        return self.xi.size

    @classmethod
    def random(cls, n_junctions, rng, tau=100.0, mode=MODE_CONSTANT_RATE,
               sigma_in=None, ns_stop_first=True):
        """Random offsets xi ~ U[0, 2*pi); optional win ~ U[-sigma_in, sigma_in]."""
        xi = rng.uniform(0.0, TWO_PI, n_junctions)
        win = None
        if sigma_in is not None:
            win = rng.uniform(-float(sigma_in), float(sigma_in), n_junctions)
        return cls(tau, xi, mode=mode, win=win, ns_stop_first=ns_stop_first)

    def step(self, t, u_ext=None):
        """Advance from step t to t+1, optionally injecting external input."""
        if u_ext is not None:
            if self.win is None:
                raise ValueError("external input requires configured input weights")
            u_ext = float(u_ext)
            if not np.isfinite(u_ext):
                raise ValueError("external input must be finite")
        if self.mode == MODE_CONSTANT_RATE:
            if u_ext is not None:
                self._input_acc = self._input_acc + self.win * u_ext
            # closed form keeps the no-input phase exact for all t
            self.theta = self.xi + TWO_PI * (t + 1) / self.tau + self._input_acc
        else:
            inc = TWO_PI * t / self.tau + self.xi
            if u_ext is not None:
                inc = inc + self.win * u_ext
            self.theta = self.theta + inc
        return self

    def copy(self):
        return PhaseBank.concat([self])

    @classmethod
    def concat(cls, banks):
        """One bank holding `banks` side by side, in their current state.

        Bank b's junctions follow those of banks 0..b-1 and keep their own
        tau, xi, input weights, stop convention and phase. Every update is
        elementwise, so each slice steps exactly as its bank would. The banks
        must share a mode and either all have input weights or none.
        """
        first = banks[0]
        if any(b.mode != first.mode or (b.win is None) != (first.win is None)
               for b in banks):
            raise ValueError("banks must share a mode and an input setting")

        def cat(name):
            return np.concatenate([getattr(b, name) for b in banks])

        out = cls(cat("tau"), cat("xi"), mode=first.mode,
                  win=None if first.win is None else cat("win"),
                  ns_stop_first=cat("ns_stop_first"))
        out.theta = cat("theta")
        out._input_acc = cat("_input_acc")
        return out


def signal_state(theta, ns_stop_first=True):
    """Go/stop state per junction from phase theta.

    In the first half period (0 <= mod(theta, 2*pi) < pi) the north-south
    axis stops and east-west goes; the rest of the period is reversed.
    ns_stop_first=False swaps the convention. Returns (ns_go, ew_go) booleans.
    """
    ns_go = _ns_go(theta, np.asarray(ns_stop_first, dtype=bool))
    return ns_go, ~ns_go


def _ns_go(theta, ns_stop_first):
    return (np.mod(theta, TWO_PI) < np.pi) ^ ns_stop_first


def reservoir_observables(u, theta):
    """Reservoir readout pair X1 = u cos^2(theta), X2 = u sin^2(theta).

    Requires u >= 0; X1 + X2 recovers u up to a few ulp.
    """
    u = np.asarray(u, dtype=float)
    c = np.cos(theta)
    s = np.sin(theta)
    return u * c * c, u * s * s


def link_go(bank, net):
    """Per-link gate: True where the link's axis shows go at its destination."""
    # one gather of the junctions' NS state; EW links take its complement
    return _ns_go(bank.theta, bank.ns_stop_first)[net.link_to] ^ ~net.link_axis_ns
