"""Hot simulation kernels.

The density step is a single numpy implementation whose cost is linear in
the number of links. The agents substep has a numba-jitted loop and a
vectorized numpy fallback: the jitted path runs when numba imports and
TRAFFICRC_NO_NUMBA is unset or "0". Both agents paths apply the same update
rules (see benchmarks/bench_kernels.py for the agreement and timing
comparison); each is bit-deterministic on its own.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "ENV_FLAG", "HAVE_NUMBA", "USE_NUMBA", "backend",
    "density_step", "agents_substep",
]

ENV_FLAG = "TRAFFICRC_NO_NUMBA"


def _flag_disabled():
    return os.environ.get(ENV_FLAG, "").strip() not in ("", "0")


try:
    from numba import njit as _njit
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and not _flag_disabled()


def backend():
    """Name of the active kernel backend: "numba" or "numpy"."""
    return "numba" if USE_NUMBA else "numpy"


# --- density model ---------------------------------------------------------

def density_step(q, inv_len, rate, go, dst, n_junctions, src, to, wgt):
    """One gated movement step. Returns (new link contents, junction inflows).

    u is the junction inflow sum Q/L over ALL incoming links, gated or not,
    taken before any mass moves. Each go link discharges o = rate * Q; the
    flattened turn table (src, to, wgt) sends o[src[i]] * wgt[i] to link
    to[i], so the cost is linear in the number of links.
    """
    u = np.bincount(dst, weights=q * inv_len, minlength=n_junctions)
    o = np.where(go, q * rate, 0.0)
    return q - o + np.bincount(to, weights=o[src] * wgt, minlength=q.size), u


# --- multi-agent model -----------------------------------------------------

def _agents_substep_loops(xs, vs, ls, extra, link_len, red, a, vhalf, c, w,
                          tanh_c, dt, d_min):
    # Agents arrive sorted by (link, position ascending); segment leaders sit
    # at segment ends. extra[i] holds the gap beyond the stop line that a
    # green leader may use (rear of its next link, or the horizon).
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


def agents_substep_numpy(xs, vs, ls, extra, link_len, red, a, vhalf, c, w,
                         tanh_c, dt, d_min):
    n = xs.shape[0]
    if n == 0:
        return
    lead = np.empty(n, dtype=bool)
    lead[-1] = True
    same = ls[:-1] == ls[1:]
    lead[:-1] = ~same
    h = np.empty(n)
    h[:-1] = xs[1:] - xs[:-1]
    h[lead] = link_len[ls[lead]] - xs[lead] + extra[lead]
    np.maximum(h, 0.0, out=h)
    vopt = vhalf * (np.tanh((h - c) / w) + tanh_c)
    np.maximum(vs + a * (vopt - vs) * dt, 0.0, out=vs)
    xs += vs * dt
    over = lead & red[ls] & (xs > link_len[ls])
    if over.any():
        xs[over] = link_len[ls[over]]
        vs[over] = 0.0
    # follower chain: iterate the parallel clamp to its (unique) fixpoint,
    # which matches the sequential back-to-front scan bit for bit
    front = xs[1:]
    back = xs[:-1]
    while True:
        cap = front - d_min
        viol = same & (back > cap)
        if not viol.any():
            break
        np.minimum(back, cap, out=back, where=viol)


if HAVE_NUMBA:
    _agents_substep_jit = _njit(cache=True)(_agents_substep_loops)


def agents_substep(xs, vs, ls, extra, link_len, red, a, vhalf, c, w, tanh_c,
                   dt, d_min):
    """One Euler substep over sorted agent arrays, in place."""
    if USE_NUMBA:
        _agents_substep_jit(xs, vs, ls, extra, link_len, red, a, vhalf, c, w,
                            tanh_c, dt, d_min)
    else:
        agents_substep_numpy(xs, vs, ls, extra, link_len, red, a, vhalf, c, w,
                             tanh_c, dt, d_min)
