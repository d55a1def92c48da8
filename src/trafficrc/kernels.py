"""Hot simulation kernels.

Each kernel has one numpy implementation whose cost is linear in its input:
the density step in the number of links, the agents substep in the number
of agents. Outputs are bit-deterministic for a given numpy build.
"""

from __future__ import annotations

import numpy as np

__all__ = ["backend", "density_step", "agents_substep"]


def backend():
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


# --- density model ---------------------------------------------------------

def density_step(q, rate, go, src, to, wgt):
    """One gated movement step; returns the new link contents.

    Each go link discharges o = rate * Q; the flattened turn table
    (src, to, wgt) sends o[src[i]] * wgt[i] to link to[i], so the cost is
    linear in the number of links.
    """
    o = np.where(go, q * rate, 0.0)
    return q - o + np.bincount(to, weights=o[src] * wgt, minlength=q.size)


# --- multi-agent model -----------------------------------------------------

def agents_substep(xs, vs, h, same, lead, end, extra, n_red, a, vhalf, c, w,
                   tanh_c, dt, d_min):
    """One Euler substep over sorted agent arrays, in place.

    Agents are sorted by (link, position ascending), so each link's leader
    ends its segment. same[i] says agents i and i+1 share a link. lead holds
    the leaders' indices, the n_red that face a red light first; end holds
    the lengths of their links and extra the gap beyond the stop line that
    each may use (for a green leader the rear of its next link, or the
    horizon). h is scratch space of one float per agent.

    Velocities relax toward the optimal velocity of the headway, positions
    advance, red leaders stop at the line, and each follower is clamped to
    d_min behind the agent ahead, back to front. The arithmetic runs in h
    and in place, one float operation at a time in the order of the
    expressions it stands for.
    """
    n = xs.shape[0]
    if n == 0:
        return
    # the headway h, then vopt = vhalf * (tanh((h - c) / w) + tanh_c), then
    # the relaxed velocity max(vs + a * (vopt - vs) * dt, 0)
    np.subtract(xs[1:], xs[:-1], out=h[:-1])
    h[lead] = end - xs.take(lead) + extra
    np.maximum(h, 0.0, out=h)
    h -= c
    h /= w
    np.tanh(h, out=h)
    h += tanh_c
    h *= vhalf
    h -= vs
    h *= a
    h *= dt
    vs += h
    np.maximum(vs, 0.0, out=vs)
    np.multiply(vs, dt, out=h)
    xs += h
    if n_red:
        red, red_end = lead[:n_red], end[:n_red]
        over = xs.take(red) > red_end
        if over.any():
            stop = red[over]
            xs[stop] = red_end[over]
            vs[stop] = 0.0
    viol = xs[:-1] > np.subtract(xs[1:], d_min, out=h[:-1])
    viol &= same
    if viol.any():
        _clamp_followers(xs, same, np.flatnonzero(viol), d_min)


def _clamp_followers(xs, same, viol, d_min):
    """The sequential back-to-front clamp xs[i] = min(xs[i], xs[i+1] - d_min),
    walked only from the violating followers.

    Above the highest violator nothing moves, so the walk starts there and
    runs down the chain while the clamp bites. Where it stops, the position
    is unchanged and the next walk starts at the next violator below; the
    float operations are those of the full scan, in the same order.
    """
    stop = xs.shape[0]
    for i in viol[::-1].tolist():
        if i >= stop:
            continue                # already clamped by the walk above
        ahead = float(xs[i + 1])
        j = i
        while j >= 0 and same[j]:
            cap = ahead - d_min
            if not xs[j] > cap:
                break
            xs[j] = ahead = cap
            j -= 1
        stop = j
