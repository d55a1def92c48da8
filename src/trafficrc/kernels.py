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

def agents_substep(xs, vs, end, extra, same, lead, red_lead, a, vhalf, c, w,
                   tanh_c, dt, d_min):
    """One Euler substep over sorted agent arrays, in place.

    Agents are sorted by (link, position ascending), so each link's leader
    ends its segment. end[i] is the length of agent i's link, same[i] says
    agents i and i+1 share a link, lead marks the segment leaders and
    red_lead those of them facing a red light. extra[i] holds the gap beyond
    the stop line that a green leader may use (rear of its next link, or the
    horizon).

    Velocities relax toward the optimal velocity of the headway, positions
    advance, red leaders stop at the line, and each follower is clamped to
    d_min behind the agent ahead, back to front.
    """
    n = xs.shape[0]
    if n == 0:
        return
    h = np.empty(n)
    h[:-1] = xs[1:] - xs[:-1]
    h[lead] = end[lead] - xs[lead] + extra[lead]
    np.maximum(h, 0.0, out=h)
    vopt = vhalf * (np.tanh((h - c) / w) + tanh_c)
    np.maximum(vs + a * (vopt - vs) * dt, 0.0, out=vs)
    xs += vs * dt
    over = red_lead & (xs > end)
    if over.any():
        xs[over] = end[over]
        vs[over] = 0.0
    viol = same & (xs[:-1] > xs[1:] - d_min)
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
