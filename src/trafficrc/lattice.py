"""Lattice road network: junctions, directed links, and turn tables."""

from __future__ import annotations

import numpy as np

__all__ = [
    "N", "E", "S", "W",
    "Network", "TurnTable",
    "build_lattice", "assign_turn_table",
    "save_network",
]

# Travel directions, clockwise from north; x grows east, y grows north.
N, E, S, W = 0, 1, 2, 3
DX = (0, 1, 0, -1)
DY = (1, 0, -1, 0)
_DIR_OF_STEP = {step: d for d, step in enumerate(zip(DX, DY))}

_WEIGHT_TOL = 1e-12


class Network:
    """Directed road lattice.

    Junctions are indexed row-major, ``j = y * n + x`` with x growing east and
    y growing north. Links are directed (two per physical road segment) and
    enumerated in canonical order: source junction ascending, outgoing
    direction in N, E, S, W order. Instances are immutable after construction
    and safe to share between concurrent simulations.
    """

    def __init__(self, n, link_from, link_to, link_dir, length):
        self.n = int(n)
        self.n_junctions = self.n * self.n
        self.link_from = link_from
        self.link_to = link_to
        self.link_dir = link_dir
        self.length = length
        self.n_links = int(link_from.size)
        # a link occupies the NS signal axis iff it travels north or south
        self.link_axis_ns = (link_dir == N) | (link_dir == S)
        self.out_by_dir = np.full((self.n_junctions, 4), -1, dtype=np.int64)
        self.out_by_dir[link_from, link_dir] = np.arange(self.n_links)

    def junction_id(self, x, y):
        """Row-major junction id for grid coordinates (x east, y north)."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"coordinates ({x}, {y}) outside {self.n}x{self.n} grid")
        return y * self.n + x

    def link_index(self, from_j, to_j):
        """Canonical index of the directed link from_j -> to_j."""
        f, t = int(from_j), int(to_j)
        # range-checked first: a negative id would wrap in out_by_dir
        if 0 <= f < self.n_junctions and 0 <= t < self.n_junctions:
            (fy, fx), (ty, tx) = divmod(f, self.n), divmod(t, self.n)
            d = _DIR_OF_STEP.get((tx - fx, ty - fy))
            if d is not None:
                return int(self.out_by_dir[f, d])
        raise ValueError(f"no link {from_j} -> {to_j}")


def build_lattice(n, link_length=1.0):
    """Build the n x n lattice with its 4n(n-1) directed links.

    link_length may be a positive scalar or a sequence of per-link lengths
    in canonical order.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)
    j = np.arange(n * n, dtype=np.int64)[:, None]
    # (junction, direction) pairs whose step stays on the grid; nonzero
    # yields them junction first, then direction: the canonical link order
    nx, ny = j % n + np.asarray(DX), j // n + np.asarray(DY)
    on = (nx >= 0) & (nx < n) & (ny >= 0) & (ny < n)
    link_from, link_dir = (a.astype(np.int64) for a in np.nonzero(on))
    link_to = ny[on] * n + nx[on]
    n_links = link_from.size

    if np.isscalar(link_length):
        length = np.full(n_links, float(link_length))
    else:
        length = np.asarray(link_length, dtype=float)
        if length.shape != (n_links,):
            raise ValueError(
                f"link_length sequence must have length {n_links}, got {length.shape}")
        length = length.copy()
    if n_links and not np.all((length > 0) & np.isfinite(length)):
        raise ValueError("link lengths must be positive and finite")
    return Network(n, link_from, link_to, link_dir, length)


class TurnTable:
    """Split weights from each incoming link onto outgoing links.

    One entry per turn: traffic leaving link src[e] at its destination
    junction goes on to link to[e] with weight wgt[e]. Entries are grouped
    by src ascending, and each link's weights sum to 1.
    """

    def __init__(self, src, to, wgt, n_links):
        self.src = src
        self.to = to
        self.wgt = wgt
        self.n_links = int(n_links)
        self.start = src.searchsorted(np.arange(self.n_links + 1))

    def row(self, link):
        """(outgoing link ids, weights) of one incoming link."""
        rows = slice(self.start[link], self.start[link + 1])
        return self.to[rows], self.wgt[rows]

    def matrix(self):
        """Dense redistribution matrix M with M[src, dst] = split weight."""
        m = np.zeros((self.n_links, self.n_links))
        m[self.src, self.to] = self.wgt
        return m


def assign_turn_table(net, w, rng=None, permute=True):
    """Assign (right, left, straight) weights to every incoming link.

    w = (w_r, w_l, w_s) must be nonnegative and sum to 1. With permute=True
    (the default) each incoming link receives a random permutation of the
    three weights onto its (right, left, straight) outgoing links; with
    permute=False the identity assignment is used. The reverse link (U-turn)
    gets weight 0 whenever any other outgoing link exists; weights of missing
    boundary directions are redistributed proportionally over the remaining
    non-reverse links (equally, when those all carry weight 0). Each link's
    entries keep the (right, left, straight) order of the exits it has.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (3,):
        raise ValueError("turn weights must be a 3-vector (right, left, straight)")
    if np.any(w < 0) or abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
        raise ValueError("turn weights must be nonnegative and sum to 1")
    if permute and rng is None:
        raise ValueError("permute=True requires an rng")

    d = net.link_dir
    rel = np.stack([(d + 1) % 4, (d + 3) % 4, d], axis=1)  # right, left, straight
    targets = net.out_by_dir[net.link_to[:, None], rel]
    have = targets >= 0
    # one shuffle per row, rows in link order: the draws of rng.permutation(3)
    # called once per link, as the STREAM_TURNS stream expects
    perm = (rng.permuted(np.tile(np.arange(3), (net.n_links, 1)), axis=1)
            if permute else np.arange(3))
    # missing exits carry 0.0: adding it is exact, so each left-to-right sum
    # equals that of the present exits alone
    present = np.where(have, w[perm], 0.0)
    s = (present[:, 0] + present[:, 1]) + present[:, 2]
    even = have / have.sum(axis=1, keepdims=True)  # 1/k on each present exit
    safe = np.where(s > 0, s, 1.0)[:, None]
    vals = np.where((s > 0)[:, None], present / safe, even)
    vals = vals / ((vals[:, 0] + vals[:, 1]) + vals[:, 2])[:, None]
    return TurnTable(np.nonzero(have)[0], targets[have], vals[have], net.n_links)


# one link of network.json, as json.dump(..., indent=1) lays it out
_LINK_JSON = '  {\n   "from": %d,\n   "to": %d,\n   "length": %r\n  }'


def save_network(path, net):
    """Write the network as JSON.

    Schema: {"n": int, "links": [{"from", "to", "length"}]}, links in
    canonical order. The text is that of json.dump(data, fh, indent=1) and a
    newline, written through one template: "%d" of a Python int is its str
    and "%r" of a finite Python float its repr, as json writes them.
    """
    cells = [v for link in zip(net.link_from.tolist(), net.link_to.tolist(),
                               net.length.tolist()) for v in link]
    links = ",\n".join([_LINK_JSON] * net.n_links) % tuple(cells)
    with open(path, "w") as fh:
        fh.write('{\n "n": %d,\n "links": %s\n}\n'
                 % (net.n, f"[\n{links}\n ]" if links else "[]"))
