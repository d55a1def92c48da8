"""Lattice construction, turn tables, and network serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trafficrc.lattice import (E, N, S, W, TurnTable, assign_turn_table,
                               build_lattice, save_network)


def enumerate_links_oracle(n):
    """Independent 4-neighbour enumeration in the canonical order."""
    links = []
    moves = {N: (0, 1), E: (1, 0), S: (0, -1), W: (-1, 0)}
    for j in range(n * n):
        x, y = j % n, j // n
        for d in (N, E, S, W):
            dx, dy = moves[d]
            if 0 <= x + dx < n and 0 <= y + dy < n:
                links.append((j, (y + dy) * n + (x + dx), d))
    return links


@pytest.mark.parametrize("n", range(1, 9))
def test_lattice_matches_enumeration_oracle(n):
    net = build_lattice(n)
    oracle = enumerate_links_oracle(n)
    assert net.n_links == 4 * n * (n - 1)
    assert len(oracle) == net.n_links
    got = list(zip(net.link_from, net.link_to, net.link_dir))
    assert [(int(a), int(b), int(d)) for a, b, d in got] == oracle
    assert all(a.dtype == np.int64
               for a in (net.link_from, net.link_to, net.link_dir))


@pytest.mark.parametrize("n", range(1, 7))
def test_link_index_matches_the_oracle_on_every_id_pair(n):
    # ids off the grid (a negative one would wrap in out_by_dir) and pairs
    # that are not neighbours are refused alike
    net = build_lattice(n)
    index = {(a, b): l for l, (a, b, _) in enumerate(enumerate_links_oracle(n))}
    for a in range(-2, n * n + 2):
        for b in range(-2, n * n + 2):
            if (a, b) in index:
                got = net.link_index(a, b)
                assert type(got) is int and got == index[(a, b)]
            else:
                with pytest.raises(ValueError, match=f"^no link {a} -> {b}$"):
                    net.link_index(a, b)


def test_junction_and_link_lookup():
    net = build_lattice(3)
    assert net.junction_id(0, 0) == 0
    assert net.junction_id(2, 0) == 2
    assert net.junction_id(0, 1) == 3
    center = net.junction_id(1, 1)
    east = net.junction_id(2, 1)
    l = net.link_index(center, east)
    assert net.link_from[l] == center and net.link_to[l] == east
    assert net.link_dir[l] == E
    with pytest.raises(ValueError):
        net.link_index(0, 8)
    with pytest.raises(ValueError):
        net.junction_id(3, 0)


def test_incoming_links_ride_their_travel_axis():
    net = build_lattice(3)
    j = net.junction_id(1, 1)
    ins = np.flatnonzero(net.link_to == j)
    # the centre junction has one incoming link from each side, two per axis
    assert sorted(net.link_dir[ins].tolist()) == [N, E, S, W]
    assert np.array_equal(net.link_axis_ns[ins],
                          np.isin(net.link_dir[ins], (N, S)))
    assert net.link_axis_ns[ins].sum() == 2
    # a northbound link rides the NS axis, an eastbound one the EW axis
    north = net.link_index(net.junction_id(1, 0), j)
    east = net.link_index(net.junction_id(0, 1), j)
    assert north in ins and east in ins
    assert net.link_axis_ns[north] and not net.link_axis_ns[east]


def test_link_length_variants():
    net = build_lattice(2, 2.5)
    assert np.all(net.length == 2.5)
    per_link = np.arange(1, 9, dtype=float)
    net = build_lattice(2, per_link)
    assert np.array_equal(net.length, per_link)


def test_build_errors():
    with pytest.raises(ValueError):
        build_lattice(0)
    with pytest.raises(ValueError):
        build_lattice(2, np.ones(5))
    with pytest.raises(ValueError):
        build_lattice(2, -1.0)
    with pytest.raises(ValueError, match="finite"):
        build_lattice(2, math.inf)


# --- turn tables -------------------------------------------------------------

def test_turn_rows_sum_to_one_and_target_outgoing_links():
    net = build_lattice(5)
    rng = np.random.default_rng(7)
    table = assign_turn_table(net, (0.2, 0.3, 0.5), rng)
    for l in range(net.n_links):
        ids, w = table.row(l)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0)
        outs = np.flatnonzero(net.link_from == net.link_to[l])
        assert set(ids.tolist()) <= set(outs.tolist())


def test_interior_row_is_permutation_of_weights_without_uturn():
    net = build_lattice(5)
    rng = np.random.default_rng(3)
    w = (0.2, 0.3, 0.5)
    table = assign_turn_table(net, w, rng)
    center = net.junction_id(2, 2)
    for l in np.flatnonzero(net.link_to == center):
        ids, vals = table.row(l)
        assert net.link_index(center, net.link_from[l]) not in ids
        assert sorted(vals) == pytest.approx(sorted(w), abs=1e-15)


def test_corner_inflow_gets_full_weight_on_single_exit():
    net = build_lattice(3)
    rng = np.random.default_rng(5)
    table = assign_turn_table(net, (0.2, 0.3, 0.5), rng)
    corner = net.junction_id(0, 0)
    for l in np.flatnonzero(net.link_to == corner):
        ids, vals = table.row(l)
        outs = np.flatnonzero(net.link_from == corner)
        uturn = net.link_index(corner, net.link_from[l])
        assert ids.tolist() == [i for i in outs.tolist() if i != uturn]
        assert vals.tolist() == [1.0]


def test_point_mass_weights_stay_point_mass():
    net = build_lattice(4)
    rng = np.random.default_rng(11)
    table = assign_turn_table(net, (0.0, 0.0, 1.0), rng)
    for l in range(net.n_links):
        ids, vals = table.row(l)
        # the unit weight lands on one exit, or splits equally when its slot
        # is missing and the remaining slots all carry zero
        if 1.0 in vals.tolist():
            assert vals.tolist().count(1.0) == 1
        else:
            assert vals == pytest.approx(np.full(vals.size, 1.0 / vals.size))


def test_identity_assignment_sends_mass_straight():
    net = build_lattice(3)
    table = assign_turn_table(net, (0.0, 0.0, 1.0), permute=False)
    west_edge = net.junction_id(0, 1)
    center = net.junction_id(1, 1)
    east_edge = net.junction_id(2, 1)
    l_in = net.link_index(west_edge, center)
    ids, vals = table.row(l_in)
    straight = net.link_index(center, east_edge)
    weights = dict(zip(ids.tolist(), vals.tolist()))
    assert weights[straight] == 1.0
    assert sum(weights.values()) == 1.0


def test_identity_assignment_splits_equally_when_straight_missing():
    net = build_lattice(3)
    table = assign_turn_table(net, (0.0, 0.0, 1.0), permute=False)
    center = net.junction_id(1, 1)
    east_edge = net.junction_id(2, 1)
    l_in = net.link_index(center, east_edge)  # eastbound into the east edge
    ids, vals = table.row(l_in)
    # no straight exit; right (south) and left (north) both exist with weight 0
    right = net.link_index(east_edge, net.junction_id(2, 0))
    left = net.link_index(east_edge, net.junction_id(2, 2))
    assert set(ids.tolist()) == {right, left}
    assert vals == pytest.approx([0.5, 0.5])


def test_dense_matrix_is_row_stochastic_and_matches_rows():
    net = build_lattice(4)
    rng = np.random.default_rng(13)
    table = assign_turn_table(net, (0.25, 0.25, 0.5), rng)
    m = table.matrix()
    assert m.shape == (net.n_links, net.n_links)
    assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)
    for l in (0, 5, net.n_links - 1):
        ids, vals = table.row(l)
        assert m[l, ids] == pytest.approx(vals)
        assert m[l].sum() == pytest.approx(vals.sum())


@pytest.mark.parametrize("n", [2, 3, 6])
def test_turn_table_is_one_entry_list_grouped_by_source(n):
    net = build_lattice(n)
    table = assign_turn_table(net, (0.2, 0.3, 0.5), np.random.default_rng(n))
    assert table.n_links == net.n_links
    assert np.all(np.diff(table.src) >= 0)
    assert np.array_equal(np.unique(table.src), np.arange(net.n_links))
    m = table.matrix()
    for l in range(net.n_links):
        hit = np.flatnonzero(table.src == l)
        ids, vals = table.row(l)
        assert np.array_equal(ids, table.to[hit])
        assert np.array_equal(vals, table.wgt[hit])
        assert abs(vals.sum() - 1.0) <= 1e-12
        want = np.zeros(net.n_links)
        want[ids] = vals
        assert np.array_equal(m[l], want)


def turn_table_oracle(net, w, rng=None, permute=True):
    """The per-link loop that assign_turn_table replaced with array
    operations: one rng.permutation(3) per link, in link order."""
    w = np.asarray(w, dtype=float)
    n_links = net.n_links
    idx = np.full((n_links, 3), -1, dtype=np.int64)
    wgt = np.zeros((n_links, 3))
    for l in range(n_links):
        j = net.link_to[l]
        d = net.link_dir[l]
        rel = ((d + 1) % 4, (d + 3) % 4, d)  # right, left, straight
        assigned = w[rng.permutation(3)] if permute else w
        targets = net.out_by_dir[j, rel]
        have = targets >= 0
        k = int(have.sum())
        present = assigned[have]
        s = float(present.sum())
        vals = present / s if s > 0 else np.full(k, 1.0 / k)
        vals = vals / vals.sum()
        idx[l, :k] = targets[have]
        wgt[l, :k] = vals
    have = idx >= 0
    return TurnTable(np.nonzero(have)[0], idx[have], wgt[have], n_links)


_weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))


# n = 40 (6240 links): one batched draw stands for thousands of per-link ones
@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([*range(1, 8), 40]),
       raw=st.lists(_weight, min_size=3, max_size=3)
       .filter(lambda v: sum(v) > 0), permute=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=40, raw=[0.2, 0.3, 0.5], permute=True, seed=12345)
def test_turn_table_matches_the_per_link_oracle(n, raw, permute, seed):
    net = build_lattice(n)
    w = np.asarray(raw) / sum(raw)
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = assign_turn_table(net, w, rng_got, permute)
    want = turn_table_oracle(net, w, rng_want, permute)
    for name in ("src", "to", "wgt"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    # the stream is left where the per-link draws leave it
    assert rng_got.random() == rng_want.random()


def test_turn_table_requires_rng_and_valid_weights():
    net = build_lattice(3)
    with pytest.raises(ValueError):
        assign_turn_table(net, (0.2, 0.3, 0.5))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        assign_turn_table(net, (0.5, 0.6, 0.2), rng)
    with pytest.raises(ValueError):
        assign_turn_table(net, (-0.1, 0.6, 0.5), rng)
    with pytest.raises(ValueError):
        assign_turn_table(net, (0.5, 0.5), rng)


# --- serialization -----------------------------------------------------------

def test_network_round_trip(tmp_path):
    lengths = np.linspace(1.0, 2.0, 24)
    net = build_lattice(3, lengths)
    path = tmp_path / "net.json"
    save_network(path, net)
    with open(path) as fh:
        data = json.load(fh)
    assert data["n"] == 3
    assert [(e["from"], e["to"]) for e in data["links"]] == list(
        zip(net.link_from.tolist(), net.link_to.tolist()))
    assert [e["length"] for e in data["links"]] == lengths.tolist()
    net2 = build_lattice(data["n"], [e["length"] for e in data["links"]])
    assert np.array_equal(net2.link_from, net.link_from)
    assert np.array_equal(net2.link_to, net.link_to)
    assert np.array_equal(net2.length, net.length)


def test_network_round_trip_without_table(tmp_path):
    net = build_lattice(2)
    path = tmp_path / "net.json"
    save_network(path, net)
    with open(path) as fh:
        data = json.load(fh)
    assert set(data) == {"n", "links"}
    assert [e["to"] for e in data["links"]] == net.link_to.tolist()


@pytest.mark.parametrize("n,lengths", [
    (1, 1.0),
    (2, 1.0),
    (5, 20.0),
    (3, [0.1, 1e-300, 1e300, 5e-324, 2.0 / 3.0, 1e16, 123456789.125, 3.0] * 3),
])
def test_network_json_is_the_json_dump_text(tmp_path, n, lengths):
    net = build_lattice(n, lengths)
    path = tmp_path / "net.json"
    save_network(path, net)
    data = {"n": n, "links": [
        {"from": int(net.link_from[l]), "to": int(net.link_to[l]),
         "length": float(net.length[l])} for l in range(net.n_links)]}
    ref = tmp_path / "ref.json"
    with open(ref, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    assert path.read_bytes() == ref.read_bytes()
