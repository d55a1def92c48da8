"""Phase dynamics, go/stop mapping, and the reservoir observables."""

import numpy as np
import pytest

from trafficrc.lattice import build_lattice
from trafficrc.signals import (TWO_PI, MODE_CONSTANT_RATE, MODE_LITERAL,
                               PhaseBank, link_go, reservoir_observables,
                               signal_state)


def test_constant_rate_matches_closed_form_bitwise():
    xi = np.array([0.0, 0.1, 3.0, 6.0])
    tau = np.array([100.0, 50.0, 100.0, 7.0])
    bank = PhaseBank(tau, xi)
    assert np.array_equal(bank.theta, xi)
    for t in range(1000):
        bank.step(t)
    # the closed form is evaluated, not accumulated, so this is exact
    assert np.array_equal(bank.theta, xi + TWO_PI * 1000.0 / tau)


def test_literal_mode_accumulates_growing_increments():
    xi, tau = 0.1, 100.0
    bank = PhaseBank(tau, xi, mode=MODE_LITERAL)
    assert bank.theta[0] == 0.0
    steps = 57
    for t in range(steps):
        bank.step(t)
    # sum_{t=0}^{steps-1} (2 pi t / tau + xi)
    expected = xi * steps + TWO_PI * steps * (steps - 1) / (2.0 * tau)
    assert bank.theta[0] == pytest.approx(expected, rel=1e-12)


def test_zero_input_weights_do_not_change_the_phase():
    xi = np.linspace(0.0, 5.0, 9)
    plain = PhaseBank(100.0, xi)
    wired = PhaseBank(100.0, xi, win=np.zeros(9))
    for t in range(200):
        plain.step(t)
        wired.step(t, u_ext=1.7)
    assert np.array_equal(plain.theta, wired.theta)


def test_input_shifts_constant_rate_phase_permanently():
    xi = np.zeros(3)
    win = np.array([0.5, -0.25, 0.0])
    bank = PhaseBank(100.0, xi, win=win)
    ref = PhaseBank(100.0, xi)
    for t in range(10):
        bank.step(t, u_ext=2.0 if t == 3 else None)
        ref.step(t)
    assert np.allclose(bank.theta - ref.theta, win * 2.0, atol=0.0)
    # a second injection adds on top
    bank.step(10, u_ext=1.0)
    ref.step(10)
    assert np.allclose(bank.theta - ref.theta, win * 3.0, atol=1e-15)


def test_literal_mode_injects_into_the_increment():
    win = np.array([0.5])
    bank = PhaseBank(100.0, [0.2], mode=MODE_LITERAL, win=win)
    ref = PhaseBank(100.0, [0.2], mode=MODE_LITERAL)
    bank.step(0, u_ext=3.0)
    ref.step(0)
    assert bank.theta[0] - ref.theta[0] == pytest.approx(1.5, abs=1e-15)


def test_input_validation():
    bank = PhaseBank(100.0, [0.0])
    with pytest.raises(ValueError):
        bank.step(0, u_ext=1.0)  # no input weights configured
    wired = PhaseBank(100.0, [0.0], win=[0.1])
    with pytest.raises(ValueError):
        wired.step(0, u_ext=float("nan"))
    with pytest.raises(ValueError):
        PhaseBank(0.0, [0.0])
    with pytest.raises(ValueError):
        PhaseBank(100.0, [0.0], mode="warp")


def test_random_bank_draws_in_range():
    rng = np.random.default_rng(42)
    bank = PhaseBank.random(25, rng, sigma_in=0.3)
    assert bank.xi.shape == (25,)
    assert np.all((bank.xi >= 0.0) & (bank.xi < TWO_PI))
    assert np.all(np.abs(bank.win) <= 0.3)
    plain = PhaseBank.random(25, rng)
    assert plain.win is None


def test_copy_is_independent():
    bank = PhaseBank(100.0, [0.1, 0.2], win=[0.3, 0.4])
    dup = bank.copy()
    bank.step(0, u_ext=1.0)
    assert dup.theta == pytest.approx([0.1, 0.2])


# --- go/stop mapping ---------------------------------------------------------

@pytest.mark.parametrize("mode", [MODE_CONSTANT_RATE, MODE_LITERAL])
def test_concatenated_banks_step_as_their_parts(mode):
    rng = np.random.default_rng(12)
    parts = [PhaseBank.random(n, rng, tau=rng.uniform(5.0, 60.0), mode=mode,
                              sigma_in=0.5,
                              ns_stop_first=rng.uniform(size=n) < 0.5)
             for n in (4, 1, 9)]
    parts[0].step(0, 0.7)   # a bank already under way keeps its state
    for b in parts[1:]:
        b.step(0, 0.7)
    joined = PhaseBank.concat(parts)
    for t in range(1, 60):
        u = float(rng.normal())
        joined.step(t, u)
        for b in parts:
            b.step(t, u)
    assert joined.theta.tobytes() == np.concatenate(
        [b.theta for b in parts]).tobytes()
    assert np.array_equal(joined.ns_stop_first,
                          np.concatenate([b.ns_stop_first for b in parts]))


def test_concat_refuses_mixed_banks():
    a = PhaseBank(10.0, np.zeros(2))
    with pytest.raises(ValueError, match="mode"):
        PhaseBank.concat([a, PhaseBank(10.0, np.zeros(2), mode=MODE_LITERAL)])
    with pytest.raises(ValueError, match="input"):
        PhaseBank.concat([a, PhaseBank(10.0, np.zeros(2), win=np.ones(2))])


def test_signal_state_convention():
    theta = np.array([0.0, 0.5, np.pi - 1e-9, np.pi, 4.0, TWO_PI - 1e-9])
    first_half = np.array([True, True, True, False, False, False])
    ns_go, ew_go = signal_state(theta)
    # first half of the period: north-south stops, east-west goes
    assert np.array_equal(ns_go, ~first_half)
    assert np.array_equal(ew_go, first_half)
    ns_go2, ew_go2 = signal_state(theta, ns_stop_first=False)
    assert np.array_equal(ns_go2, first_half)
    assert np.array_equal(ew_go2, ~first_half)


def test_signal_state_per_junction_flags():
    theta = np.array([0.5, 0.5])
    ns_go, ew_go = signal_state(theta, ns_stop_first=np.array([True, False]))
    assert ns_go.tolist() == [False, True]
    assert ew_go.tolist() == [True, False]


def test_signal_state_is_periodic():
    theta = np.linspace(0.0, TWO_PI, 37, endpoint=False)
    a = signal_state(theta)
    b = signal_state(theta + 3 * TWO_PI)
    assert np.array_equal(a[0], b[0])


def test_phase_period_tau_steps():
    rng = np.random.default_rng(1)
    bank = PhaseBank.random(9, rng, tau=100.0)
    states = []
    for t in range(300):
        states.append(signal_state(bank.theta)[0].copy())
        bank.step(t)
    states = np.asarray(states)
    assert np.array_equal(states[:100], states[100:200])
    assert np.array_equal(states[:100], states[200:300])


def test_link_go_routes_axis_state_of_destination():
    net = build_lattice(2)
    # first half everywhere: NS stops, EW goes (default convention)
    bank = PhaseBank(100.0, np.full(4, 0.5))
    go = link_go(bank, net)
    assert np.array_equal(go, ~net.link_axis_ns)
    flipped = PhaseBank(100.0, np.full(4, 0.5), ns_stop_first=False)
    assert np.array_equal(link_go(flipped, net), net.link_axis_ns)


def test_link_go_selects_each_links_axis_state():
    # every link reads its own axis: NS links ns_go, EW links ew_go
    net = build_lattice(5)
    rng = np.random.default_rng(11)
    stop_first = rng.uniform(size=net.n_junctions) < 0.5
    bank = PhaseBank(37.0, rng.uniform(0.0, TWO_PI, net.n_junctions),
                     ns_stop_first=stop_first)
    for t in range(500):
        ns_go, ew_go = signal_state(bank.theta, stop_first)
        dst = net.link_to
        expect = np.where(net.link_axis_ns, ns_go[dst], ew_go[dst])
        assert np.array_equal(link_go(bank, net), expect)
        bank.step(t)


# --- observables -------------------------------------------------------------

def test_observables_hand_values():
    x1, x2 = reservoir_observables(np.array([5.0]), np.array([0.0]))
    assert x1[0] == 5.0 and x2[0] == 0.0
    x1, x2 = reservoir_observables(np.array([4.0]), np.array([np.pi / 4]))
    assert x1[0] == pytest.approx(2.0, rel=1e-15)
    assert x2[0] == pytest.approx(2.0, rel=1e-15)


def test_observables_sum_to_u_within_ulps():
    rng = np.random.default_rng(9)
    u = rng.uniform(0.0, 10.0, 10_000)
    theta = rng.uniform(-50.0, 50.0, 10_000)
    x1, x2 = reservoir_observables(u, theta)
    err = np.abs((x1 + x2) - u)
    assert np.all(err <= 4.0 * np.spacing(np.maximum(u, 1.0)))
    assert np.all(x1 >= 0.0) and np.all(x2 >= 0.0)
