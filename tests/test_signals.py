"""Phase dynamics, go/stop mapping, and the reservoir observables."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficrc.lattice import build_lattice
from trafficrc.signals import (TWO_PI, MODE_CONSTANT_RATE, MODE_LITERAL,
                               PhaseBank, link_go, reservoir_observables)


def random_bank(n, rng, tau=100.0, mode=MODE_CONSTANT_RATE, sigma_in=None,
                ns_stop_first=True):
    """Offsets xi ~ U[0, 2*pi); input weights win ~ U[-sigma_in, sigma_in]."""
    xi = rng.uniform(0.0, TWO_PI, n)
    win = None if sigma_in is None else rng.uniform(-sigma_in, sigma_in, n)
    return PhaseBank(tau, xi, mode=mode, win=win, ns_stop_first=ns_stop_first)


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


def test_copy_is_independent():
    bank = PhaseBank(100.0, [0.1, 0.2], win=[0.3, 0.4])
    dup = bank.copy()
    bank.step(0, u_ext=1.0)
    assert dup.theta == pytest.approx([0.1, 0.2])


# --- go/stop mapping ---------------------------------------------------------

@pytest.mark.parametrize("mode", [MODE_CONSTANT_RATE, MODE_LITERAL])
def test_concatenated_banks_step_as_their_parts(mode):
    rng = np.random.default_rng(12)
    parts = [random_bank(n, rng, tau=rng.uniform(5.0, 60.0), mode=mode,
                         sigma_in=0.5, ns_stop_first=rng.uniform(size=n) < 0.5)
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


def gate_probe(n_junctions):
    """A stand-in network for link_go: links 0..J-1 ride the NS axis into
    junctions 0..J-1, links J..2J-1 the EW axis, so go[:J] is each
    junction's NS state and go[J:] its EW state."""
    j = np.arange(n_junctions)
    return SimpleNamespace(link_to=np.r_[j, j],
                           link_axis_ns=np.r_[j >= 0, j < 0])


def test_link_go_convention():
    theta = np.array([0.0, 0.5, np.pi - 1e-9, np.pi, 4.0, TWO_PI - 1e-9])
    first_half = np.array([True, True, True, False, False, False])
    probe = gate_probe(theta.size)
    go = link_go(theta, True, probe)
    # first half of the period: north-south stops, east-west goes
    assert np.array_equal(go[:6], ~first_half)
    assert np.array_equal(go[6:], first_half)
    go = link_go(theta, False, probe)
    assert np.array_equal(go[:6], first_half)
    assert np.array_equal(go[6:], ~first_half)


def test_link_go_per_junction_flags():
    go = link_go(np.array([0.5, 0.5]), np.array([True, False]), gate_probe(2))
    assert go[:2].tolist() == [False, True]
    assert go[2:].tolist() == [True, False]


def test_link_go_is_periodic():
    theta = np.linspace(0.0, TWO_PI, 37, endpoint=False)
    probe = gate_probe(theta.size)
    assert np.array_equal(link_go(theta, True, probe),
                          link_go(theta + 3 * TWO_PI, True, probe))


def test_phase_period_tau_steps():
    rng = np.random.default_rng(1)
    bank = random_bank(9, rng, tau=100.0)
    states = link_go(bank.schedule(0, 300), bank.ns_stop_first, gate_probe(9))
    assert np.array_equal(states[:100], states[100:200])
    assert np.array_equal(states[:100], states[200:300])


def test_link_go_routes_axis_state_of_destination():
    net = build_lattice(2)
    # first half everywhere: NS stops, EW goes (default convention)
    theta = np.full(4, 0.5)
    assert np.array_equal(link_go(theta, True, net), ~net.link_axis_ns)
    assert np.array_equal(link_go(theta, False, net), net.link_axis_ns)


def test_link_go_selects_each_links_axis_state():
    # every link reads its own axis: NS links ns_go, EW links ew_go
    net = build_lattice(5)
    rng = np.random.default_rng(11)
    stop_first = rng.uniform(size=net.n_junctions) < 0.5
    bank = PhaseBank(37.0, rng.uniform(0.0, TWO_PI, net.n_junctions),
                     ns_stop_first=stop_first)
    dst = net.link_to
    rows = []
    for t in range(500):
        ns_go = (np.mod(bank.theta, TWO_PI) < np.pi) ^ stop_first
        expect = np.where(net.link_axis_ns, ns_go[dst], ~ns_go[dst])
        assert np.array_equal(link_go(bank.theta, stop_first, net), expect)
        rows.append(expect)
        bank.step(t)
    # over a (steps, junctions) schedule it gates every row at once
    replay = PhaseBank(37.0, bank.xi, ns_stop_first=stop_first)
    assert np.array_equal(link_go(replay.schedule(0, 500), stop_first, net),
                          np.array(rows))


# --- schedule ------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       mode=st.sampled_from([MODE_CONSTANT_RATE, MODE_LITERAL]),
       with_input=st.booleans(), per_junction_tau=st.booleans(),
       t0=st.integers(0, 300), steps=st.integers(0, 400))
def test_schedule_matches_stepping_bitwise(seed, n, mode, with_input,
                                           per_junction_tau, t0, steps):
    rng = np.random.default_rng(seed)
    tau = rng.uniform(3.0, 200.0, n) if per_junction_tau else rng.uniform(3.0, 200.0)
    bank = random_bank(n, rng, tau=tau, mode=mode,
                       sigma_in=rng.uniform(0.01, 2.0) if with_input else None,
                       ns_stop_first=rng.uniform(size=n) < 0.5)
    inputs = rng.normal(size=t0 + steps) if with_input else None
    # t0 > 0: both banks first step through t0 steps, input included
    for t in range(t0):
        bank.step(t, None if inputs is None else inputs[t])
    ref = bank.copy()
    rows = bank.schedule(t0, steps, inputs)
    assert rows.shape == (steps, n)
    for s in range(steps):
        assert rows[s].tobytes() == ref.theta.tobytes(), s
        ref.step(t0 + s, None if inputs is None else inputs[t0 + s])
    # the bank ends where stepping leaves it, so a later run resumes there
    assert bank.theta.tobytes() == ref.theta.tobytes()
    assert bank._input_acc.tobytes() == ref._input_acc.tobytes()
    more = bank.schedule(t0 + steps, 5, None if inputs is None
                         else np.r_[inputs, rng.normal(size=5)])
    assert more[0].tobytes() == ref.theta.tobytes()


@pytest.mark.parametrize("mode", [MODE_CONSTANT_RATE, MODE_LITERAL])
def test_schedule_refuses_bad_input_before_moving(mode):
    wired = PhaseBank(100.0, [0.1, 0.2], mode=mode, win=[0.3, 0.4])
    wired.step(0, 1.0)
    theta, acc = wired.theta.copy(), wired._input_acc.copy()
    bad = np.r_[np.ones(9), np.nan]
    with pytest.raises(ValueError, match="external input must be finite"):
        wired.schedule(1, 9, bad)
    with pytest.raises(ValueError, match="shorter"):
        wired.schedule(1, 10, np.ones(10))
    assert np.array_equal(wired.theta, theta)
    assert np.array_equal(wired._input_acc, acc)
    plain = PhaseBank(100.0, [0.1], mode=mode)
    with pytest.raises(ValueError, match="requires configured input weights"):
        plain.schedule(0, 3, np.ones(3))
    # input used only up to the run's end may hold anything past it
    assert wired.schedule(1, 8, bad).shape == (8, 2)


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
