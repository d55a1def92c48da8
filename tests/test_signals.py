"""Phase dynamics, go/stop mapping, and the reservoir observables."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficrc.lattice import build_lattice
from trafficrc.signals import TWO_PI, PhaseBank, link_go, reservoir_observables


def random_bank(n, rng, tau=100.0, sigma_in=None):
    """Offsets xi ~ U[0, 2*pi); input weights win ~ U[-sigma_in, sigma_in]."""
    xi = rng.uniform(0.0, TWO_PI, n)
    win = None if sigma_in is None else rng.uniform(-sigma_in, sigma_in, n)
    return PhaseBank(tau, xi, win=win)


def test_constant_rate_matches_closed_form_bitwise():
    xi = np.array([0.0, 0.1, 3.0, 6.0])
    tau = np.array([100.0, 50.0, 100.0, 7.0])
    bank = PhaseBank(tau, xi)
    assert np.array_equal(bank.theta, xi)
    for t in range(1000):
        bank.step(t)
    # the closed form is evaluated, not accumulated, so this is exact
    assert np.array_equal(bank.theta, xi + TWO_PI * 1000.0 / tau)


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


def test_input_validation():
    bank = PhaseBank(100.0, [0.0])
    with pytest.raises(ValueError):
        bank.step(0, u_ext=1.0)  # no input weights configured
    wired = PhaseBank(100.0, [0.0], win=[0.1])
    with pytest.raises(ValueError):
        wired.step(0, u_ext=float("nan"))
    with pytest.raises(ValueError):
        PhaseBank(0.0, [0.0])
    # NaN passes a plain `tau <= 0` check, and inf tau freezes the signals
    for tau, xi in [(np.nan, [0.1, 0.2]), (np.inf, [0.1, 0.2]),
                    ([100.0, np.nan], [0.1, 0.2])]:
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            PhaseBank(tau, xi)
    for xi in ([0.1, np.nan], [np.inf, 0.2]):
        with pytest.raises(ValueError, match="xi must be finite"):
            PhaseBank(100.0, xi)
    # a NaN weight once turned every later phase of its junction into NaN
    for win in ([np.nan, 0.1], [0.1, -np.inf], np.inf):
        with pytest.raises(ValueError, match="input weights must be finite"):
            PhaseBank(100.0, [0.1, 0.2], win=win)


def test_copy_is_independent():
    bank = PhaseBank(100.0, [0.1, 0.2], win=[0.3, 0.4])
    dup = bank.copy()
    bank.step(0, u_ext=1.0)
    assert dup.theta == pytest.approx([0.1, 0.2])


# --- go/stop mapping ---------------------------------------------------------

def test_concatenated_banks_step_as_their_parts():
    rng = np.random.default_rng(12)
    parts = [random_bank(n, rng, tau=rng.uniform(5.0, 60.0, n), sigma_in=0.5)
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
    assert np.array_equal(joined.tau, np.concatenate([b.tau for b in parts]))


def test_concat_refuses_mixed_banks():
    a = PhaseBank(10.0, np.zeros(2))
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
    go = link_go(theta, probe)
    # first half of the period: north-south stops, east-west goes
    assert np.array_equal(go[:6], ~first_half)
    assert np.array_equal(go[6:], first_half)


def test_link_go_per_junction_offsets():
    # an offset of pi swaps which axis of a junction goes first
    go = link_go(np.array([0.5, 0.5 + np.pi]), gate_probe(2))
    assert go[:2].tolist() == [False, True]
    assert go[2:].tolist() == [True, False]


def test_link_go_equals_the_old_default_convention_bitwise():
    # the gate before the stop-first flag went: the north-south state
    # (mod(theta, 2*pi) >= pi) of each junction, complemented on EW links
    net = build_lattice(4)
    rng = np.random.default_rng(21)
    bank = random_bank(net.n_junctions, rng, tau=rng.uniform(3.0, 200.0, 16),
                       sigma_in=1.0)
    theta = bank.schedule(0, 700, rng.normal(size=700))
    ns_go = (np.mod(theta, TWO_PI) < np.pi) ^ True
    old = ns_go[..., net.link_to] ^ ~net.link_axis_ns
    assert link_go(theta, net).tobytes() == old.tobytes()


def test_link_go_is_periodic():
    theta = np.linspace(0.0, TWO_PI, 37, endpoint=False)
    probe = gate_probe(theta.size)
    assert np.array_equal(link_go(theta, probe),
                          link_go(theta + 3 * TWO_PI, probe))


def test_phase_period_tau_steps():
    rng = np.random.default_rng(1)
    bank = random_bank(9, rng, tau=100.0)
    states = link_go(bank.schedule(0, 300), gate_probe(9))
    assert np.array_equal(states[:100], states[100:200])
    assert np.array_equal(states[:100], states[200:300])


def test_link_go_routes_axis_state_of_destination():
    net = build_lattice(2)
    # first half everywhere: NS stops, EW goes; second half the reverse
    theta = np.full(4, 0.5)
    assert np.array_equal(link_go(theta, net), ~net.link_axis_ns)
    assert np.array_equal(link_go(theta + np.pi, net), net.link_axis_ns)


def test_link_go_selects_each_links_axis_state():
    # every link reads its own axis: NS links ns_go, EW links ew_go
    net = build_lattice(5)
    rng = np.random.default_rng(11)
    bank = PhaseBank(37.0, rng.uniform(0.0, TWO_PI, net.n_junctions))
    dst = net.link_to
    rows = []
    for t in range(500):
        ns_go = np.mod(bank.theta, TWO_PI) >= np.pi
        expect = np.where(net.link_axis_ns, ns_go[dst], ~ns_go[dst])
        assert np.array_equal(link_go(bank.theta, net), expect)
        rows.append(expect)
        bank.step(t)
    # over a (steps, junctions) schedule it gates every row at once
    replay = PhaseBank(37.0, bank.xi)
    assert np.array_equal(link_go(replay.schedule(0, 500), net),
                          np.array(rows))


# --- schedule ------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       with_input=st.booleans(), per_junction_tau=st.booleans(),
       t0=st.integers(0, 300), steps=st.integers(0, 400))
def test_schedule_matches_stepping_bitwise(seed, n, with_input,
                                           per_junction_tau, t0, steps):
    rng = np.random.default_rng(seed)
    tau = rng.uniform(3.0, 200.0, n) if per_junction_tau else rng.uniform(3.0, 200.0)
    bank = random_bank(n, rng, tau=tau,
                       sigma_in=rng.uniform(0.01, 2.0) if with_input else None)
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


def test_schedule_refuses_bad_input_before_moving():
    wired = PhaseBank(100.0, [0.1, 0.2], win=[0.3, 0.4])
    wired.step(0, 1.0)
    theta, acc = wired.theta.copy(), wired._input_acc.copy()
    bad = np.r_[np.ones(9), np.nan]
    with pytest.raises(ValueError, match="external input must be finite"):
        wired.schedule(1, 9, bad)
    with pytest.raises(ValueError, match="shorter"):
        wired.schedule(1, 10, np.ones(10))
    assert np.array_equal(wired.theta, theta)
    assert np.array_equal(wired._input_acc, acc)
    plain = PhaseBank(100.0, [0.1])
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
