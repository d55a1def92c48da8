"""Feature assembly, ridge regression, scoring."""

import json
import math
import pathlib

import numpy as np
import pytest
import scipy.linalg

from trafficrc import tasks
from trafficrc.io import config_from_dict
from trafficrc.readout import assemble_matrix, log_nrmse, predict, ridge_fit

_RECIPES = pathlib.Path(__file__).resolve().parents[1] / "configs"


def reference_column(x1, x2, u=None, k=None):
    """Reference: one feature column from one step's observables, the
    scalar input u and the extra road densities k."""
    parts = [np.ones(1)]
    if u is not None:
        parts.append(np.atleast_1d(float(u)))
    parts.append(np.asarray(x1, dtype=float))
    parts.append(np.asarray(x2, dtype=float))
    if k is not None:
        parts.append(np.asarray(k, dtype=float))
    return np.concatenate(parts)


# --- feature assembly --------------------------------------------------------

def test_single_column_layout():
    col = assemble_matrix(np.array([[3.0]]), np.array([[0.0]]), u=np.array([7.0]))
    assert col[:, 0].tolist() == [1.0, 7.0, 3.0, 0.0]
    assert col.shape == (4, 1)


def test_reservoir_only_dimension():
    assert assemble_matrix(np.zeros((1, 25)), np.zeros((1, 25))).shape == (51, 1)
    with pytest.raises(ValueError):
        assemble_matrix(np.zeros((1, 25)), np.zeros((1, 24)))


def test_lagged_road_columns():
    col = assemble_matrix(np.zeros((1, 2)), np.zeros((1, 2)), u=np.array([0.5]),
                          k=np.array([[5.0, 1.0]]))[:, 0]
    assert col.size == 1 + 1 + 4 + 2
    assert col[-2:].tolist() == [5.0, 1.0]
    with pytest.raises(ValueError):
        assemble_matrix(np.zeros((1, 2)), np.zeros((1, 2)), k=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        assemble_matrix(np.zeros((1, 2)), np.zeros((1, 2)), u=np.zeros(2))


def test_matrix_assembly_matches_stacked_columns():
    rng = np.random.default_rng(0)
    steps, nj, nl = 7, 3, 2
    x1 = rng.uniform(size=(steps, nj))
    x2 = rng.uniform(size=(steps, nj))
    for u, k in [(None, None), (rng.uniform(size=steps), None),
                 (None, rng.uniform(size=(steps, nl))),
                 (rng.uniform(size=steps), rng.uniform(size=(steps, nl)))]:
        mat = assemble_matrix(x1, x2, u=u, k=k)
        dim = 1 + (u is not None) + 2 * nj + (0 if k is None else nl)
        assert mat.shape == (dim, steps)
        for s in range(steps):
            col = reference_column(x1[s], x2[s], u=None if u is None else u[s],
                                   k=None if k is None else k[s])
            assert np.array_equal(mat[:, s], col)


# --- ridge regression --------------------------------------------------------

def test_ridge_matches_dense_normal_equations():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((12, 300))
    y = rng.standard_normal((3, 300))
    beta = 0.37
    w = ridge_fit(x, y, beta)
    gram = x @ x.T + beta * np.eye(12)
    w_ref = y @ x.T @ np.linalg.inv(gram)
    assert w == pytest.approx(w_ref, rel=1e-9, abs=1e-12)
    assert w.shape == (3, 12)


def test_ridge_zero_beta_reduces_to_least_squares():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 100))
    w_true = rng.standard_normal((1, 5))
    y = w_true @ x
    w = ridge_fit(x, y, 0.0)
    assert w == pytest.approx(w_true, rel=1e-9, abs=1e-11)


def test_scalar_shrinkage_closed_form():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 50))
    beta = 2.5
    w = ridge_fit(x, x[0], beta)
    sxx = float(x[0] @ x[0])
    assert w[0, 0] == pytest.approx(sxx / (sxx + beta), rel=1e-12)


def test_huge_beta_shrinks_predictions_toward_zero():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 200))
    y = rng.standard_normal(200) * 5.0
    beta = 1e12
    w = ridge_fit(x, y, beta)
    # in the strong-ridge limit W -> Y X^T / beta
    w_limit = (y[None, :] @ x.T) / beta
    assert w == pytest.approx(w_limit, rel=1e-9)
    pred = predict(w, x)
    assert np.max(np.abs(pred)) < 1e-8


def test_singular_system_without_regularization_raises():
    x = np.ones((3, 40))  # duplicated rows: X X^T is rank one
    y = np.arange(40.0)
    with pytest.raises(ValueError, match="beta > 0"):
        ridge_fit(x, y, 0.0)
    w = ridge_fit(x, y, 1e-6)  # regularized solve succeeds
    assert np.all(np.isfinite(w))


def assert_matches_scipy_solve(x, y, beta):
    """ridge_fit against the scipy SPD solve of the same normal equations.

    Where the Gram matrix has cond <= 1e6 the weights agree to 1e-9
    relative; past that, conditioning lets the weights move, so the ridge
    objective ||y - w X||^2 + beta ||w||^2 is compared instead."""
    y = np.atleast_2d(y)
    a = x @ x.T + beta * np.eye(x.shape[0])
    w_ref = scipy.linalg.solve(a, x @ y.T, assume_a="pos").T
    w = ridge_fit(x, y, beta)

    def objective(w):
        return np.sum((y - w @ x) ** 2) + beta * np.sum(w ** 2)

    if np.linalg.cond(a) <= 1e6:
        assert np.max(np.abs(w - w_ref)) <= 1e-9 * np.max(np.abs(w_ref))
    assert objective(w) == pytest.approx(objective(w_ref), rel=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_ridge_matches_scipy_on_random_spd_systems(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 40))
    x = rng.standard_normal((dim, int(rng.integers(dim + 1, 400))))
    y = rng.standard_normal((int(rng.integers(1, 4)), x.shape[1]))
    assert_matches_scipy_solve(x, y, [0.0, 1e-8, 1e-3, 1.0][seed % 4])


@pytest.mark.parametrize("p", [0.3, 1.0])
def test_ridge_matches_scipy_on_a_p_sweep_trial(monkeypatch, p):
    # the normal equations of one trial of the shipped p-sweep recipe
    systems = []

    def spy(x, y, beta):
        systems.append((x, y, beta))
        return ridge_fit(x, y, beta)

    monkeypatch.setattr(tasks, "ridge_fit", spy)
    recipe = json.loads((_RECIPES / "density_link_p_sweep.json").read_text())
    tasks.run_experiment(config_from_dict(dict(recipe, trials=1, p=p)))
    (x, y, beta), = systems
    assert_matches_scipy_solve(x, y, beta)


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("seed", range(3))
def test_ridge_matches_scipy_on_near_collinear_features(seed, delta):
    # a bias row and a column that is nearly the sum of the others, as
    # X1 + X2 summed over every junction is nearly the conserved mass:
    # cond of the Gram matrix reaches about 1e13 at delta = 1e-6
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((6, 400)) + 3.0
    x = np.vstack([np.ones(400), f, f.sum(axis=0) + delta * rng.standard_normal(400)])
    assert_matches_scipy_solve(x, rng.standard_normal(400) + f[0], 1e-8)


def test_fit_and_predict_validation():
    x = np.ones((2, 10))
    y = np.ones(9)
    with pytest.raises(ValueError):
        ridge_fit(x, y, 1.0)
    with pytest.raises(ValueError):
        ridge_fit(x, np.full(10, np.nan), 1.0)
    with pytest.raises(ValueError):
        ridge_fit(x, np.ones(10), -1.0)
    w = ridge_fit(x, np.ones(10), 1.0)
    with pytest.raises(ValueError):
        predict(w, np.ones((3, 4)))


# --- scoring -----------------------------------------------------------------

def test_log_nrmse_perfect_prediction_hits_the_floor():
    y = np.sin(np.linspace(0, 7, 100))
    assert log_nrmse(y, y.copy()) == -12.0


def test_log_nrmse_mean_predictor_scores_zero():
    y = np.sin(np.linspace(0, 7, 100))
    y_hat = np.full_like(y, y.mean())
    assert log_nrmse(y, y_hat) == pytest.approx(0.0, abs=1e-12)


def test_log_nrmse_hand_value():
    y = np.array([0.0, 2.0, 0.0, 2.0])
    y_hat = np.array([1.0, 1.0, 1.0, 1.0])
    # err = 1, denom = 1 -> log10(1) = 0; halving the error shifts by log10(2)/2
    assert log_nrmse(y, y_hat) == pytest.approx(0.0, abs=1e-15)
    closer = np.array([0.5, 1.5, 0.5, 1.5])
    assert log_nrmse(y, closer) == pytest.approx(-0.5 * math.log10(4.0),
                                                 rel=1e-12)


def test_log_nrmse_affine_invariance():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(200)
    y_hat = y + 0.1 * rng.standard_normal(200)
    s0 = log_nrmse(y, y_hat)
    s1 = log_nrmse(3.0 * y - 7.0, 3.0 * y_hat - 7.0)
    assert s1 == pytest.approx(s0, abs=1e-12)


def test_log_nrmse_multi_output_stacks_components():
    y = np.array([[0.0, 2.0, 0.0, 2.0],
                  [1.0, 3.0, 1.0, 3.0]])
    y_hat = np.array([[1.0, 1.0, 1.0, 1.0],
                      [2.0, 2.0, 2.0, 2.0]])
    # per-step squared error 2, per-step centered norm 2
    assert log_nrmse(y, y_hat) == pytest.approx(0.0, abs=1e-15)


def test_log_nrmse_rejections():
    with pytest.raises(ValueError):
        log_nrmse(np.ones(10), np.zeros(10))  # constant teacher
    with pytest.raises(ValueError):
        log_nrmse(np.arange(4.0), np.arange(3.0))
    with pytest.raises(ValueError):
        log_nrmse(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        log_nrmse(np.array([1.0, np.nan]), np.array([1.0, 2.0]))

