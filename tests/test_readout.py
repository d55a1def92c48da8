"""Feature assembly, ridge regression, scoring."""

import math

import numpy as np
import pytest

from trafficrc.readout import (TAG_A, TAG_A_PRIME, TAG_B, FeatureDef,
                               assemble_matrix, log_nrmse, predict, ridge_fit)


def assemble_features(fdef, x1, x2, u=None, k_hist=None):
    """Reference: one feature column from full per-junction observable
    vectors, the scalar delayed input u and per-link densities k_hist."""
    parts = [np.ones(1)]
    if fdef.tag in (TAG_A, TAG_A_PRIME):
        parts.append(np.atleast_1d(float(u)))
    parts.append(np.asarray(x1, dtype=float)[fdef.mask])
    parts.append(np.asarray(x2, dtype=float)[fdef.mask])
    if fdef.tag == TAG_A_PRIME:
        parts.append(np.asarray(k_hist, dtype=float)[fdef.roads])
    return np.concatenate(parts)


def one_column(fdef, x1, x2, u=None, k_hist=None):
    """assemble_matrix over a single step of the masked observables."""
    return assemble_matrix(
        fdef, np.asarray(x1, dtype=float)[None, fdef.mask],
        np.asarray(x2, dtype=float)[None, fdef.mask],
        u=None if u is None else np.array([u]),
        k_hist=None if k_hist is None else np.asarray(k_hist)[None])[:, 0]


# --- feature assembly --------------------------------------------------------

def test_single_column_layout():
    fdef = FeatureDef(TAG_A, mask=[1], horizon=5)
    x1 = np.array([9.0, 3.0, 9.0])
    x2 = np.array([9.0, 0.0, 9.0])
    col = one_column(fdef, x1, x2, u=7.0)
    assert col.tolist() == [1.0, 7.0, 3.0, 0.0]
    assert fdef.dim == 4


def test_reservoir_only_dimension():
    fdef = FeatureDef(TAG_B, mask=np.arange(25))
    assert fdef.dim == 51
    with pytest.raises(ValueError):
        one_column(fdef, np.zeros(25), np.zeros(25), u=1.0)
    with pytest.raises(ValueError):
        one_column(FeatureDef(TAG_A, mask=[0]), np.zeros(25), np.zeros(25))


def test_lagged_road_columns():
    fdef = FeatureDef(TAG_A_PRIME, mask=[0, 2], roads=[5, 1], horizon=3)
    assert fdef.dim == 1 + 1 + 4 + 2
    k_hist = np.arange(8.0)
    col = one_column(fdef, np.zeros(4), np.zeros(4), u=0.5, k_hist=k_hist)
    assert col[-2:].tolist() == [5.0, 1.0]
    with pytest.raises(ValueError):
        FeatureDef(TAG_A_PRIME, mask=[0])  # roads required
    with pytest.raises(ValueError):
        one_column(fdef, np.zeros(4), np.zeros(4), u=0.5)


def test_matrix_assembly_matches_stacked_columns():
    rng = np.random.default_rng(0)
    steps, nj, nl = 7, 6, 10
    x1 = rng.uniform(size=(steps, nj))
    x2 = rng.uniform(size=(steps, nj))
    u = rng.uniform(size=steps)
    k_hist = rng.uniform(size=(steps, nl))
    fdef = FeatureDef(TAG_A_PRIME, mask=[0, 3, 5], roads=[2, 7], horizon=1)
    mat = assemble_matrix(fdef, x1[:, fdef.mask], x2[:, fdef.mask], u=u,
                          k_hist=k_hist)
    assert mat.shape == (fdef.dim, steps)
    for s in range(steps):
        col = assemble_features(fdef, x1[s], x2[s], u=u[s], k_hist=k_hist[s])
        assert np.array_equal(mat[:, s], col)


# --- ridge regression --------------------------------------------------------

def test_ridge_matches_dense_normal_equations():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((12, 300))
    y = rng.standard_normal((3, 300))
    beta = 0.37
    model = ridge_fit(x, y, beta)
    gram = x @ x.T + beta * np.eye(12)
    w_ref = y @ x.T @ np.linalg.inv(gram)
    assert model.weights == pytest.approx(w_ref, rel=1e-9, abs=1e-12)
    assert model.weights.shape == (3, 12)


def test_ridge_zero_beta_reduces_to_least_squares():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 100))
    w_true = rng.standard_normal((1, 5))
    y = w_true @ x
    model = ridge_fit(x, y, 0.0)
    assert model.weights == pytest.approx(w_true, rel=1e-9, abs=1e-11)


def test_scalar_shrinkage_closed_form():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 50))
    beta = 2.5
    model = ridge_fit(x, x[0], beta)
    sxx = float(x[0] @ x[0])
    assert model.weights[0, 0] == pytest.approx(sxx / (sxx + beta), rel=1e-12)


def test_huge_beta_shrinks_predictions_toward_zero():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 200))
    y = rng.standard_normal(200) * 5.0
    beta = 1e12
    model = ridge_fit(x, y, beta)
    # in the strong-ridge limit W -> Y X^T / beta
    w_limit = (y[None, :] @ x.T) / beta
    assert model.weights == pytest.approx(w_limit, rel=1e-9)
    pred = predict(model, x)
    assert np.max(np.abs(pred)) < 1e-8


def test_singular_system_without_regularization_raises():
    x = np.ones((3, 40))  # duplicated rows: X X^T is rank one
    y = np.arange(40.0)
    with pytest.raises(ValueError, match="beta > 0"):
        ridge_fit(x, y, 0.0)
    model = ridge_fit(x, y, 1e-6)  # regularized solve succeeds
    assert np.all(np.isfinite(model.weights))


def test_fit_and_predict_validation():
    x = np.ones((2, 10))
    y = np.ones(9)
    with pytest.raises(ValueError):
        ridge_fit(x, y, 1.0)
    with pytest.raises(ValueError):
        ridge_fit(x, np.full(10, np.nan), 1.0)
    with pytest.raises(ValueError):
        ridge_fit(x, np.ones(10), -1.0)
    model = ridge_fit(x, np.ones(10), 1.0)
    with pytest.raises(ValueError):
        predict(model, np.ones((3, 4)))


# --- scoring -----------------------------------------------------------------

def test_log_nrmse_perfect_prediction_hits_the_floor():
    y = np.sin(np.linspace(0, 7, 100))
    assert log_nrmse(y, y.copy()) == -12.0
    assert log_nrmse(y, y.copy(), floor=-6.0) == -6.0


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


def test_log_nrmse_base_conversion():
    rng = np.random.default_rng(6)
    y = rng.standard_normal(100)
    y_hat = y + 0.5 * rng.standard_normal(100)
    s10 = log_nrmse(y, y_hat)
    s2 = log_nrmse(y, y_hat, base=2.0)
    assert s2 == pytest.approx(s10 / math.log10(2.0), rel=1e-12)


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

