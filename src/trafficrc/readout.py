"""Linear readout: feature assembly, ridge regression, and the error score."""

import math

import numpy as np

__all__ = ["assemble_matrix", "ridge_fit", "predict", "log_nrmse"]


def assemble_matrix(x1, x2, u=None, k=None, cols=None):
    """The feature matrix X, shape (dim, steps): the rows [1, U, X1, X2, K],
    with U and K only when given.

    x1 and x2 hold the observables, one row per step and one column per
    junction, of which the reservoir junctions cols (None: every column)
    are gathered straight into X, one column at a time; u holds one input
    value per step and k one column per extra road, both already delayed by
    the caller.
    """
    if x1.ndim != 2 or x2.shape != x1.shape:
        raise ValueError("x1 and x2 must be (steps, junctions) arrays of one shape")
    steps = x1.shape[0]
    cols = range(x1.shape[1]) if cols is None else np.asarray(cols).tolist()
    if u is not None:
        u = np.asarray(u, dtype=float)
        if u.shape != (steps,):
            raise ValueError("U must hold one scalar per step")
    if k is not None and (k.ndim != 2 or k.shape[0] != steps):
        raise ValueError("K must hold one row per step")
    x = np.empty((1 + (u is not None) + 2 * len(cols)
                  + (0 if k is None else k.shape[1]), steps))
    x[0] = 1.0
    row = 1
    if u is not None:
        x[row] = u
        row += 1
    for obs in (x1, x2):
        for j in cols:
            x[row] = obs[:, j]
            row += 1
    if k is not None:
        x[row:] = k.T
    return x


def ridge_fit(x, y, beta):
    """Ridge regression W = Y X^T (X X^T + beta I)^(-1), shape (outputs, dim).

    x: features (dim, steps); y: targets (steps,) or (outputs, steps). The
    normal system is solved with its Cholesky factor L (X X^T + beta I =
    L L^T) and two solves, never an explicit inverse. beta=0 requires X X^T
    to be invertible.
    """
    x = np.asarray(x, dtype=float)
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.ndim != 2:
        raise ValueError("x must be 2-d (features x steps)")
    if y.shape[1] != x.shape[1]:
        raise ValueError("x and y must cover the same steps")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("features and targets must be finite")
    beta = float(beta)
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    a = x @ x.T
    a[np.diag_indices_from(a)] += beta
    b = x @ y.T
    try:
        low = np.linalg.cholesky(a)
        z = np.linalg.solve(low.T, np.linalg.solve(low, b))
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "normal equations are singular; use beta > 0") from exc
    return z.T


def predict(w, x):
    """Apply the weights w of ridge_fit to one feature column (dim,) or a
    matrix (dim, steps)."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != w.shape[1]:
        raise ValueError("feature dimension does not match the trained readout")
    return w @ x


# a score is log10 of the NRMSE, clamped below: an exact fit reads the floor
_LOG_BASE = 10.0
_FLOOR = -12.0


def log_nrmse(y, y_hat):
    """log10 of the normalized RMSE, clamped below at _FLOOR (-12).

    NRMSE = sqrt(mean ||y - y_hat||^2 / mean ||y - <y>||^2) with time means;
    multi-output targets use the stacked squared norm per step. A constant
    teacher has no scale and is rejected.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    y_hat = np.atleast_2d(np.asarray(y_hat, dtype=float))
    if y.shape != y_hat.shape:
        raise ValueError("prediction and teacher shapes differ")
    if y.shape[1] < 2:
        raise ValueError("need at least two steps to score")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(y_hat))):
        raise ValueError("series must be finite")
    err = np.mean(np.sum((y - y_hat) ** 2, axis=0))
    centered = y - y.mean(axis=1, keepdims=True)
    denom = np.mean(np.sum(centered ** 2, axis=0))
    if denom == 0.0:
        raise ValueError("teacher series is constant; score undefined")
    if err == 0.0:
        return _FLOOR
    score = 0.5 * math.log(err / denom) / math.log(_LOG_BASE)
    return max(score, _FLOOR)

