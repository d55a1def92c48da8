"""Linear readout: feature assembly, ridge regression, and the error score."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TAG_A", "TAG_B", "TAG_A_PRIME", "FeatureDef", "ReadoutModel",
    "assemble_matrix", "ridge_fit", "predict", "log_nrmse",
]

TAG_A = "a"
TAG_B = "b"
TAG_A_PRIME = "a_prime"
_TAGS = (TAG_A, TAG_B, TAG_A_PRIME)


@dataclass
class FeatureDef:
    """Which columns feed the readout.

    tag "a":       [1, U, X1[mask], X2[mask]]        (input + reservoir)
    tag "b":       [1, X1[mask], X2[mask]]           (reservoir only)
    tag "a_prime": tag "a" plus lagged link densities K(t-T) over `roads`.

    mask holds reservoir junction ids (feature order follows the mask order;
    sorted ascending by convention), roads holds link ids for tag "a_prime".
    The caller passes U and K already delayed.
    """
    tag: str
    mask: np.ndarray
    roads: np.ndarray | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"tag must be one of {_TAGS}")
        self.mask = np.asarray(self.mask, dtype=np.int64)
        if self.mask.ndim != 1:
            raise ValueError("mask must be a 1-d array of junction ids")
        if self.tag == TAG_A_PRIME:
            if self.roads is None:
                raise ValueError('tag "a_prime" requires a road subset')
            self.roads = np.asarray(self.roads, dtype=np.int64)


def _check_u(fdef, u):
    needs_u = fdef.tag in (TAG_A, TAG_A_PRIME)
    if needs_u and u is None:
        raise ValueError(f'tag "{fdef.tag}" requires the input signal U')
    if not needs_u and u is not None:
        raise ValueError(f'tag "{fdef.tag}" takes no input signal U')


def assemble_matrix(fdef, x1, x2, u=None, k_hist=None):
    """Batched assembly: rows of x1/x2 (and k_hist) are time steps.

    x1 and x2 hold the observables of the fdef.mask junctions only, one
    column per mask entry in mask order, so a caller derives them just
    there; k_hist holds every link (only the fdef.roads columns are used).
    Returns the feature matrix X with shape (dim, steps), one column per step.
    """
    _check_u(fdef, u)
    steps = x1.shape[0]
    if x1.shape != (steps, fdef.mask.size) or x2.shape != x1.shape:
        raise ValueError("x1 and x2 must hold one column per mask junction")
    parts = [np.ones((1, steps))]
    if fdef.tag in (TAG_A, TAG_A_PRIME):
        u = np.asarray(u, dtype=float)
        if u.shape != (steps,):
            raise ValueError("U must hold one scalar per step")
        parts.append(u[None, :])
    parts.append(x1.T)
    parts.append(x2.T)
    if fdef.tag == TAG_A_PRIME:
        if k_hist is None:
            raise ValueError('tag "a_prime" requires lagged link densities')
        parts.append(k_hist[:, fdef.roads].T)
    return np.concatenate(parts, axis=0)


@dataclass
class ReadoutModel:
    """Trained linear readout: weights (outputs x features)."""
    weights: np.ndarray


def ridge_fit(x, y, beta):
    """Ridge regression W = Y X^T (X X^T + beta I)^(-1).

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
    return ReadoutModel(weights=z.T)


def predict(model, x):
    """Apply the readout to one feature column (dim,) or a matrix (dim, steps)."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != model.weights.shape[1]:
        raise ValueError("feature dimension does not match the trained readout")
    return model.weights @ x


def log_nrmse(y, y_hat, base=10.0, floor=-12.0):
    """log_base of the normalized RMSE, clamped below at `floor`.

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
        return float(floor)
    score = 0.5 * math.log(err / denom) / math.log(base)
    return max(score, float(floor))

