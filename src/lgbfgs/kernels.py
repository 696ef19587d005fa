"""BFGS numerical kernels.

Dense rank-two updates (direct and inverse form) act as oracles and drive the
dense baselines.  The two-loop recursion and the compact representation are the
production paths: they read a :class:`~lgbfgs.pairs.PairStore`'s variation
array ``R`` and index list directly, or any d x m variation array with its
indices, and never materialize a d x d matrix.  Folding the inverse update
over a history (indices, R, h0) in storage order from ``h0 * I`` defines the
implicit operator every equivalence test refers back to.
"""

from __future__ import annotations

import numpy as np

from .errors import CurvatureError
from .pairs import PairStore


def _curvature(s: np.ndarray, r: np.ndarray) -> float:
    c = float(s @ r)
    if c <= 0.0:
        raise CurvatureError(f"curvature s'r = {c:.3e} is not positive")
    return c


def dense_bfgs_update(B: np.ndarray, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rank-two secant update of a dense Hessian approximation.

    B+ = B + r r'/(r's) - B s s' B/(s'Bs); keeps symmetry and positive
    definiteness whenever s'r > 0.
    """
    c = _curvature(s, r)
    bs = B @ s
    sbs = float(s @ bs)
    if sbs <= 0.0:
        raise CurvatureError(f"s'Bs = {sbs:.3e} <= 0: input lost positive definiteness")
    out = B + np.outer(r, r) / c - np.outer(bs, bs) / sbs
    return 0.5 * (out + out.T)


def dense_inv_bfgs_update(H: np.ndarray, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Inverse-form rank-two update: H+ = V'HV + ss'/(s'r), V = I - rs'/(s'r)."""
    c = _curvature(s, r)
    v = np.eye(H.shape[0]) - np.outer(r, s) / c
    out = v.T @ H @ v + np.outer(s, s) / c
    return 0.5 * (out + out.T)


def dense_H_from_pairs(indices, R: np.ndarray, h0: float) -> np.ndarray:
    """Fold the inverse update over the pairs (e_indices[k], R[:, k]) from h0 * I.

    Test oracle; indices may repeat, as in a full history before aggregation.
    """
    dim = R.shape[0]
    H = h0 * np.eye(dim)
    for k, i in enumerate(indices):
        H = dense_inv_bfgs_update(H, np.eye(dim)[i], R[:, k])
    return H


def dense_B_from_pairs(indices, R: np.ndarray, h0: float) -> np.ndarray:
    """Fold the direct update over the pairs (e_indices[k], R[:, k]) from I / h0."""
    dim = R.shape[0]
    B = (1.0 / h0) * np.eye(dim)
    for k, i in enumerate(indices):
        B = dense_bfgs_update(B, np.eye(dim)[i], R[:, k])
    return B


def _two_loop(R: np.ndarray, stored, h0: float, v) -> np.ndarray:
    """Two-loop recursion for the pairs (e_stored[k], R[:, k]) applied to v.

    ``v`` is a vector or a d x k matrix whose columns are mapped in one pass.
    """
    q = np.asarray(v, dtype=float).copy()
    dim = R.shape[0]
    if q.ndim not in (1, 2) or q.shape[0] != dim:
        raise ValueError(f"input has shape {q.shape}, expected ({dim},) or ({dim}, k)")
    m = len(stored)
    curv = R[stored, np.arange(m)]
    if np.any(curv <= 0.0):
        k = int(np.argmin(curv))
        raise CurvatureError(f"stored pair {k} has curvature {curv[k]:.3e} <= 0")
    rhos = 1.0 / curv
    alphas = np.empty((m,) + q.shape[1:])
    for k in range(m - 1, -1, -1):
        alphas[k] = rhos[k] * q[stored[k]]
        q -= np.multiply.outer(R[:, k], alphas[k])
    q *= h0
    for k in range(m):
        beta = rhos[k] * (R[:, k] @ q)
        q[stored[k]] += alphas[k] - beta
    return q


def apply_inverse_hessian(store: PairStore, v: np.ndarray) -> np.ndarray:
    """Two-loop recursion: the implicit inverse operator applied to v, O(size*d)."""
    return _two_loop(store.R, store.indices, store.h0_scale, v)


def two_loop_direction(store: PairStore, g: np.ndarray) -> np.ndarray:
    """Quasi-Newton descent direction -(implicit inverse) @ g."""
    return -apply_inverse_hessian(store, g)


def _compact_solve(
    R: np.ndarray, stored, h0: float, cols
) -> tuple[np.ndarray, np.ndarray]:
    """Compact solve for the pairs (e_stored[k], R[:, k]) and columns e_i, i in cols.

    Returns the right-hand sides W = [B0 S, R]' [e_i ...] and Z = M^-1 W, where
    M is the middle matrix of B = B0 - [B0 S, R] M^-1 [B0 S, R]'.  With basis
    variations and distinct indices, S'B0S = (1/h0) I and the strictly-lower /
    diagonal parts of S'R come straight from R's rows at the stored indices.
    """
    m = len(stored)
    sr = R[stored, :]
    lower = np.tril(sr, k=-1)
    middle = np.empty((2 * m, 2 * m))
    middle[:m, :m] = np.eye(m) / h0
    middle[:m, m:] = lower
    middle[m:, :m] = lower.T
    middle[m:, m:] = -np.diag(np.diag(sr))
    W = np.empty((2 * m, len(cols)))
    W[:m] = np.equal.outer(stored, cols) / h0
    W[m:] = R[cols, :].T
    try:
        Z = np.linalg.solve(middle, W)
    except np.linalg.LinAlgError as exc:
        raise CurvatureError(f"singular compact middle matrix: {exc}") from exc
    return W, Z


def compact_B_column(store: PairStore, i: int) -> np.ndarray:
    """Column B e_i of the implicit direct operator via the compact representation."""
    i = int(i)
    if not 0 <= i < store.dim:
        raise IndexError(f"basis index {i} out of range [0, {store.dim})")
    out = np.zeros(store.dim)
    out[i] = 1.0 / store.h0_scale
    if store.size == 0:
        return out
    _, Z = _compact_solve(store.R, store.indices, store.h0_scale, [i])
    out[store.indices] -= Z[:store.size, 0] / store.h0_scale
    out -= store.R @ Z[store.size:, 0]
    return out


def compact_B_diag(store: PairStore, indices) -> np.ndarray:
    """Diagonal entries e_i' B e_i for a batch of indices; one factorization."""
    indices = [int(i) for i in indices]
    for i in indices:
        if not 0 <= i < store.dim:
            raise IndexError(f"basis index {i} out of range [0, {store.dim})")
    base = np.full(len(indices), 1.0 / store.h0_scale)
    if store.size == 0:
        return base
    W, Z = _compact_solve(store.R, store.indices, store.h0_scale, indices)
    return base - np.sum(W * Z, axis=0)
