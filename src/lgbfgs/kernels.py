"""BFGS numerical kernels.

Dense rank-two updates (direct, written over its input, and inverse form) act
as oracles and drive the dense baselines; ``dense_solve`` solves with the dense
greedy baseline's B through a Cholesky factor built in B's own storage.  The
two-loop recursion and the compact diagonal are the production paths: they
read a :class:`~lgbfgs.pairs.PairStore`'s ``R`` and index list, or any d x m
variation array with its indices, and never form a d x d matrix (``compact_B``
does, for the dense diagnostics).  The inverse update folded over a history
(indices, R, h0) in storage order from ``h0 * I`` is the implicit operator
every equivalence test refers back to.  The compact form B = (I - S S')/h0 +
F F' is seed-free: no 1/h0 term cancels at a stored index.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgeqrf, dpotrf, dpotrs, dtrtrs

from .errors import CurvatureError
from .pairs import PairStore


def _curvature(s: np.ndarray, r: np.ndarray):
    """s'r in the inputs' dtype, so a long-double fold keeps its precision."""
    c = s @ r
    if c <= 0.0:
        raise CurvatureError(f"curvature s'r = {c:.3e} is not positive")
    return c


# rows of the dense direct update filled at a time: one scratch block of this
# many rows stands in for the d x d temporaries of the textbook expression
_BLOCK_ROWS = 64


def dense_bfgs_update(B: np.ndarray, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rank-two secant update of a dense Hessian approximation, written over B.

    B+ = B + r r'/(r's) - B s s' B/(s'Bs); keeps positive definiteness whenever
    s'r > 0.  Requires B exactly symmetric, as every seed, psi * B and every
    output of this update is, and B, s and r of one dtype: entry (i, j) is
    (B_ij + (r_i r_j)/c) - (bs_i bs_j)/sbs, so the result is bit for bit the
    textbook expression and exactly symmetric.  B s is taken before any row is
    written; B is then filled a block of rows at a time and returned.
    """
    c = _curvature(s, r)
    bs = B @ s
    sbs = s @ bs
    if sbs <= 0.0:
        raise CurvatureError(f"s'Bs = {sbs:.3e} <= 0: input lost positive definiteness")
    buf = np.empty_like(B[:_BLOCK_ROWS])
    for lo in range(0, len(B), _BLOCK_ROWS):
        rows, tmp = slice(lo, lo + _BLOCK_ROWS), buf[: len(B) - lo]
        np.divide(np.multiply.outer(r[rows], r, out=tmp), c, out=tmp)
        np.add(B[rows], tmp, out=B[rows])
        np.divide(np.multiply.outer(bs[rows], bs, out=tmp), sbs, out=tmp)
        np.subtract(B[rows], tmp, out=B[rows])
    return B


def dense_solve(B: np.ndarray, v: np.ndarray) -> np.ndarray:
    """B^-1 v for an exactly symmetric, C-ordered float64 B, through a Cholesky
    factor built in B's own storage; B holds its old bits again on return.

    LAPACK factors the upper triangle of B's transpose, which is B's lower
    triangle in memory, as ``scipy.linalg.cho_factor`` factors the upper
    triangle of its Fortran-ordered copy of B: the factor and the solution are
    bit for bit ``cho_solve(cho_factor(B), v)``, without the d x d copy.  The
    lower triangle is then restored from the untouched strict upper one and a
    saved diagonal, also when B is not positive definite (``CurvatureError``).
    """
    diag = B.diagonal().copy()
    try:
        factor, info = dpotrf(B.T, lower=0, clean=0, overwrite_a=1)
        if info > 0:
            raise CurvatureError(f"dense approximation lost definiteness: {info}-th "
                                 "leading minor of the array is not positive definite")
        return dpotrs(factor, v, lower=0)[0]
    finally:
        d = B.shape[0]
        for lo in range(0, d, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, d)
            below = np.arange(hi) < np.arange(lo, hi)[:, None]
            np.copyto(B[lo:hi, :hi], B[:hi, lo:hi].T, where=below)
        np.fill_diagonal(B, diag)


def dense_inv_bfgs_update(H: np.ndarray, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Inverse-form rank-two update: H+ = V'HV + ss'/(s'r), V = I - rs'/(s'r).

    Expanded as H - (s(Hr)' + (Hr)s')/c + (1 + r'Hr/c) ss'/c with c = s'r,
    which is O(d^2) and exactly symmetric for a symmetric H.
    """
    c = _curvature(s, r)
    hr = H @ r
    return H - (np.outer(s, hr) + np.outer(hr, s)) / c + ((1 + r @ hr / c) / c) * np.outer(s, s)


def dense_H_from_pairs(indices, R: np.ndarray, h0: float) -> np.ndarray:
    """Fold the inverse update over the pairs (e_indices[k], R[:, k]) from h0 * I.

    Test oracle; indices may repeat, as in a full history before aggregation.
    """
    return _inv_fold(h0 * np.eye(R.shape[0]), indices, R)


def _inv_fold(H: np.ndarray, indices, R: np.ndarray) -> np.ndarray:
    """Continue an inverse fold from H over the pairs (e_indices[k], R[:, k])."""
    eye = np.eye(R.shape[0])
    for k, i in enumerate(indices):
        H = dense_inv_bfgs_update(H, eye[i], R[:, k])
    return H


def dense_B_from_pairs(indices, R: np.ndarray, h0: float) -> np.ndarray:
    """Fold the direct update over the pairs (e_indices[k], R[:, k]) from I / h0."""
    B = np.diag(np.full(R.shape[0], 1.0 / h0, dtype=np.result_type(R, h0)))
    eye = np.eye(R.shape[0], dtype=B.dtype)
    for k, i in enumerate(indices):
        dense_bfgs_update(B, eye[i], R[:, k])
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


def two_loop_direction(store: PairStore, g: np.ndarray) -> np.ndarray:
    """Quasi-Newton descent direction -(implicit inverse) @ g by the two-loop
    recursion, O(size*d); a d x k ``g`` maps each column."""
    return -_two_loop(store.R, store.indices, store.h0_scale, g)


def _compact_factor(R: np.ndarray, stored, h0: float, rows) -> np.ndarray:
    """Rows ``rows`` of F in B = (I - S S')/h0 + F F', the direct operator of
    the pairs (e_stored[k], R[:, k]) in the compact form of Byrd, Nocedal and
    Schnabel (1994) with the seed block eliminated.

    With S the basis vectors, L and D the strictly lower and diagonal parts of
    S'R, and V = R with V[stored[l], k] = 0 for l > k, F F' = V K^-1 V' for
    K = D + h0 L'L = D^1/2 (I + M'M) D^1/2, M = sqrt(h0) L D^-1/2.  The R
    factor T of a QR of [I; M] gives I + M'M = T'T without forming the normal
    equations, so F[rows] = V[rows] D^-1/2 T^-1 is one triangular solve.
    """
    m = len(stored)
    if not m:
        return np.zeros((len(rows), 0))
    sr = R[stored, :]
    inv_sqrt_d = 1.0 / np.sqrt(sr.diagonal())
    stack = np.zeros((2 * m, m), order="F")
    np.fill_diagonal(stack, 1.0)
    stack[m:] = np.tril(sr, -1) * (np.sqrt(h0) * inv_sqrt_d)
    level = np.zeros(R.shape[0], dtype=np.intp)
    level[stored] = np.arange(m)
    V = R[rows, :] * inv_sqrt_d
    V[np.arange(m) < level[rows][:, None]] = 0.0
    return dtrtrs(dgeqrf(stack, overwrite_a=1)[0], V.T, trans=1)[0].T


def _seed(store: PairStore) -> np.ndarray:
    """The diagonal of the seed block (I - S S')/h0: 0 stored, 1/h0 unstored."""
    return np.where(np.isin(np.arange(store.dim), store.indices), 0.0, 1.0 / store.h0_scale)


def compact_B_diag(store: PairStore, indices) -> np.ndarray:
    """Diagonal entries e_i' B e_i = |F[i, :]|^2 + [i not stored] / h0 for a batch."""
    rows = np.asarray(indices, dtype=np.intp)
    bad = (rows < 0) | (rows >= store.dim)
    if bad.any():
        raise IndexError(f"basis index {rows[bad][0]} out of range [0, {store.dim})")
    F = _compact_factor(store.R, store.indices, store.h0_scale, rows)
    return _seed(store)[rows] + np.einsum("ij,ij->i", F, F)


def compact_B(store: PairStore) -> np.ndarray:
    """The compact form as a dense d x d array, (I - S S')/h0 + F F': the dense
    diagnostics' approximation of a store, accurate at any seed scale."""
    F = _compact_factor(store.R, store.indices, store.h0_scale, np.arange(store.dim))
    B = F @ F.T
    B[np.diag_indices(store.dim)] += _seed(store)
    return B
