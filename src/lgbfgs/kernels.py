"""BFGS numerical kernels.

Dense rank-two updates (direct and inverse form) act as oracles and drive the
dense baselines; ``dense_solve`` solves with the dense greedy baseline's B
through a Cholesky factor built in B's own storage.  The two-loop recursion
and the compact representation are the production paths: they read a
:class:`~lgbfgs.pairs.PairStore`'s variation array ``R`` and index list
directly, or any d x m variation array with its indices, and never
materialize a d x d matrix.  Folding the inverse update
over a history (indices, R, h0) in storage order from ``h0 * I`` defines the
implicit operator every equivalence test refers back to.  The compact
representation is seed-free, B = (I - S S')/h0 + F F', so no 1/h0 term
cancels at a stored index and its entries stay accurate at any seed scale.
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


def dense_bfgs_update(B: np.ndarray, s: np.ndarray, r: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Rank-two secant update of a dense Hessian approximation.

    B+ = B + r r'/(r's) - B s s' B/(s'Bs); keeps positive definiteness whenever
    s'r > 0.  Requires B exactly symmetric, as every seed, psi * B and every
    output of this update is: entry (i, j) is (B_ij + (r_i r_j)/c) - (bs_i bs_j)/sbs,
    each operation in the dtype the textbook expression gives it, so the result
    is bit for bit that expression and exactly symmetric.  Filled a block of
    rows at a time into ``out``, a new d x d array by default.  ``out`` may be
    B itself, which updates B in place with the same bits (B s is taken before
    any row is written), but no other array that shares memory with B.
    """
    dtype = np.result_type(B, s, r)
    if out is None:
        out = np.empty(B.shape, dtype=dtype)
    elif out.shape != B.shape or out.dtype != dtype:
        raise ValueError(f"out has shape {out.shape} and dtype {out.dtype}, "
                         f"expected {B.shape} and {dtype}")
    elif out is not B and np.may_share_memory(out, B):
        raise ValueError("out shares memory with B without being B")
    c = _curvature(s, r)
    bs = B @ s
    sbs = s @ bs
    if sbs <= 0.0:
        raise CurvatureError(f"s'Bs = {sbs:.3e} <= 0: input lost positive definiteness")
    d = B.shape[0]
    buf = np.empty((min(_BLOCK_ROWS, d), d), dtype=out.dtype)
    # each quotient keeps its own dtype when B, s and r differ (float64 B, long-double r)
    r_type = np.result_type(r, c)
    for lo in range(0, d, _BLOCK_ROWS):
        rows, tmp = slice(lo, lo + _BLOCK_ROWS), buf[: min(_BLOCK_ROWS, d - lo)]
        np.divide(np.multiply.outer(r[rows], r, out=tmp), c, out=tmp, dtype=r_type)
        np.add(B[rows], tmp, out=out[rows])
        np.divide(np.multiply.outer(bs[rows], bs, out=tmp), sbs, out=tmp, dtype=bs.dtype)
        np.subtract(out[rows], tmp, out=out[rows])
    return out


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
    eye = np.eye(R.shape[0])
    B = (1.0 / h0) * eye
    for k, i in enumerate(indices):
        B = dense_bfgs_update(B, eye[i], R[:, k])
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


def _seed(store: PairStore, rows: list[int]) -> np.ndarray:
    """The seed terms [i not stored] / h0 of B's diagonal at ``rows``."""
    for i in rows:
        if not 0 <= i < store.dim:
            raise IndexError(f"basis index {i} out of range [0, {store.dim})")
    out = np.full(store.dim, 1.0 / store.h0_scale)
    out[store.indices] = 0.0
    return out[rows]


def compact_B_column(store: PairStore, i: int) -> np.ndarray:
    """Column B e_i = F F[i, :]' + e_i [i not stored] / h0 of the direct operator."""
    i = int(i)
    out = np.zeros(store.dim)
    out[i] = _seed(store, [i])[0]
    if store.size:
        F = _compact_factor(store.R, store.indices, store.h0_scale, np.arange(store.dim))
        out += F @ F[i]
    return out


def compact_B_diag(store: PairStore, indices) -> np.ndarray:
    """Diagonal entries e_i' B e_i = |F[i, :]|^2 + [i not stored] / h0 for a batch."""
    indices = [int(i) for i in indices]
    out = _seed(store, indices)
    if store.size:
        F = _compact_factor(store.R, store.indices, store.h0_scale, indices)
        out += np.einsum("ij,ij->i", F, F)
    return out
