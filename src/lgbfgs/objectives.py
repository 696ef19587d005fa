"""Objective-function contracts plus the two concrete objectives used everywhere.

An objective exposes fused value/gradient evaluation, Hessian-vector and
Hessian-column products and fused Hessian diagonal entries.  Hessians are
never materialized outside of the diagnostic helper ``hess_matrix``.
Instances are immutable after construction and safe to share across
concurrent runs.

``obj.at(x)`` evaluates what every method needs from x alone once and returns
it as an immutable ``Point``; each method accepts such a point wherever it
takes x, and turns an array x into one on entry.  A run that builds one point
per iterate computes the logistic margins ``Z @ x`` once per iterate.

The logistic objective picks its feature storage from the density of the
samples alone: at least ``DENSE_MIN_DENSITY`` of the entries nonzero gives
one C-ordered Z (BLAS matrix-vector products, 8 B per entry), anything
sparser gives CSR plus a CSC copy for columns and a CSR Z**2 kept transposed,
d x n (32 B per nonzero).  Dense wins on both time and memory from density
1/2 up.  A Hessian diagonal over k candidate indices costs O(k n), not
O(d n): on dense Z it squares the candidates' columns a block of rows at a
time, and on CSR it reads k rows of Z**2'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    from .data import Dataset

# max |d/dt sigma(t)(1 - sigma(t))| over the real line, attained at
# sigma = 1/2 +- 1/(2 sqrt 3)
SIGMOID_CURVATURE_BOUND = 1.0 / (6.0 * np.sqrt(3.0))

# least share of nonzero feature entries for which the logistic objective
# stores the samples dense
DENSE_MIN_DENSITY = 0.5


def row_sums(m) -> np.ndarray:
    """Row sums of a CSR matrix or a 2-D ndarray.

    A dense row is summed as the CSR path sums its stored entries
    (``np.add.reduceat`` over the flat data), so a fully dense matrix gives
    bit-identical sums in either layout.
    """
    if sp.issparse(m):
        return np.asarray(m.sum(axis=1)).ravel()
    n, d = m.shape
    if n * d == 0:
        return np.zeros(n)
    return np.add.reduceat(m.ravel(), np.arange(0, n * d, d))


# rows of a dense sample array read at a time by ``square_rows``, by ``hess_diag``
# over the whole basis and by ``Dataset``'s finiteness check
_BLOCK_ROWS = 128


def square_rows(Z: np.ndarray) -> np.ndarray:
    """``row_sums(Z * Z)`` of a 2-D ndarray, bit for bit, without an n x d
    temporary: Z is squared a block of rows at a time."""
    sums = np.empty(Z.shape[0])
    for k in range(0, Z.shape[0], _BLOCK_ROWS):
        sums[k:k + _BLOCK_ROWS] = row_sums(np.square(Z[k:k + _BLOCK_ROWS]))
    return sums


@dataclass(frozen=True)
class ObjectiveInfo:
    """Smoothness and convexity constants of an objective.

    ``self_concordant_CM`` is derived, never stored, so the identity
    CM = CL / mu^1.5 holds exactly.
    """

    dim: int
    mu: float
    lipschitz_L: float
    hess_lip_CL: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        for name in ("mu", "lipschitz_L", "hess_lip_CL"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.lipschitz_L < self.mu:
            raise ValueError(
                f"lipschitz_L={self.lipschitz_L} must be >= mu={self.mu}"
            )
        if self.hess_lip_CL < 0:
            raise ValueError(f"hess_lip_CL must be >= 0, got {self.hess_lip_CL}")

    @property
    def self_concordant_CM(self) -> float:
        return self.hess_lip_CL / self.mu**1.5


@dataclass(frozen=True, eq=False)
class Point:
    """An iterate x of one objective plus what that objective derives from x alone.

    Made by ``Objective.at``; its arrays are read-only.  ``margins`` (Z @ x),
    ``weights`` (the sigmoid curvature weights) and ``exp_neg_abs``
    (exp(-|margins|)) are set by the logistic objective only.
    """

    objective: "Objective"
    x: np.ndarray
    margins: np.ndarray | None = None
    weights: np.ndarray | None = None
    exp_neg_abs: np.ndarray | None = None

    def __post_init__(self):
        for a in (self.x, self.margins, self.weights, self.exp_neg_abs):
            if a is not None:
                a.flags.writeable = False


class Objective:
    """Base class: value/gradient and Hessian products.

    Every method takes its point x as an array or as a ``Point`` made by
    this objective's ``at``.
    """

    info: ObjectiveInfo

    # -- contract surface ---------------------------------------------------

    def at(self, x) -> Point:
        """The point x, checked, with what the methods derive from x alone."""
        return Point(self, np.array(self._check_point(x)))

    def value_grad(self, x) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def hess_vec(self, x, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess_column(self, x, i: int) -> np.ndarray:
        raise NotImplementedError

    def hess_diag(self, x, indices: Sequence[int]) -> np.ndarray:
        """Diagonal Hessian entries for the given indices, in one fused pass."""
        raise NotImplementedError

    def hess_matrix(self, x) -> np.ndarray:
        """Dense Hessian.  Diagnostics and tests only; O(d^2) storage."""
        raise NotImplementedError

    # -- validation helpers -------------------------------------------------

    def _point(self, x) -> Point:
        """x as a point of this objective; an array goes through ``at``."""
        if not isinstance(x, Point):
            return self.at(x)
        if x.objective is not self:
            raise ValueError("point was made by another objective")
        return x

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.info.dim,):
            raise ValueError(
                f"point has shape {x.shape}, expected ({self.info.dim},)"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("point has non-finite entries")
        return x

    def _check_vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.info.dim,):
            raise ValueError(
                f"vector has shape {v.shape}, expected ({self.info.dim},)"
            )
        return v

    def _check_index(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < self.info.dim:
            raise IndexError(f"basis index {i} out of range [0, {self.info.dim})")
        return i

    def _check_indices(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.intp).reshape(-1)
        bad = idx[(idx < 0) | (idx >= self.info.dim)]
        if bad.size:
            self._check_index(bad[0])
        return idx


class QuadraticObjective(Objective):
    """f(x) = x'Ax/2 with A symmetric positive definite, minimized at the origin.

    The Hessian is constant, so the Hessian-Lipschitz constant is zero and
    every correction factor collapses to one.  Used as the controlled test
    problem where all theoretical quantities are exact.  A vector ``hess`` is
    the diagonal of A.
    """

    def __init__(self, hess):
        hess = np.asarray(hess, dtype=float)
        if hess.ndim == 1:
            hess = np.diag(hess)
        if hess.ndim != 2 or hess.shape[0] != hess.shape[1]:
            raise ValueError("hess must be a vector (diagonal) or a square matrix")
        if not np.allclose(hess, hess.T, atol=1e-12):
            raise ValueError("quadratic Hessian must be symmetric")
        self._hess = 0.5 * (hess + hess.T)
        eigs = np.linalg.eigvalsh(self._hess)
        d = hess.shape[0]
        mu = float(np.min(eigs))
        lip = float(np.max(eigs))
        if mu <= 0:
            raise ValueError(f"quadratic Hessian must be positive definite (min eig {mu})")
        self.info = ObjectiveInfo(dim=d, mu=mu, lipschitz_L=lip, hess_lip_CL=0.0)

    def value_grad(self, x):
        p = self._point(x)
        ax = self.hess_vec(p, p.x)
        return 0.5 * float(p.x @ ax), ax

    def hess_vec(self, x, v):
        self._point(x)
        return self._hess @ self._check_vector(v)

    def hess_column(self, x, i):
        self._point(x)
        return self._hess[:, self._check_index(i)].copy()

    def hess_diag(self, x, indices):
        self._point(x)
        return self._hess.diagonal()[self._check_indices(indices)].astype(float)

    def hess_matrix(self, x):
        self._point(x)
        return self._hess.copy()


class LogisticObjective(Objective):
    """l2-regularized logistic loss over samples with +-1 labels.

    f(x) = mean_i log(1 + exp(-y_i z_i'x)) + mu/2 ||x||^2.

    The samples are stored dense or as CSR by their density (see the module
    docstring), whatever the layout of ``dataset.features``; a C-contiguous
    float64 ndarray that stays dense is used without a copy.  No reference
    to ``dataset`` is kept, so a CSR input stored dense is freed with it.

    With unit-norm rows the gradient-Lipschitz constant is 1/4 + mu; in
    general 0.25 * max_i ||z_i||^2 + mu is used.  The Hessian-Lipschitz
    constant is the analytic sigmoid bound scaled by the cubed maximal row
    norm.
    """

    def __init__(self, dataset: "Dataset", reg_mu: float):
        if not reg_mu > 0:
            raise ValueError(f"reg_mu must be positive, got {reg_mu}")
        self.reg_mu = float(reg_mu)
        features = dataset.features
        n, d = features.shape
        nnz = features.count_nonzero() if sp.issparse(features) else np.count_nonzero(features)
        if nnz >= DENSE_MIN_DENSITY * n * d:
            if sp.issparse(features):
                features = features.toarray()
            self._Z = np.ascontiguousarray(features, dtype=float)
            self._Zc = self._Z2T = None
            sq_norms = square_rows(self._Z)
        else:
            Z = self._Z = sp.csr_matrix(features, dtype=float)
            Zc = self._Zc = Z.tocsc()
            # entrywise square of Z', sharing the CSC copy's sparsity arrays
            self._Z2T = sp.csr_matrix((Zc.data**2, Zc.indices, Zc.indptr), shape=(d, n))
            sq_norms = row_sums(sp.csr_matrix((Z.data**2, Z.indices, Z.indptr), shape=(n, d)))
        self._y = np.asarray(dataset.labels, dtype=float)
        max_norm = float(np.sqrt(sq_norms.max())) if n else 0.0
        lip = 0.25 * max_norm**2 + self.reg_mu
        self.info = ObjectiveInfo(dim=d, mu=self.reg_mu, lipschitz_L=lip,
                                  hess_lip_CL=float(SIGMOID_CURVATURE_BOUND * max_norm**3))
        self._n = n

    def at(self, x) -> Point:
        x = np.array(self._check_point(x))
        margins = self._Z @ x
        # sigma(m)(1 - sigma(m)) per sample, overflow-safe; independent of labels
        a = np.exp(-np.abs(margins))
        return Point(self, x, margins, a / (1.0 + a) ** 2, a)

    def value_grad(self, x):
        p = self._point(x)
        t, a = self._y * p.margins, p.exp_neg_abs
        # log(1 + e^-t) = max(0, -t) + log1p(a) and its derivative -sigma(-t)
        # = -[t > 0 ? a : 1] / (1 + a), from a = e^-|t| (= e^-|m|), which never overflows
        value = float(np.mean(np.maximum(-t, 0.0) + np.log1p(a)))
        value += 0.5 * self.reg_mu * float(p.x @ p.x)
        coeff = -self._y * np.where(t > 0.0, a, 1.0) / (1.0 + a)
        grad = self._Z.T @ coeff / self._n + self.reg_mu * p.x
        return value, grad

    def hess_vec(self, x, v):
        p = self._point(x)
        v = self._check_vector(v)
        zv = self._Z @ v
        return self._Z.T @ (p.weights * zv) / self._n + self.reg_mu * v

    def hess_column(self, x, i):
        p = self._point(x)
        i = self._check_index(i)
        zi = self._Z[:, i] if self._Zc is None else self._Zc[:, [i]].toarray().ravel()
        col = self._Z.T @ (p.weights * zi) / self._n
        col[i] += self.reg_mu
        return col

    def hess_diag(self, x, indices):
        p = self._point(x)
        idx = self._check_indices(indices)
        # the candidates' entries of Z**2 only; the whole basis needs no gather
        full = idx.size >= self.info.dim
        if self._Zc is None:
            diag = np.zeros(self.info.dim if full else idx.size)
            # one reused block of _BLOCK_ROWS * d squared entries, however few
            # the candidates; the indices are checked, so "clip" never clips
            rows = max(_BLOCK_ROWS, _BLOCK_ROWS * self.info.dim // max(idx.size, 1))
            buf = np.empty((min(rows, self._n), diag.size))
            for k in range(0, self._n, rows):
                block = self._Z[k:k + rows]
                squares = buf[:block.shape[0]]
                if not full:
                    block = np.take(block, idx, axis=1, out=squares, mode="clip")
                diag += p.weights[k:k + rows] @ np.square(block, out=squares)
        else:
            diag = (self._Z2T if full else self._Z2T[idx]) @ p.weights
        diag = diag / self._n + self.reg_mu
        return diag[idx] if full else diag

    def hess_matrix(self, x):
        p = self._point(x)
        if self._Zc is None:
            hess = (self._Z.T * p.weights) @ self._Z / self._n
        else:
            wz = self._Z.multiply(p.weights[:, None])
            hess = (wz.T @ self._Z).toarray() / self._n
        hess += self.reg_mu * np.eye(self.info.dim)
        return hess
