"""Objective-function contracts plus the two concrete objectives used everywhere.

An objective exposes fused value/gradient evaluation, Hessian-vector and
Hessian-column products, fused Hessian diagonal entries, and a curvature-weighted
norm.  Hessians are never materialized outside of the diagnostic helper
``hess_matrix``.  Instances are immutable after construction and safe to share
across concurrent runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .errors import CurvatureError

if TYPE_CHECKING:
    from .data import Dataset

# max |d/dt sigma(t)(1 - sigma(t))| over the real line, attained at
# sigma = 1/2 +- 1/(2 sqrt 3)
SIGMOID_CURVATURE_BOUND = 1.0 / (6.0 * np.sqrt(3.0))


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


class Objective:
    """Base class: value/gradient, Hessian products, and weighted norms."""

    info: ObjectiveInfo

    # -- contract surface ---------------------------------------------------

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def hess_vec(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess_column(self, x: np.ndarray, i: int) -> np.ndarray:
        raise NotImplementedError

    def hess_diag(self, x: np.ndarray, indices: Sequence[int]) -> np.ndarray:
        """Diagonal Hessian entries for the given indices (fused where possible)."""
        x = self._check_point(x)
        return np.array(
            [self.hess_column(x, int(i))[int(i)] for i in indices], dtype=float
        )

    def hess_matrix(self, x: np.ndarray) -> np.ndarray:
        """Dense Hessian.  Diagnostics and tests only; O(d^2) storage."""
        x = self._check_point(x)
        return np.column_stack(
            [self.hess_column(x, i) for i in range(self.info.dim)]
        )

    def weighted_norm(self, x: np.ndarray, v: np.ndarray) -> float:
        """sqrt(v' * hess(x) * v); zero iff v = 0 under strong convexity."""
        x = self._check_point(x)
        v = self._check_vector(v)
        rad = float(v @ self.hess_vec(x, v))
        if rad < -1e-12 * max(1.0, float(v @ v)):
            raise CurvatureError(
                f"negative curvature radicand {rad:.3e}; Hessian contract broken"
            )
        return float(np.sqrt(max(rad, 0.0)))

    # -- validation helpers -------------------------------------------------

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


class QuadraticObjective(Objective):
    """f(x) = x'Ax/2 - b'x with A symmetric positive definite.

    The Hessian is constant, so the Hessian-Lipschitz constant is zero and
    every correction factor collapses to one.  Used as the controlled test
    problem where all theoretical quantities are exact.
    """

    def __init__(self, hess, offset=None):
        hess = np.asarray(hess, dtype=float)
        if hess.ndim == 1:
            self._diag = hess.copy()
            self._full = None
            eigs = hess
            d = hess.shape[0]
        elif hess.ndim == 2 and hess.shape[0] == hess.shape[1]:
            if not np.allclose(hess, hess.T, atol=1e-12):
                raise ValueError("quadratic Hessian must be symmetric")
            self._diag = None
            self._full = 0.5 * (hess + hess.T)
            eigs = np.linalg.eigvalsh(self._full)
            d = hess.shape[0]
        else:
            raise ValueError("hess must be a vector (diagonal) or a square matrix")
        mu = float(np.min(eigs))
        lip = float(np.max(eigs))
        if mu <= 0:
            raise ValueError(f"quadratic Hessian must be positive definite (min eig {mu})")
        self.info = ObjectiveInfo(dim=d, mu=mu, lipschitz_L=lip, hess_lip_CL=0.0)
        self.offset = (
            np.zeros(d) if offset is None else np.asarray(offset, dtype=float)
        )
        if self.offset.shape != (d,):
            raise ValueError("offset length must match the Hessian dimension")

    def value_grad(self, x):
        x = self._check_point(x)
        ax = self.hess_vec(x, x)
        value = 0.5 * float(x @ ax) - float(self.offset @ x)
        return value, ax - self.offset

    def hess_vec(self, x, v):
        self._check_point(x)
        v = self._check_vector(v)
        if self._diag is not None:
            return self._diag * v
        return self._full @ v

    def hess_column(self, x, i):
        self._check_point(x)
        i = self._check_index(i)
        if self._diag is not None:
            col = np.zeros(self.info.dim)
            col[i] = self._diag[i]
            return col
        return self._full[:, i].copy()

    def hess_diag(self, x, indices):
        self._check_point(x)
        idx = [self._check_index(i) for i in indices]
        if self._diag is not None:
            return self._diag[idx].astype(float)
        return self._full.diagonal()[idx].astype(float)

    def hess_matrix(self, x):
        self._check_point(x)
        if self._diag is not None:
            return np.diag(self._diag)
        return self._full.copy()

    def minimizer(self) -> np.ndarray:
        if self._diag is not None:
            return self.offset / self._diag
        return np.linalg.solve(self._full, self.offset)


class LogisticObjective(Objective):
    """l2-regularized logistic loss over sparse samples with +-1 labels.

    f(x) = mean_i log(1 + exp(-y_i z_i'x)) + mu/2 ||x||^2.

    With unit-norm rows the gradient-Lipschitz constant is 1/4 + mu; in
    general 0.25 * max_i ||z_i||^2 + mu is used.  The Hessian-Lipschitz
    constant defaults to the analytic sigmoid bound scaled by the cubed
    maximal row norm and can be overridden when a tighter value is known.
    """

    def __init__(self, dataset: "Dataset", reg_mu: float, hess_lip_CL: float | None = None):
        if not reg_mu > 0:
            raise ValueError(f"reg_mu must be positive, got {reg_mu}")
        self.dataset = dataset
        self.reg_mu = float(reg_mu)
        self._Z = sp.csr_matrix(dataset.features, dtype=float)
        self._Zc = self._Z.tocsc()
        z2 = self._Zc.copy()
        z2.data = z2.data**2
        self._Z2c = z2
        self._y = np.asarray(dataset.labels, dtype=float)
        n, d = self._Z.shape
        if self._y.shape != (n,):
            raise ValueError("label count does not match the sample count")
        row_sq = np.asarray(self._Z.multiply(self._Z).sum(axis=1)).ravel()
        max_norm = float(np.sqrt(row_sq.max())) if n else 0.0
        lip = 0.25 * max_norm**2 + self.reg_mu
        if hess_lip_CL is None:
            hess_lip_CL = SIGMOID_CURVATURE_BOUND * max_norm**3
        self.info = ObjectiveInfo(
            dim=d, mu=self.reg_mu, lipschitz_L=lip, hess_lip_CL=float(hess_lip_CL)
        )
        self._n = n

    def _sigmoid_weights(self, x: np.ndarray) -> np.ndarray:
        """sigma(m)(1 - sigma(m)) per sample, overflow-safe; independent of labels."""
        m = self._Z @ x
        a = np.exp(-np.abs(m))
        return a / (1.0 + a) ** 2

    def value_grad(self, x):
        x = self._check_point(x)
        margins = self._y * (self._Z @ x)
        value = float(np.mean(np.logaddexp(0.0, -margins)))
        value += 0.5 * self.reg_mu * float(x @ x)
        # d/dm log(1 + e^-m) = -sigma(-m)
        coeff = -self._y * expit(-margins)
        grad = np.asarray(self._Z.T @ coeff).ravel() / self._n + self.reg_mu * x
        return value, grad

    def hess_vec(self, x, v):
        x = self._check_point(x)
        v = self._check_vector(v)
        w = self._sigmoid_weights(x)
        zv = self._Z @ v
        return np.asarray(self._Z.T @ (w * zv)).ravel() / self._n + self.reg_mu * v

    def hess_column(self, x, i):
        x = self._check_point(x)
        i = self._check_index(i)
        w = self._sigmoid_weights(x)
        zi = np.asarray(self._Zc[:, [i]].todense()).ravel()
        col = np.asarray(self._Z.T @ (w * zi)).ravel() / self._n
        col[i] += self.reg_mu
        return col

    def hess_diag(self, x, indices):
        x = self._check_point(x)
        idx = [self._check_index(i) for i in indices]
        w = self._sigmoid_weights(x)
        out = np.empty(len(idx))
        for k, i in enumerate(idx):
            zi2 = np.asarray(self._Z2c[:, [i]].todense()).ravel()
            out[k] = float(w @ zi2) / self._n + self.reg_mu
        return out

    def hess_matrix(self, x):
        x = self._check_point(x)
        w = self._sigmoid_weights(x)
        wz = self._Z.multiply(w[:, None])
        hess = np.asarray((wz.T @ self._Z).todense()) / self._n
        hess += self.reg_mu * np.eye(self.info.dim)
        return hess
