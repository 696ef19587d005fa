"""Correctness gate that does not use the library.

The benchmark regenerates each workload's data from the seed with its own
numpy code, evaluates the l2-regularized logistic loss and gradient with its
own expression, and solves for a reference minimum with scipy.  A solver
cell passes when the gradient norm it reports at its final iterate matches
this expression, and, for cells that stop at a gradient tolerance, when its
final objective gap to the reference minimum lies inside the band that
strong convexity allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.special import expit

GRAD_NORM_RTOL = 1e-9
VALUE_RTOL = 1e-12
# the reference minimizer's own gap, g^2/(2 mu), stays far below the value slack
REFERENCE_GRAD_TOL = 1e-9


@dataclass(frozen=True)
class Logistic:
    """f(x) = mean_i log(1 + exp(-y_i a_i'x)) + mu/2 ||x||^2 over dense rows."""

    rows: np.ndarray
    labels: np.ndarray
    mu: float

    @classmethod
    def synthetic(cls, n: int, d: int, mu: float, seed: int) -> "Logistic":
        """Gaussian rows scaled to unit norm and random +-1 labels, from ``seed``."""
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, d))
        labels = rng.choice([-1.0, 1.0], size=n)
        return cls(raw / np.linalg.norm(raw, axis=1, keepdims=True), labels, mu)

    @property
    def lipschitz(self) -> float:
        return 0.25 * float(np.max(np.sum(self.rows**2, axis=1))) + self.mu

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        margins = self.labels * (self.rows @ x)
        value = float(np.mean(np.logaddexp(0.0, -margins))) + 0.5 * self.mu * float(x @ x)
        coeff = -self.labels * expit(-margins)
        return value, self.rows.T @ coeff / len(self.labels) + self.mu * x

    def hess_vec(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        s = expit(self.rows @ x)
        return self.rows.T @ (s * (1.0 - s) * (self.rows @ v)) / len(self.labels) + self.mu * v

    def minimum(self) -> tuple[float, float]:
        """Reference minimum value and the gradient norm at the minimizer found."""
        res = scipy.optimize.minimize(
            self.value_grad, np.zeros(self.rows.shape[1]), jac=True,
            hessp=self.hess_vec, method="trust-ncg",
            options={"gtol": 0.1 * REFERENCE_GRAD_TOL, "maxiter": 200},
        )
        f, g = self.value_grad(res.x)
        gnorm = float(np.linalg.norm(g))
        if not gnorm <= REFERENCE_GRAD_TOL:
            raise RuntimeError(f"reference solve stopped at grad norm {gnorm:.3e}: {res.message}")
        return f, gnorm


def check_cell(problem: Logistic, minimum: tuple[float, float] | None,
               x_final: np.ndarray, f_final: float, grad_norm: float) -> list[str]:
    """Mismatches between a cell's reported final state and the oracle; empty if it passes.

    ``minimum`` is given for cells that stopped at their gradient tolerance:
    then f_final - f* must lie in [g^2/(2L), g^2/(2mu)] up to the reference's
    own error and rounding.
    """
    problems = []
    f, g = problem.value_grad(x_final)
    gnorm = float(np.linalg.norm(g))
    if not abs(gnorm - grad_norm) <= GRAD_NORM_RTOL * grad_norm:
        problems.append(f"grad norm {grad_norm!r} vs oracle {gnorm!r}")
    if not abs(f - f_final) <= VALUE_RTOL * max(1.0, abs(f)):
        problems.append(f"value {f_final!r} vs oracle {f!r}")
    if minimum is not None:
        f_ref, g_ref = minimum
        slack = VALUE_RTOL * max(1.0, abs(f_ref)) + g_ref**2 / (2.0 * problem.mu)
        gap = f_final - f_ref
        lo = grad_norm**2 / (2.0 * problem.lipschitz) - slack
        hi = grad_norm**2 / (2.0 * problem.mu) + slack
        if not lo <= gap <= hi:
            problems.append(f"gap to reference minimum {gap:.3e} outside [{lo:.3e}, {hi:.3e}]")
    return problems
