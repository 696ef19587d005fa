"""Convergence diagnostics and the logged-condition-number rate bound.

Everything here is read-only instrumentation: the weighted gradient norm used
as the convergence criterion, the trace metric measuring Hessian-approximation
error, relative condition numbers of an error matrix over a basis subset, the
per-step contraction inequality check, and the product-form rate bound built
from logged condition numbers.  Dense replays are restricted to
test/diagnostic scale.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import DiagnosticsError
from .objectives import Objective, ObjectiveInfo

DENSE_SOLVE_LIMIT = 2000


def hessian_cholesky(hess: np.ndarray):
    """``scipy.linalg.cho_factor`` of a dense Hessian, shared by the decrement
    and the trace metric at one point."""
    try:
        return scipy.linalg.cho_factor(hess)
    except scipy.linalg.LinAlgError as exc:
        raise DiagnosticsError(f"Hessian Cholesky failed: {exc}") from exc


def newton_decrement(obj: Objective, x, grad=None, chol=None) -> float:
    """Gradient norm weighted by the inverse Hessian at x (an array or a point).

    A caller that already holds them passes ``grad``, the gradient at x, and
    ``chol``, the ``hessian_cholesky`` of the dense Hessian at x; a given
    ``chol`` is always used.  Without one, the decrement is solved by dense
    Cholesky up to ``DENSE_SOLVE_LIMIT`` dimensions, otherwise by conjugate
    gradients on Hessian-vector products.
    """
    g = obj.value_grad(x)[1] if grad is None else grad
    if chol is not None or obj.info.dim <= DENSE_SOLVE_LIMIT:
        chol = hessian_cholesky(obj.hess_matrix(x)) if chol is None else chol
        y = scipy.linalg.cho_solve(chol, g)
    else:
        op = scipy.sparse.linalg.LinearOperator(
            (obj.info.dim, obj.info.dim), matvec=lambda v: obj.hess_vec(x, v)
        )
        y, info = scipy.sparse.linalg.cg(op, g, rtol=1e-10, atol=0.0,
                                         maxiter=50 * obj.info.dim)
        if info != 0:
            raise DiagnosticsError(f"conjugate gradients did not converge (info={info})")
    return float(np.sqrt(max(float(g @ y), 0.0)))


def trace_metric(obj: Objective, x, B: np.ndarray, chol=None) -> float:
    """Tr(hess(x)^-1 B) - d; nonnegative whenever B dominates the Hessian.
    ``chol`` is the ``hessian_cholesky`` at x when the caller already holds it."""
    B = np.asarray(B, dtype=float)
    d = obj.info.dim
    if B.shape != (d, d):
        raise ValueError(f"B has shape {B.shape}, expected ({d}, {d})")
    chol = hessian_cholesky(obj.hess_matrix(x)) if chol is None else chol
    return float(np.trace(scipy.linalg.cho_solve(chol, B))) - d


def relative_condition_numbers(diag: np.ndarray, subset) -> tuple[np.ndarray, float]:
    """Per-index relative condition numbers over ``subset``, and their minimum,
    of an error matrix E with diagonal ``diag``: beta(i) = max_k E_kk / E_ii,
    the max over the full basis.  A tiny or nonpositive diagonal entry means E
    already vanished along that direction; such entries map to +inf (they drop
    out of the minimum).
    """
    diag = np.asarray(diag, dtype=float)
    if diag.ndim != 1:
        raise ValueError(f"diag must be 1-D, got shape {diag.shape}")
    subset = [int(i) for i in subset]
    if not subset:
        raise ValueError("subset must be nonempty")
    max_diag = float(diag.max())
    floor = 1e-14 * max(max_diag, 0.0)
    sub = diag[subset]
    if max_diag <= 0.0:
        betas = np.full(len(subset), np.inf)
    else:
        betas = np.where(sub > floor, max_diag / np.maximum(sub, floor), np.inf)
    return betas, float(np.min(betas))


def contraction_residual(
    info: ObjectiveInfo,
    B_before: np.ndarray,
    hess: np.ndarray,
    phi: float,
    beta: float,
    sigma_before: float,
    sigma_after: float,
) -> float | None:
    """Slack of the per-step trace-metric contraction inequality.

    The step runs from x to x_next: ``B_before`` is the approximation at x
    before the correction scaling, ``hess`` the Hessian at x, ``phi`` the
    weighted step length, ``beta`` the least relative condition number of
    (1 + CM phi) B_before - hess(x_next) over the greedy candidates, and
    ``sigma_before`` and ``sigma_after`` the trace metrics of the
    approximations at x and, after the greedy update, at x_next.  Returns
    bound - achieved, nonnegative when the step obeys the contraction, or None
    when B_before does not dominate the Hessian at x (the inequality's
    premise; 1e-9 slack).
    """
    min_eig = float(scipy.linalg.eigvalsh(B_before - hess)[0])
    if min_eig < -1e-9 * (np.linalg.norm(hess) + np.linalg.norm(B_before)):
        return None
    d, cm = info.dim, info.self_concordant_CM
    corr = 1.0 + phi * cm
    # fully converged error matrix: fall back to the loosest valid factor
    factor = 1.0 if math.isinf(beta) else 1.0 - info.mu / (beta * d * info.lipschitz_L)
    bound = factor * corr**2 * (sigma_before + 2.0 * d * phi * cm / corr)
    return bound - sigma_after


def product_rate_bound(betas, mu: float, L: float, d: int, t0: int, t: int) -> float:
    """Per-iteration product-form decrement bound from logged condition numbers.

    Evaluates prod_{u=t0+1}^{t+t0} (1 - mu/(beta_u d L))^(t+t0+1-u) times the
    linear factor for the first t0 iterations; ``betas[u-1]`` is iteration u.
    """
    if t + t0 > len(betas):
        raise ValueError("not enough logged betas for the requested iteration")
    out = (1.0 - mu / (2.0 * L)) ** t0
    for u in range(t0 + 1, t + t0 + 1):
        beta = betas[u - 1]
        factor = 1.0 if math.isinf(beta) else 1.0 - mu / (beta * d * L)
        out *= factor ** (t + t0 + 1 - u)
    return out
