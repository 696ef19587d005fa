"""Convergence diagnostics and the logged-condition-number rate bound.

Everything here is read-only instrumentation: the weighted gradient norm used
as the convergence criterion, the trace metric measuring Hessian-approximation
error, relative condition numbers of an error matrix over a basis subset, the
per-step contraction inequality check, and the product-form rate bound built
from logged condition numbers.  The decrement and the trace metric solve with
a dense Cholesky factor of the Hessian, so they are for desk scale.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import DiagnosticsError
from .objectives import ObjectiveInfo


def hessian_cholesky(hess: np.ndarray):
    """``scipy.linalg.cho_factor`` of a dense Hessian, shared by the decrement
    and the trace metric at one point."""
    try:
        return scipy.linalg.cho_factor(hess)
    except scipy.linalg.LinAlgError as exc:
        raise DiagnosticsError(f"Hessian Cholesky failed: {exc}") from exc


def newton_decrement(grad: np.ndarray, chol) -> float:
    """The gradient's norm weighted by the inverse Hessian whose factor is ``chol``."""
    return float(np.sqrt(max(float(grad @ scipy.linalg.cho_solve(chol, grad)), 0.0)))


def trace_metric(B: np.ndarray, chol) -> float:
    """Tr(hess^-1 B) - d from the ``hessian_cholesky`` of the dense Hessian;
    nonnegative whenever B dominates the Hessian.  ``DiagnosticsError`` when
    the trace leaves float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.trace(scipy.linalg.cho_solve(chol, B, check_finite=False))) - len(B)
    if not math.isfinite(value):
        raise DiagnosticsError(f"trace metric left float range: {value}")
    return value


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
    # Frobenius norms by BLAS nrm2, which scales as it sums: no square overflows
    scale = sum(float(scipy.linalg.blas.dnrm2(a.ravel())) for a in (hess, B_before))
    if not math.isfinite(scale):
        raise DiagnosticsError(f"premise scale left float range: {scale}")
    if min_eig < -1e-9 * scale:
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
