"""Convergence diagnostics and theoretical rate curves.

Everything here is read-only instrumentation: the weighted gradient norm used
as the convergence criterion, the trace metric measuring Hessian-approximation
error, relative condition numbers of an error matrix over a basis subset, the
per-step contraction inequality check, and closed-form rate-bound curves.
Dense replays are restricted to test/diagnostic scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .correction import weighted_step_norm
from .errors import DiagnosticsError
from .objectives import Objective

DENSE_SOLVE_LIMIT = 2000


def newton_decrement(obj: Objective, x, method: str = "auto", hess=None) -> float:
    """Gradient norm weighted by the inverse Hessian at x.

    Solved by dense Cholesky up to ``DENSE_SOLVE_LIMIT`` dimensions, otherwise
    by conjugate gradients on Hessian-vector products.  The dense solve uses
    ``hess``, the dense Hessian at x, when the caller already holds it.
    """
    x = np.asarray(x, dtype=float)
    _, g = obj.value_grad(x)
    if method == "auto":
        method = "dense" if obj.info.dim <= DENSE_SOLVE_LIMIT else "cg"
    if method == "dense":
        hess = obj.hess_matrix(x) if hess is None else hess
        try:
            y = scipy.linalg.cho_solve(scipy.linalg.cho_factor(hess), g)
        except scipy.linalg.LinAlgError as exc:
            raise DiagnosticsError(f"Hessian Cholesky failed: {exc}") from exc
    elif method == "cg":
        op = scipy.sparse.linalg.LinearOperator(
            (obj.info.dim, obj.info.dim), matvec=lambda v: obj.hess_vec(x, v)
        )
        y, info = scipy.sparse.linalg.cg(op, g, rtol=1e-10, atol=0.0,
                                         maxiter=50 * obj.info.dim)
        if info != 0:
            raise DiagnosticsError(f"conjugate gradients did not converge (info={info})")
    else:
        raise ValueError(f"unknown method {method!r}")
    return float(np.sqrt(max(float(g @ y), 0.0)))


def trace_metric(obj: Objective, x, B: np.ndarray, hess=None) -> float:
    """Tr(hess(x)^-1 B) - d; nonnegative whenever B dominates the Hessian.
    ``hess`` is the dense Hessian at x when the caller already holds it."""
    x = np.asarray(x, dtype=float)
    B = np.asarray(B, dtype=float)
    d = obj.info.dim
    if B.shape != (d, d):
        raise ValueError(f"B has shape {B.shape}, expected ({d}, {d})")
    hess = obj.hess_matrix(x) if hess is None else hess
    try:
        solved = scipy.linalg.cho_solve(scipy.linalg.cho_factor(hess), B)
    except scipy.linalg.LinAlgError as exc:
        raise DiagnosticsError(f"Hessian Cholesky failed: {exc}") from exc
    return float(np.trace(solved)) - d


def relative_condition_numbers(
    E: np.ndarray, subset, degenerate: str = "raise"
) -> tuple[np.ndarray, float]:
    """Per-index relative condition numbers of E over ``subset`` and their minimum.

    beta(i) = max_k E_kk / E_ii with the max over the full basis.  A tiny or
    nonpositive diagonal entry means the error matrix already vanished along
    that direction; ``degenerate="raise"`` errors out, ``degenerate="inf"``
    maps such entries to +inf (they drop out of the minimum).
    """
    E = np.asarray(E, dtype=float)
    diag = np.diag(E).astype(float)
    subset = [int(i) for i in subset]
    if not subset:
        raise ValueError("subset must be nonempty")
    max_diag = float(diag.max())
    floor = 1e-14 * max(max_diag, 0.0)
    sub = diag[subset]
    if degenerate == "raise":
        if max_diag <= 0.0 or np.any(sub <= floor):
            raise DiagnosticsError(
                "degenerate error matrix: nonpositive or vanishing diagonal entry"
            )
        betas = max_diag / sub
    elif degenerate == "inf":
        if max_diag <= 0.0:
            betas = np.full(len(subset), np.inf)
        else:
            betas = np.where(sub > floor, max_diag / np.maximum(sub, floor), np.inf)
    else:
        raise ValueError(f"unknown degenerate policy {degenerate!r}")
    return betas, float(np.min(betas))


def contraction_residual(
    obj: Objective,
    x,
    x_next,
    B_before: np.ndarray,
    B_after: np.ndarray,
    subset,
    *,
    hess=None,
    hess_next=None,
    phi: float | None = None,
    sigma_before: float | None = None,
) -> float | None:
    """Slack of the per-step trace-metric contraction inequality.

    ``B_before`` is the approximation at x (before correction scaling),
    ``B_after`` the one after the greedy update at x_next, and ``subset`` the
    candidate indices of the greedy selection.  Returns bound - achieved,
    nonnegative when the step obeys the contraction, or None when B_before does
    not dominate the Hessian at x (the inequality's premise; 1e-9 slack).
    A caller that already holds them passes the dense Hessians at x and x_next,
    the weighted step length phi and sigma_before = trace_metric(obj, x,
    B_before); they stand in for the same values computed here.
    """
    x = np.asarray(x, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    d = obj.info.dim
    hess_x = obj.hess_matrix(x) if hess is None else hess
    gap = np.asarray(B_before, dtype=float) - hess_x
    min_eig = float(scipy.linalg.eigvalsh(gap)[0])
    slack = 1e-9 * (np.linalg.norm(hess_x) + np.linalg.norm(B_before))
    if min_eig < -slack:
        return None
    mu, L = obj.info.mu, obj.info.lipschitz_L
    cm = obj.info.self_concordant_CM
    phi = weighted_step_norm(obj, x, x_next) if phi is None else phi
    corr = 1.0 + phi * cm
    hess_next = obj.hess_matrix(x_next) if hess_next is None else hess_next
    err = corr * np.asarray(B_before, dtype=float) - hess_next
    _, beta_min = relative_condition_numbers(err, subset, degenerate="inf")
    # fully converged error matrix: fall back to the loosest valid factor
    factor = 1.0 if math.isinf(beta_min) else 1.0 - mu / (beta_min * d * L)
    if sigma_before is None:
        sigma_before = trace_metric(obj, x, B_before, hess=hess_x)
    sigma_after = trace_metric(obj, x_next, np.asarray(B_after, dtype=float), hess=hess_next)
    bound = factor * corr**2 * (sigma_before + 2.0 * d * phi * cm / corr)
    return bound - sigma_after


@dataclass(frozen=True)
class RateParams:
    """Constants entering the theoretical rate curves."""

    mu: float
    lipschitz_L: float
    dim: int
    cond_bound: float = 1.0
    t0: int = 0
    self_concordant_cm: float = 0.0
    delta0: float = 0.1
    decay: float = 0.5

    def __post_init__(self):
        if self.cond_bound < 1.0:
            raise ValueError(f"cond_bound must be >= 1, got {self.cond_bound}")
        if self.t0 < 0:
            raise ValueError(f"t0 must be >= 0, got {self.t0}")


@dataclass(frozen=True)
class RateBounds:
    """Rate-curve values at one iteration plus the locality radii."""

    linear: float
    superlinear: float
    delta_correction: float
    linear_region_radius: float
    superlinear_region_radius: float


def rate_bounds(p: RateParams, t: int) -> RateBounds:
    """Closed-form bound curves at iteration parameter t (relative to start).

    ``linear`` bounds the decrement ratio after t plain iterations;
    ``superlinear`` and ``delta_correction`` bound it t iterations after the
    trigger point t0.  Region radii are +inf when the self-concordance
    constant vanishes.
    """
    mu, L, d = p.mu, p.lipschitz_L, p.dim
    lin_step = 1.0 - mu / (2.0 * L)
    linear = lin_step**t
    superlinear = (1.0 - mu / (p.cond_bound * d * L)) ** (t * (t + 1) / 2.0)
    superlinear *= lin_step**p.t0
    c = p.decay ** (p.t0 + 1) * mu / (p.cond_bound * d * L)
    delta_correction = min(
        math.exp(-c * t) * lin_step**p.t0, lin_step ** (t + p.t0 + 1)
    )
    cm = p.self_concordant_cm
    linear_region = math.inf if cm == 0.0 else mu * math.log(1.5) / (4.0 * L * cm)
    superlinear_region = mu * math.log(2.0) / (4.0 * (2.0 * d + 1.0) * L)
    return RateBounds(
        linear=linear,
        superlinear=superlinear,
        delta_correction=delta_correction,
        linear_region_radius=linear_region,
        superlinear_region_radius=superlinear_region,
    )


def superlinear_trigger(betas, mu: float, L: float, d: int) -> int | None:
    """First t0 with (2dL/mu) * prod_{u<=t0}(1 - mu/(beta_u d L)) <= 1.

    ``betas`` are the logged per-iteration minimal relative condition numbers
    (first entry is iteration 1).  Returns None if the product never crosses.
    """
    product = 2.0 * d * L / mu
    if product <= 1.0:
        return 0
    for t0, beta in enumerate(betas, start=1):
        if math.isfinite(beta):
            product *= 1.0 - mu / (beta * d * L)
        else:
            product *= 1.0
        if product <= 1.0:
            return t0
    return None


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
