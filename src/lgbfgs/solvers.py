"""The solver loop ``run`` and the step of each method it runs.

Methods: gradient descent, classic limited-memory BFGS (difference pairs,
FIFO eviction), dense BFGS, dense greedy BFGS (full-basis selection with
optional correction scaling), and the limited-memory greedy method combining
basis selection, correction scaling, and pair aggregation.  Each method is a
step object.  ``run``, the single entry point, owns what they share: one
value/gradient evaluation per iterate, the stop rule, the divergence guard,
the dense diagnostics and the trace; a caller that wants a warm start passes
the point ``warm_start`` returns.  With ``record_dense_diags`` it forms one
dense Hessian and its Cholesky factor per row, with the method's dense
approximation if it tracks one, and fills an ``lg_bfgs`` step's ``beta_tau``
(and, under ``basic``, its ``contraction`` slack) from the rows at both ends
of the step; a step whose next row fails the guard gets neither.  A step's
other internals are read by wrapping the names this module calls:
``weighted_step_norm``, ``apply_scaling`` and ``greedy_pair``.  ``run`` builds
one objective ``Point`` per iterate (``obj.at``) and passes it to every
objective read at that iterate, so what it derives from x alone is computed once.

Every run is strictly sequential, owns its state, and is deterministic for a
given configuration, the BLAS thread count included (one and two threads
round differently); traces carry one record per evaluated iterate.  For every
method and diagnostics setting, the guard stops the run as ``diverged`` when
its value grows for too many consecutive iterations or its value, gradient or
iterate turns non-finite; iterates are checked before the objective sees them,
and diagnostics are computed only for rows that pass the guard.  A step that
raises ``CurvatureError`` or ``AggregationError``, or a row whose dense
diagnostics raise ``DiagnosticsError``, ends its run as ``curvature_error``,
``aggregation_failed`` or ``diagnostics_failed``; a ``MemoryError``, such as a
d x d state or dense diagnostic that cannot be allocated, ends it as
``out_of_memory``.  The step's state is built at t = 0 inside the same guard,
so the trace keeps its rows up to that iterate, the t = 0 row at least, and the
error is logged as a warning.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import aggregation, diagnostics, kernels
from .correction import BASIC, MODES, OFF, apply_scaling, scale_factor, weighted_step_norm
from .errors import AggregationError, CurvatureError, DiagnosticsError
from .greedy import ADAPTIVE, POLICIES, greedy_pair, subset_indices
from .objectives import Objective, Point
from .pairs import PairStore

GD = "gd"
LBFGS = "lbfgs"
BFGS_DENSE = "bfgs_dense"
GREEDY_BFGS = "greedy_bfgs"
LG_BFGS = "lg_bfgs"
METHODS = (GD, LBFGS, BFGS_DENSE, GREEDY_BFGS, LG_BFGS)

# consecutive value increases after which the guard stops a run as diverged
DIVERGENCE_PATIENCE = 20

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by all methods.

    ``alpha=None`` resolves to the method default: 1 for quasi-Newton methods,
    1/L for gradient descent.  ``h0_scale=None`` resolves to 1/L (seed
    operator L*I).  ``lbfgs_scaling`` picks the seed for the classic
    limited-memory baseline: the fixed 1/L or the newest-pair rescaling.
    ``correction`` is the scaling mode (off, basic, delta; see
    ``correction.scale_factor``) and ``subset_policy`` the greedy candidate
    rule (adaptive, fixed_prefix; see ``greedy.subset_indices``).
    """

    method: str = LG_BFGS
    alpha: float | None = None
    tau: int = 10
    max_iters: int = 100
    grad_tol: float = 1e-12
    correction: str = OFF
    subset_policy: str = ADAPTIVE
    h0_scale: float | None = None
    lbfgs_scaling: str = "fixed"
    record_dense_diags: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("alpha", "h0_scale"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not np.isfinite(self.grad_tol):
            raise ValueError(f"grad_tol must be finite, got {self.grad_tol}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.lbfgs_scaling not in ("fixed", "latest_pair"):
            raise ValueError(f"unknown lbfgs_scaling {self.lbfgs_scaling!r}")
        if self.correction not in MODES:
            raise ValueError(f"unknown correction mode {self.correction!r}")
        if self.subset_policy not in POLICIES:
            raise ValueError(f"unknown subset policy {self.subset_policy!r}")


@dataclass
class IterationRecord:
    """One trace row: state at iterate t plus the pair event of the step taken."""

    t: int
    f_value: float
    grad_norm: float
    pair_count: int
    wall_time_s: float
    lambda_f: float | None = None
    sigma: float | None = None
    beta_tau: float | None = None
    case_tag: str | None = None
    contraction: float | None = None


@dataclass
class Trace:
    """Full run output: per-iterate records plus the final state."""

    records: list[IterationRecord]
    stop_reason: str
    x_final: np.ndarray

    @property
    def final_grad_norm(self) -> float:
        return self.records[-1].grad_norm


class _Step:
    """One method's state between iterates; the base class is gradient descent.

    From an iterate x with gradient g, ``run`` moves to
    x_next = x + alpha * direction(g).  When x_next is finite, ``run`` calls
    ``curvature(t, point, point_next)`` with the objective points of x and
    x_next; it returns the record fields of the step.  The ``lg_bfgs`` step
    also sets ``applied`` to (phi, psi, candidates): the weighted step length,
    the correction scale and the index subset of its selection, from which
    ``run`` forms the step's dense diagnostics.  ``run`` then evaluates x_next and
    hands the gradient there to ``update``.  ``pair_count`` is the memory in
    use after the step.
    """

    pair_count = 0
    applied: tuple | None = None

    def __init__(self, obj: Objective, cfg: SolverConfig):
        self.obj = obj
        self.cfg = cfg
        L = obj.info.lipschitz_L
        self.alpha = cfg.alpha if cfg.alpha is not None else (1.0 / L if cfg.method == GD else 1.0)
        self.h0 = cfg.h0_scale if cfg.h0_scale is not None else 1.0 / L

    def direction(self, g: np.ndarray) -> np.ndarray:
        """Search direction at the iterate whose gradient is g."""
        return -g

    def curvature(self, t: int, point: Point, point_next: Point) -> dict:
        """Learn the curvature at x_next before it is evaluated."""
        return {}

    def update(self, x, g, x_next, g_next) -> None:
        """Learn from the gradient at x_next."""

    def dense_B(self) -> np.ndarray | None:
        """Dense Hessian approximation for the ``sigma`` diagnostic, if tracked."""
        return None


class _SecantStep(_Step):
    """Methods keeping the difference pair of a step when its curvature is a
    positive normal float: a subnormal s'r overflows 1/(s'r)."""

    def update(self, x, g, x_next, g_next):
        s, r = x_next - x, g_next - g
        if float(s @ r) >= np.finfo(float).tiny:
            self.absorb(s, r)


def _two_loop_dense(pairs, h0: float, g: np.ndarray) -> np.ndarray:
    """Two-loop recursion over dense difference pairs (classic baseline)."""
    q = g.copy()
    alphas = []
    for s, r in reversed(pairs):
        rho = 1.0 / float(s @ r)
        a = rho * float(s @ q)
        q -= a * r
        alphas.append((a, rho))
    q *= h0
    for (s, r), (a, rho) in zip(pairs, reversed(alphas)):
        b = rho * float(r @ q)
        q += (a - b) * s
    return q


class _Lbfgs(_SecantStep):
    """Classic limited-memory BFGS: difference pairs, FIFO eviction."""

    def __init__(self, obj, cfg):
        super().__init__(obj, cfg)
        self.pairs: deque = deque(maxlen=cfg.tau)

    def direction(self, g):
        h0 = self.h0
        if self.cfg.lbfgs_scaling == "latest_pair" and self.pairs:
            s_last, r_last = self.pairs[-1]
            h0 = float(s_last @ r_last) / float(r_last @ r_last)
        return -_two_loop_dense(list(self.pairs), h0, g)

    def absorb(self, s, r):
        self.pairs.append((s, r))
        self.pair_count = len(self.pairs)


class _BfgsDense(_SecantStep):
    """Dense BFGS on the inverse Hessian approximation."""

    def __init__(self, obj, cfg):
        super().__init__(obj, cfg)
        self.H = self.h0 * np.eye(obj.info.dim)

    def direction(self, g):
        return -(self.H @ g)

    def absorb(self, s, r):
        # the update is invariant under a joint scaling of (s, r); a unit s
        # keeps the factor (1 + r'Hr/c)/c of its ss' term in float range
        norm = np.linalg.norm(s)
        self.H = kernels.dense_inv_bfgs_update(self.H, s / norm, r / norm)


class _GreedyBfgs(_Step):
    """Dense greedy baseline: full-basis selection, optional correction.

    The step holds one d x d array, B.  The direction factors B in its own
    storage and restores it (``kernels.dense_solve``); the correction scales B
    in place and the update writes B+ over B.  ``dense_B`` hands out B itself,
    no copy: no row holds it across a step, since this step sets no ``applied``.
    """

    def __init__(self, obj, cfg):
        super().__init__(obj, cfg)
        self.B = np.diag(np.full(obj.info.dim, 1.0 / self.h0))
        self.full_basis = list(range(obj.info.dim))

    def dense_B(self):
        return self.B

    def direction(self, g):
        return -kernels.dense_solve(self.B, g)

    def curvature(self, t, point, point_next):
        phi = weighted_step_norm(self.obj, point, point_next)
        psi = scale_factor(phi, self.cfg.correction, self.obj.info.self_concordant_CM, t)
        if psi != 1.0:
            self.B *= psi
        denom = self.obj.hess_diag(point_next, self.full_basis)
        index = int(np.argmax(np.diag(self.B) / denom))
        r = self.obj.hess_column(point_next, index)
        s = np.zeros(self.obj.info.dim)
        s[index] = 1.0
        kernels.dense_bfgs_update(self.B, s, r)
        return {}


class _LgBfgs(_Step):
    """Limited-memory greedy step: two-loop direction, correction scaling,
    greedy pair selection over the policy subset, and C1/C2/C3 retention;
    the store holds min(tau, d) pairs under either policy."""

    def __init__(self, obj, cfg):
        super().__init__(obj, cfg)
        self.store = PairStore(dim=obj.info.dim, tau=min(cfg.tau, obj.info.dim),
                               h0_scale=self.h0)

    def dense_B(self):
        return kernels.compact_B(self.store)

    def direction(self, g):
        return kernels.two_loop_direction(self.store, g)

    def curvature(self, t, point, point_next):
        obj, store, cfg = self.obj, self.store, self.cfg
        phi = weighted_step_norm(obj, point, point_next)
        psi = scale_factor(phi, cfg.correction, obj.info.self_concordant_CM, t)
        apply_scaling(store, psi)
        candidates = subset_indices(cfg.subset_policy, store)
        self.applied = phi, psi, candidates
        index, r = greedy_pair(obj, point_next, store, candidates)
        case = aggregation.retain(store, index, r)
        self.pair_count = store.size
        return {"case_tag": case}


# the stop reason of a run that a step or a row's dense diagnostics end by
# raising one of these types or a subclass (numpy's failed allocation raises a
# subclass of MemoryError)
_FAILURES = {
    CurvatureError: "curvature_error",
    AggregationError: "aggregation_failed",
    DiagnosticsError: "diagnostics_failed",
    MemoryError: "out_of_memory",
}

_STEPS = {
    GD: _Step,
    LBFGS: _Lbfgs,
    BFGS_DENSE: _BfgsDense,
    GREEDY_BFGS: _GreedyBfgs,
    LG_BFGS: _LgBfgs,
}


def run(obj: Objective, x0, cfg: SolverConfig) -> Trace:
    """Run the configured method from x0."""
    method = _Step(obj, cfg)  # holds no state; the method's own step is built at t = 0
    x = np.asarray(x0, dtype=float)
    records: list[IterationRecord] = []
    start = time.perf_counter()
    f_prev, increases = np.inf, 0
    point = obj.at(x)
    f, g = obj.value_grad(point)
    stepped = None  # (B, hess, applied) of the last row's lg_bfgs step, dense diagnostics only
    for t in range(cfg.max_iters + 1):
        f_t, gnorm = float(f), float(np.linalg.norm(g))
        finite = np.isfinite(f_t) and np.all(np.isfinite(g))
        increases = increases + 1 if f_t > f_prev else 0
        diverged = not finite or (f_t > f_prev and increases >= DIVERGENCE_PATIENCE)
        f_prev = f_t
        fields, B, hess = {}, None, None
        stop_reason = ("diverged" if diverged else "grad_tol" if gnorm <= cfg.grad_tol
                       else "max_iters" if t == cfg.max_iters else None)
        try:
            if t == 0:
                method = _STEPS[cfg.method](obj, cfg)
            if cfg.record_dense_diags and not diverged:
                hess = obj.hess_matrix(point)
                chol = diagnostics.hessian_cholesky(hess)
                fields["lambda_f"] = diagnostics.newton_decrement(g, chol)
                B = method.dense_B()
                if B is not None:
                    fields["sigma"] = diagnostics.trace_metric(B, chol)
                if stepped is not None:
                    _step_diagnostics(records[-1], obj.info, cfg, *stepped, hess,
                                      fields["sigma"])
            stepped = None
            if stop_reason is None:
                x_next = x + method.alpha * method.direction(g)
                if np.all(np.isfinite(x_next)):
                    point_next = obj.at(x_next)
                    fields.update(method.curvature(t, point, point_next))
                    if B is not None and method.applied is not None:
                        stepped = B, hess, method.applied
                    f, g_next = obj.value_grad(point_next)
                    method.update(x, g, x_next, g_next)
                    point, g = point_next, g_next
                else:
                    stop_reason = "diverged"
                x = x_next
        except tuple(_FAILURES) as exc:
            stop_reason = next(r for kind, r in _FAILURES.items() if isinstance(exc, kind))
            logger.warning("%s tau=%d stopped at t=%d: %s: %s (stop reason %s)", cfg.method,
                           cfg.tau, t, type(exc).__name__, exc, stop_reason)
        records.append(IterationRecord(t, f_t, gnorm, method.pair_count,
                                       time.perf_counter() - start, **fields))
        if stop_reason is not None:
            break
    return Trace(records, stop_reason, x)


def _step_diagnostics(record: IterationRecord, info, cfg: SolverConfig, B, hess, applied,
                      hess_next, sigma_next) -> None:
    """Fill an ``lg_bfgs`` step's row from the dense values at both of its ends:
    B and hess at x, the step's ``applied`` (phi, psi, candidates), and the
    Hessian and trace metric at x_next.  ``beta_tau`` is the least relative
    condition number of psi * B - hess_next over the candidates; ``contraction``
    is recorded under ``basic``, the only mode whose psi is 1 + CM * phi."""
    phi, psi, candidates = applied
    _, record.beta_tau = diagnostics.relative_condition_numbers(
        psi * np.diag(B) - np.diag(hess_next), candidates)
    if cfg.correction == BASIC:
        record.contraction = diagnostics.contraction_residual(
            info, B, hess, phi, record.beta_tau, record.sigma, sigma_next)


def warm_start(obj: Objective, x0, k0: int) -> np.ndarray:
    """Iterate the uncorrected dense greedy baseline k0 times from x0, with unit
    steps and seed scale 1/L, and return the iterate it reached.  A run that
    ends on anything but ``max_iters`` or ``grad_tol`` logs one warning naming
    its stop reason."""
    if k0 < 0:
        raise ValueError(f"k0 must be >= 0, got {k0}")
    if k0 == 0:
        return np.array(x0, dtype=float)
    trace = run(obj, x0, SolverConfig(method=GREEDY_BFGS, max_iters=k0, grad_tol=0.0))
    if trace.stop_reason not in ("max_iters", "grad_tol"):
        logger.warning("warm start stopped at t=%d (stop reason %s); returning the "
                       "iterate it reached", trace.records[-1].t, trace.stop_reason)
    return trace.x_final
