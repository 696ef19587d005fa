"""The solver loop ``run`` and the step of each method it runs.

Methods: gradient descent, classic limited-memory BFGS (difference pairs,
FIFO eviction), dense BFGS, dense greedy BFGS (full-basis selection with
optional correction scaling), and the limited-memory greedy method combining
basis selection, correction scaling, and pair aggregation.  Each method is a
step object.  ``run``, the single entry point, owns what they share: the warm
start, one value/gradient evaluation per iterate, the stop rule, the
divergence guard, the dense diagnostics and the trace; its observer receives
a ``StepSnapshot`` after each ``lg_bfgs`` step.

Every run is strictly sequential, owns its state, and is deterministic for a
given configuration; traces carry one record per evaluated iterate.  For every
method and diagnostics setting, the guard stops the run as ``diverged`` when
its value grows for too many consecutive iterations or its value, gradient or
iterate turns non-finite; iterates are checked before the objective sees them,
and diagnostics are computed only for rows that pass the guard.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from . import aggregation, diagnostics, greedy, kernels
from .correction import CorrectionConfig, apply_scaling, scale_factor, weighted_step_norm
from .errors import CurvatureError
from .greedy import SubsetPolicy, greedy_pair, subset_indices
from .objectives import Objective
from .pairs import CurvaturePair, PairStore

GD = "gd"
LBFGS = "lbfgs"
BFGS_DENSE = "bfgs_dense"
GREEDY_BFGS = "greedy_bfgs"
LG_BFGS = "lg_bfgs"
METHODS = (GD, LBFGS, BFGS_DENSE, GREEDY_BFGS, LG_BFGS)


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by all methods.

    ``alpha=None`` resolves to the method default: 1 for quasi-Newton methods,
    1/L for gradient descent.  ``h0_scale=None`` resolves to 1/L (seed
    operator L*I).  ``lbfgs_scaling`` picks the seed for the classic
    limited-memory baseline: the fixed 1/L or the newest-pair rescaling.
    """

    method: str = LG_BFGS
    alpha: float | None = None
    tau: int = 10
    max_iters: int = 100
    grad_tol: float = 1e-12
    correction: CorrectionConfig = field(default_factory=CorrectionConfig)
    subset_policy: SubsetPolicy = field(default_factory=SubsetPolicy)
    warm_start_k0: int = 0
    h0_scale: float | None = None
    lbfgs_scaling: str = "fixed"
    record_dense_diags: bool = False
    aggregation_tol: float = 1e-8
    divergence_patience: int = 20

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.alpha is not None and not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.warm_start_k0 < 0:
            raise ValueError(f"warm_start_k0 must be >= 0, got {self.warm_start_k0}")
        if self.lbfgs_scaling not in ("fixed", "latest_pair"):
            raise ValueError(f"unknown lbfgs_scaling {self.lbfgs_scaling!r}")


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


@dataclass
class Trace:
    """Full run output: per-iterate records plus the final state."""

    method: str
    tau: int
    records: list[IterationRecord]
    stop_reason: str
    x_final: np.ndarray

    @property
    def final_grad_norm(self) -> float:
        return self.records[-1].grad_norm


@dataclass
class StepSnapshot:
    """Observer payload for one limited-memory greedy step (dense-replay hooks)."""

    t: int
    x: np.ndarray
    x_next: np.ndarray
    psi: float
    candidates: list[int]
    store_before: PairStore
    store_after: PairStore


class _Step:
    """One method's state between iterates; the base class is gradient descent.

    From an iterate x with gradient g, ``run`` moves to
    x_next = x + alpha * direction(t, x, g).  When x_next is finite, ``run``
    calls ``curvature(t, x, x_next)``, which returns the record fields of the
    step, then evaluates x_next and hands the gradient there to ``update``.
    ``pair_count`` is the memory in use after the step.
    """

    pair_count = 0

    def __init__(self, obj: Objective, cfg: SolverConfig, observer=None):
        self.obj = obj
        self.cfg = cfg
        self.observer = observer
        self.tau = cfg.tau
        L = obj.info.lipschitz_L
        self.alpha = cfg.alpha if cfg.alpha is not None else (1.0 / L if cfg.method == GD else 1.0)
        self.h0 = cfg.h0_scale if cfg.h0_scale is not None else 1.0 / L

    def direction(self, t: int, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Search direction at x."""
        return -g

    def curvature(self, t: int, x: np.ndarray, x_next: np.ndarray) -> dict:
        """Learn the curvature at x_next before it is evaluated."""
        return {}

    def update(self, x, g, x_next, g_next) -> None:
        """Learn from the gradient at x_next."""

    def dense_B(self) -> np.ndarray | None:
        """Dense Hessian approximation for the ``sigma`` diagnostic, if tracked."""
        return None


class _SecantStep(_Step):
    """Methods keeping the difference pair of a step when its curvature is positive."""

    def update(self, x, g, x_next, g_next):
        s, r = x_next - x, g_next - g
        if float(s @ r) > 0.0:
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

    def __init__(self, obj, cfg, observer=None):
        super().__init__(obj, cfg, observer)
        self.pairs: deque = deque(maxlen=cfg.tau)

    def direction(self, t, x, g):
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

    def __init__(self, obj, cfg, observer=None):
        super().__init__(obj, cfg, observer)
        self.H = self.h0 * np.eye(obj.info.dim)

    def direction(self, t, x, g):
        return -(self.H @ g)

    def absorb(self, s, r):
        self.H = kernels.dense_inv_bfgs_update(self.H, s, r)


class _GreedyBfgs(_Step):
    """Dense greedy baseline: full-basis selection, optional correction."""

    def __init__(self, obj, cfg, observer=None):
        super().__init__(obj, cfg, observer)
        self.B = np.eye(obj.info.dim) / self.h0
        self.full_basis = list(range(obj.info.dim))

    def dense_B(self):
        return self.B

    def direction(self, t, x, g):
        try:
            return -scipy.linalg.cho_solve(scipy.linalg.cho_factor(self.B), g)
        except scipy.linalg.LinAlgError as exc:
            raise CurvatureError(f"dense approximation lost definiteness: {exc}") from exc

    def curvature(self, t, x, x_next):
        phi = weighted_step_norm(self.obj, x, x_next)
        psi = scale_factor(phi, self.cfg.correction, self.obj.info.self_concordant_CM, t)
        B_hat = psi * self.B
        denom = self.obj.hess_diag(x_next, self.full_basis)
        index = int(np.argmax(np.diag(B_hat) / denom))
        r = self.obj.hess_column(x_next, index)
        extra = {}
        if self.cfg.record_dense_diags:
            _, extra["beta_tau"] = diagnostics.relative_condition_numbers(
                B_hat - self.obj.hess_matrix(x_next), self.full_basis, degenerate="inf"
            )
        s = np.zeros(self.obj.info.dim)
        s[index] = 1.0
        self.B = kernels.dense_bfgs_update(B_hat, s, r)
        return extra


class _LgBfgs(_Step):
    """Limited-memory greedy step: two-loop direction, correction scaling,
    greedy pair selection over the policy subset, and C1/C2/C3 retention."""

    def __init__(self, obj, cfg, observer=None):
        if cfg.subset_policy.mode == greedy.FIXED_PREFIX and cfg.tau > obj.info.dim:
            raise ValueError("fixed_prefix policy requires tau <= dim")
        super().__init__(obj, cfg, observer)
        self.store = PairStore(dim=obj.info.dim, tau=min(cfg.tau, obj.info.dim),
                               h0_scale=self.h0)
        self.tau = self.store.tau

    def dense_B(self):
        return kernels.dense_B_from_pairs(self.store)

    def direction(self, t, x, g):
        return kernels.two_loop_direction(self.store, g)

    def curvature(self, t, x, x_next):
        obj, store, cfg = self.obj, self.store, self.cfg
        store_before = store.snapshot() if self.observer or cfg.record_dense_diags else None
        phi = weighted_step_norm(obj, x, x_next)
        psi = scale_factor(phi, cfg.correction, obj.info.self_concordant_CM, t)
        apply_scaling(store, psi)
        candidates = subset_indices(cfg.subset_policy, store, obj.info.dim)
        index, r = greedy_pair(obj, x_next, store, candidates)
        extra = {}
        if cfg.record_dense_diags:
            err = psi * kernels.dense_B_from_pairs(store_before) - obj.hess_matrix(x_next)
            _, extra["beta_tau"] = diagnostics.relative_condition_numbers(
                err, candidates, degenerate="inf"
            )
        tag = store.classify(index)
        new_pair = CurvaturePair(index, r)
        if tag.kind == "C1":
            store.insert_c1(new_pair)
        elif tag.kind == "C2":
            store.replace_c2(new_pair)
        else:
            aggregation.aggregate_c3(store, tag.j, new_pair, tol=cfg.aggregation_tol)
        if self.observer is not None:
            self.observer(StepSnapshot(
                t=t, x=x.copy(), x_next=x_next.copy(), psi=psi, candidates=list(candidates),
                store_before=store_before, store_after=store.snapshot()))
        self.pair_count = store.size
        extra["case_tag"] = tag.kind
        return extra


_STEPS = {
    GD: _Step,
    LBFGS: _Lbfgs,
    BFGS_DENSE: _BfgsDense,
    GREEDY_BFGS: _GreedyBfgs,
    LG_BFGS: _LgBfgs,
}


def run(obj: Objective, x0, cfg: SolverConfig,
        observer: Optional[Callable[[StepSnapshot], None]] = None) -> Trace:
    """Run the configured method from x0, after ``cfg.warm_start_k0`` warm-start
    steps; ``observer`` receives a ``StepSnapshot`` after each ``lg_bfgs`` step."""
    method = _STEPS[cfg.method](obj, cfg, observer)
    x = np.asarray(x0, dtype=float)
    if cfg.warm_start_k0 > 0:
        x = warm_start(obj, x, cfg.warm_start_k0, h0_scale=cfg.h0_scale)
    records: list[IterationRecord] = []
    start = time.perf_counter()
    f_prev, increases = np.inf, 0
    f, g = obj.value_grad(x)
    for t in range(cfg.max_iters + 1):
        f_t, gnorm = float(f), float(np.linalg.norm(g))
        finite = np.isfinite(f_t) and np.all(np.isfinite(g))
        increases = increases + 1 if f_t > f_prev else 0
        diverged = not finite or (f_t > f_prev and increases >= cfg.divergence_patience)
        f_prev = f_t
        fields = {}
        if cfg.record_dense_diags and not diverged:
            fields["lambda_f"] = diagnostics.newton_decrement(obj, x)
            B = method.dense_B()
            if B is not None:
                fields["sigma"] = diagnostics.trace_metric(obj, x, B)
        stop_reason = ("diverged" if diverged else "grad_tol" if gnorm <= cfg.grad_tol
                       else "max_iters" if t == cfg.max_iters else None)
        if stop_reason is None:
            x_next = x + method.alpha * method.direction(t, x, g)
            if np.all(np.isfinite(x_next)):
                fields.update(method.curvature(t, x, x_next))
                f, g_next = obj.value_grad(x_next)
                method.update(x, g, x_next, g_next)
                g = g_next
            else:
                stop_reason = "diverged"
            x = x_next
        records.append(IterationRecord(t, f_t, gnorm, method.pair_count,
                                       time.perf_counter() - start, **fields))
        if stop_reason is not None:
            break
    return Trace(cfg.method, method.tau, records, stop_reason, x)


def warm_start(obj: Objective, x0, k0: int, alpha: float = 1.0,
               h0_scale: float | None = None) -> np.ndarray:
    """Iterate the dense greedy baseline k0 times from x0 and return the result."""
    if k0 < 0:
        raise ValueError(f"k0 must be >= 0, got {k0}")
    if k0 == 0:
        return np.array(x0, dtype=float)
    cfg = SolverConfig(
        method=GREEDY_BFGS,
        alpha=alpha,
        max_iters=k0,
        grad_tol=0.0,
        h0_scale=h0_scale,
        correction=CorrectionConfig(mode="off"),
    )
    return run(obj, x0, cfg).x_final
