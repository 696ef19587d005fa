"""The benchmark's workloads: one synthetic logistic problem and its solver cells each.

Every workload builds its problem with ``lgbfgs.data.synth_problem`` from the
seed given on the command line (Gaussian rows scaled to unit norm, random +-1
labels, mu = 1e-4), optionally warm-starts with ``lgbfgs.solvers.warm_start``,
and runs its cells one at a time with ``lgbfgs.solvers.run``: the calls that
``lgbfgs run`` makes.  Each workload is bound by a different layer; see
``perfbench/README.md`` for the measured shares.
"""

from __future__ import annotations

from dataclasses import dataclass

MU = 1e-4


@dataclass(frozen=True)
class Cell:
    """One (method, tau) run.

    The cell stops at ``max_iters`` when ``grad_tol`` is zero, and otherwise
    at grad norm <= ``grad_tol``; ``max_iters`` is then only a cap.
    """

    method: str
    max_iters: int
    tau: int = 10
    grad_tol: float = 0.0

    @property
    def to_tol(self) -> bool:
        return self.grad_tol > 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    warm_start_k0: int
    cells: tuple[Cell, ...]
    # traced spans that must record no calls; every other traced span must
    # record at least one
    idle_spans: tuple[str, ...]
    # lg_bfgs retention cases the workload guarantees to occur / never to occur
    cases_seen: tuple[str, ...] = ()
    cases_absent: tuple[str, ...] = ()


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="fill-d1000",
            n=5000,
            d=1000,
            warm_start_k0=5,
            # 8 < tau steps: the store never fills, so every step is C1 over
            # all 1000 candidates; lbfgs reads only value_grad, so an objective
            # change that trades gradient reads for curvature reads shows too
            cells=(
                Cell("lg_bfgs", max_iters=8, tau=50),
                Cell("greedy_bfgs", max_iters=2),
                Cell("lbfgs", max_iters=1000, tau=10, grad_tol=1e-8),
            ),
            idle_spans=("aggregation.aggregate_c3",),
            cases_seen=("C1",),
            cases_absent=("C2", "C3"),
        ),
        Workload(
            name="c3-d200",
            n=2000,
            d=200,
            warm_start_k0=5,
            # after tau C1 steps every step is C3; a fixed step count, since the
            # steps to a tolerance differ by ~10% between seeds
            cells=(Cell("lg_bfgs", max_iters=120, tau=20),),
            idle_spans=(),
            cases_seen=("C1", "C3"),
        ),
    )
}
