"""Greedy curvature-pair generation.

Picks the basis vector maximizing the diagonal ratio between the implicit
direct operator and the true Hessian at the new iterate, over a restricted
candidate subset, then forms the gradient variation as one Hessian column.
Ties break to the smallest index so traces are reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import CurvatureError
from .kernels import compact_B_diag
from .objectives import Objective, Point
from .pairs import PairStore

FIXED_PREFIX = "fixed_prefix"
ADAPTIVE = "adaptive"
POLICIES = (FIXED_PREFIX, ADAPTIVE)


def subset_indices(mode: str, store: PairStore) -> list[int]:
    """Candidate basis indices under the policy ``mode``, ascending for
    tie-break order.  fixed_prefix: always the first tau coordinates.
    adaptive: the full basis while the store has room, then the stored indices.
    """
    if mode == FIXED_PREFIX:
        return list(range(store.tau))
    if store.size < store.tau:
        return list(range(store.dim))
    return sorted(store.indices)


def greedy_pair(
    obj: Objective,
    x_next: np.ndarray | Point,
    store: PairStore,
    candidates,
) -> tuple[int, np.ndarray]:
    """Greedily selected (basis index, Hessian column) at the new iterate.

    Maximizes e_i'Be_i / e_i'hess(x_next)e_i over the candidates; numerators
    come from the compact representation, denominators from fused Hessian
    diagonal entries.  The returned column is the gradient variation of the
    new pair.  Passing x_next as a ``Point`` lets both Hessian reads share its
    curvature weights.
    """
    cand = sorted(int(i) for i in candidates)
    if not cand:
        raise ValueError("candidate subset is empty")
    numer = compact_B_diag(store, cand)
    denom = obj.hess_diag(x_next, cand)
    if np.any(denom <= 0.0):
        bad = cand[int(np.argmin(denom))]
        raise CurvatureError(
            f"Hessian diagonal entry at index {bad} is not positive"
        )
    ratios = numer / denom
    best = cand[int(np.argmax(ratios))]
    return best, obj.hess_column(x_next, best)
