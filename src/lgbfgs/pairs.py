"""Bounded, ordered curvature-pair history with basis-index bookkeeping.

Variable variations are always coordinate basis vectors, so a pair is a basis
index and its gradient variation r, and a test of whether two variations are
collinear reduces to exact index comparison.  The variations are the columns of one preallocated
column-major d x tau array, oldest first; ``R`` is its live d x size block,
contiguous per variation for the two-loop and as a block for the compact
representation.  ``replace_suffix`` is the store's one mutation: it checks a
whole rewritten suffix before writing any of it, so every invariant holds
after every call.  ``lgbfgs.aggregation.retain`` alone tells the retention
cases apart: a C1 (new index) is a one-pair suffix at slot ``size``, a C2
(the most recent index) one at slot ``size - 1``, and a C3 (an older index)
the suffix that aggregation rewrites.
"""

from __future__ import annotations

import numpy as np

from .errors import CurvatureError


class PairStore:
    """Ordered pair history (oldest first) bounded by ``tau``.

    ``h0_scale`` is the scalar of the diagonal seed operator for the implicit
    inverse-Hessian fold; ``dim`` and ``tau`` are the array's fixed shape.
    ``replace_suffix`` keeps at most ``tau`` pairs with pairwise distinct
    indices and positive curvatures r[index].
    """

    def __init__(self, dim: int, tau: int, h0_scale: float = 1.0):
        if not 1 <= tau <= dim:
            raise ValueError(f"tau must be in [1, dim], got tau={tau} dim={dim}")
        if not h0_scale > 0:
            raise ValueError(f"h0_scale must be positive, got {h0_scale}")
        self.h0_scale = float(h0_scale)
        self._R = np.zeros((int(dim), int(tau)), order="F")
        self._idx: list[int] = []

    # -- views ---------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._R.shape[0]

    @property
    def tau(self) -> int:
        return self._R.shape[1]

    @property
    def size(self) -> int:
        return len(self._idx)

    @property
    def indices(self) -> list[int]:
        return list(self._idx)

    @property
    def R(self) -> np.ndarray:
        """The stored gradient variations as a live d x size view, oldest first."""
        return self._R[:, : len(self._idx)]

    # -- mutation ------------------------------------------------------------

    def check_pair(self, index: int, r) -> np.ndarray:
        """r as a float vector, once the pair (index, r) has an index in
        [0, dim), shape (dim,), finite entries and curvature r[index] > 0."""
        r = np.asarray(r, dtype=float)
        if r.shape != (self.dim,):
            raise ValueError(f"gradient variation has shape {r.shape}, expected ({self.dim},)")
        self._check_columns([int(index)], r[:, None])
        return r

    def _check_columns(self, indices, R: np.ndarray) -> None:
        """Checks index range, finite entries and curvature R[indices[k], k] > 0 of
        the pairs (indices[k], R[:, k]) in one pass each, naming the first offender."""
        dim = self.dim
        for i in indices:
            if not 0 <= i < dim:
                raise IndexError(f"basis index {i} out of range for dim {dim}")
        # each check scans everything once and looks for the offender only on failure
        if not np.isfinite(R).all():
            k = int(np.argmin(np.isfinite(R).all(axis=0)))
            raise ValueError(f"gradient variation at index {indices[k]} has non-finite entries")
        curv = R[indices, range(len(indices))]
        if not (curv > 0.0).all():
            k = int(np.argmin(curv > 0.0))
            raise CurvatureError(f"pair at index {indices[k]} has curvature {curv[k]:.3e} <= 0")

    def replace_suffix(self, j: int, indices, R: np.ndarray) -> None:
        """Replace the pairs from slot j on by the columns of ``R`` at ``indices``;
        checks run before anything is written."""
        if not 0 <= j <= self.size:
            raise IndexError(f"slot {j} out of range [0, {self.size}]")
        indices = [int(i) for i in indices]
        if R.shape != (self.dim, len(indices)):
            raise ValueError(
                f"suffix has shape {R.shape}, expected ({self.dim}, {len(indices)})"
            )
        self._check_columns(indices, R)
        new = self._idx[:j] + indices
        if len(new) > self.tau:
            raise CurvatureError(f"store size {len(new)} exceeds tau={self.tau}")
        if len(set(new)) != len(new):
            raise CurvatureError(f"stored indices are not pairwise distinct: {new}")
        self._R[:, j : len(new)] = R
        self._idx = new
