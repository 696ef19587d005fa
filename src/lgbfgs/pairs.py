"""Bounded, ordered curvature-pair container with basis-index bookkeeping.

Variable variations are always coordinate basis vectors, so they are stored as
indices and parallelism tests reduce to exact index comparison.  Each incoming
pair is classified against the store:

* C1 -- index not stored yet (only legal below capacity): append.
* C2 -- index equals the most recently stored one: replace the last pair.
* C3 -- index equals an older stored pair j: handled by aggregation
  (see ``lgbfgs.aggregation``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CurvatureError


@dataclass
class CurvaturePair:
    """Basis-indexed variable variation and its gradient-variation vector."""

    basis_index: int
    r: np.ndarray

    def __post_init__(self):
        self.basis_index = int(self.basis_index)
        self.r = np.asarray(self.r, dtype=float)
        if self.r.ndim != 1:
            raise ValueError("gradient variation must be a vector")
        if not np.all(np.isfinite(self.r)):
            raise ValueError("gradient variation has non-finite entries")
        if not 0 <= self.basis_index < self.r.shape[0]:
            raise IndexError(
                f"basis index {self.basis_index} out of range for dim {self.r.shape[0]}"
            )
        if self.curvature <= 0.0:
            raise CurvatureError(
                f"pair at index {self.basis_index} has curvature "
                f"{self.curvature:.3e} <= 0"
            )

    @property
    def curvature(self) -> float:
        """s'r with s the implicit unit basis vector."""
        return float(self.r[self.basis_index])

    def s_dense(self) -> np.ndarray:
        s = np.zeros(self.r.shape[0])
        s[self.basis_index] = 1.0
        return s


@dataclass(frozen=True)
class CaseTag:
    """Classification of an incoming pair: C1, C2, or C3 with the stale slot j."""

    kind: str
    j: int | None = None

    def __post_init__(self):
        if self.kind not in ("C1", "C2", "C3"):
            raise ValueError(f"unknown case kind {self.kind!r}")
        if (self.kind == "C3") != (self.j is not None):
            raise ValueError("C3 requires a slot index j; C1/C2 forbid it")


@dataclass
class PairStore:
    """Ordered pair history (oldest first) bounded by ``tau``.

    ``h0_scale`` is the scalar of the diagonal seed operator for the implicit
    inverse-Hessian fold.  ``validate=True`` re-checks the size and
    distinct-index invariants after every mutation.
    """

    dim: int
    tau: int
    h0_scale: float = 1.0
    validate: bool = True
    pairs: list[CurvaturePair] = field(default_factory=list)

    def __post_init__(self):
        if not 1 <= self.tau <= self.dim:
            raise ValueError(f"tau must be in [1, dim], got tau={self.tau} dim={self.dim}")
        if not self.h0_scale > 0:
            raise ValueError(f"h0_scale must be positive, got {self.h0_scale}")
        self._check()

    # -- views ---------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def indices(self) -> list[int]:
        return [p.basis_index for p in self.pairs]

    def snapshot(self) -> "PairStore":
        """Read-only copy for diagnostics; pair vectors are copied."""
        return PairStore(
            dim=self.dim,
            tau=self.tau,
            h0_scale=self.h0_scale,
            validate=self.validate,
            pairs=[CurvaturePair(p.basis_index, p.r.copy()) for p in self.pairs],
        )

    # -- classification and mutation ------------------------------------------

    def classify(self, new_index: int) -> CaseTag:
        """Classify an incoming basis index against the stored ones.

        Pure index comparison: C2 if it matches the last stored pair, C3(j) if
        it matches an earlier pair j, C1 otherwise.  A C1 at capacity means the
        caller violated the subset restriction and is an internal error.
        """
        new_index = int(new_index)
        if not 0 <= new_index < self.dim:
            raise IndexError(f"basis index {new_index} out of range [0, {self.dim})")
        idx = self.indices
        if new_index not in idx:
            if self.size >= self.tau:
                raise CurvatureError(
                    "new basis index outside a full store: the greedy subset "
                    "restriction was violated"
                )
            return CaseTag("C1")
        j = idx.index(new_index)
        if j == self.size - 1:
            return CaseTag("C2")
        return CaseTag("C3", j=j)

    def insert_c1(self, pair: CurvaturePair) -> None:
        if self.size >= self.tau:
            raise CurvatureError(f"store at capacity tau={self.tau}; cannot append")
        if pair.basis_index in self.indices:
            raise CurvatureError(
                f"index {pair.basis_index} already stored; appending would "
                "duplicate a variation"
            )
        self.pairs.append(pair)
        self._check()

    def replace_c2(self, pair: CurvaturePair) -> None:
        if not self.pairs:
            raise CurvatureError("cannot replace the last pair of an empty store")
        if pair.basis_index != self.pairs[-1].basis_index:
            raise CurvatureError(
                f"index {pair.basis_index} does not match the last stored "
                f"index {self.pairs[-1].basis_index}"
            )
        self.pairs[-1] = pair
        self._check()

    # -- invariants ------------------------------------------------------------

    def _check(self) -> None:
        if not self.validate:
            return
        if self.size > self.tau:
            raise CurvatureError(f"store size {self.size} exceeds tau={self.tau}")
        idx = self.indices
        if len(set(idx)) != len(idx):
            raise CurvatureError(f"stored indices are not pairwise distinct: {idx}")
        for p in self.pairs:
            if p.r.shape != (self.dim,):
                raise ValueError("stored pair dimension mismatch")
