"""Displacement aggregation for repeated basis directions.

When a new pair's variation matches stored pair j (with j not the most recent
slot), pair j is dropped and the gradient variations of the pairs after it are
rewritten so that the implicit inverse operator built from the shortened
history equals the one built from the full history plus the new pair
(displacement aggregation: Berahas, Curtis and Zhou, Math. Program. 2022).
``retain`` sorts each incoming pair into the three retention cases (C1
append, C2 replace the last pair, C3 this event) and writes each through the
store's one mutation, ``PairStore.replace_suffix``.

The rewritten suffix is one Schur complement per pair.  Let a be the stale
index.  An inverse update along e_b leaves H's block off row and column b
unchanged, so the appended pair (e_a, r) reads the history only through H's
block off a, the inverse of Schur_a(B) = B - B e_a e_a' B / B_aa.  A pair
(e_b, y) with y[a] = 0 updates that block by a BFGS update in the coordinates
off a, and so, in the old history, does each pair after j, with the variation
its secant equation gives.  Hence pair i of the suffix, index b_i, becomes
y_i'' = Schur_a(B_i) e_{b_i}, B_i the old fold's direct operator after pair i:
y_i''[a] = 0, and neither a swap order nor a root enters.

The direct operators come from the seed-free compact form
B_i = (I - S S')/h0 + F F' of ``kernels._compact_factor``, F = V C with
C C' = K^-1, carried over the store's own order: appending the pair (b, y)
turns K into blockdiag(K + h0 l l', y[b]) with l = V[b, :]', so F becomes
[F (I - beta w w'), y / sqrt(y[b])] with w = F[b, :]', s = sqrt(1 + h0 w'w),
beta = h0 / (s (1 + s)), and row b leaves its old columns: one rank-one
update, O(m d) per pair and O(m^2 d) per event.  The update shrinks w by
1/s <= 1, so it never amplifies the rounding already in F.  With a and b_i
both stored, Schur_a(B_i) = (I - S S')/h0 + G G' for the projected factor
G = F - (F f) f'/|f|^2, f = F[a, :]', so y_i'' = G G[b_i, :]' has no 1/h0 term,
row a of G is exactly zero and the curvature |G[b_i, :]|^2 is positive.  The
factor is projected before the product: the equal form y_i - (y_i[a]/v_a) v,
v = B_i e_a, cancels in full coordinates and misses the gate on
ill-conditioned histories.  The store commits the rewritten suffix in one call.

Every event is gated on the exact defect between the rewritten and the
full-history fold (``_fold_defect``: no basis, one triangular solve per fold),
read from the histories alone, never from the rewrite's state.  If the defect
exceeds the tolerance, the event raises ``AggregationError`` and leaves the
store unchanged.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import dger, dtrsm

from .errors import AggregationError
from .kernels import _two_loop
from .pairs import PairStore

# relative tolerance of the aggregation gate on the fold defect
GATE_TOL = 1e-8


def _fold_defect(prefix, suffix_a, suffix_b, h0: float) -> tuple[float, float]:
    """Exact Frobenius distance between two suffix folds over a shared prefix.

    ``prefix`` and both suffixes are histories (indices, R); ``suffix_b`` lists
    the indices of ``suffix_a`` after the last of them, as an event's full
    suffix does.  A suffix with basis vectors S and variations Y folds the
    prefix operator H_p into H_p + Theta, in the inverse compact form of Byrd,
    Nocedal and Schnabel (1994): Theta = S A S' - S X' - X S' with R = triu(S'Y),
    D its diagonal, W = H_p Y, X = W R^-1 and A = R^-T (D + Y'W) R^-1 = G'G + Z'X
    for G = D^1/2 R^-1, Z = Y R^-1.  Theta is zero outside its sigma x sigma
    block, sigma the suffix indices, and its (not sigma) x sigma block and
    transpose, so |Theta|^2 = |Theta_ss|^2 + 2 |Theta_ps|^2.  Returns (defect,
    scale), scale the second fold's |Theta| floored at sqrt(d) h0.
    """
    sigma = list(suffix_a[0])
    if list(suffix_b[0]) != sigma[-1:] + sigma:
        raise ValueError(f"suffix indices {list(suffix_b[0])} are not {sigma[-1:] + sigma}")
    d, k = len(suffix_a[1]), len(sigma)
    w = _two_loop(prefix[1], prefix[0], h0, np.hstack([suffix_a[1], suffix_b[1]]))

    def fold(idx, Y, W):
        # (A, X) with columns in sigma's order, from one solve
        # [Z; G; X; G] R = [Y; D^1/2; W; D^1/2] that reads only R, the upper
        # triangle of S'Y; A = [Z; G]'[X; G] never forms D + Y'W, which cancels
        # when R is ill-conditioned
        n, SY = len(idx), Y[idx, :]
        rhs = np.empty((2 * (d + n), n), order="F")
        rhs[:d], rhs[d + n:-n] = Y, W
        rhs[d:d + n] = rhs[-n:] = np.diag(np.sqrt(SY.diagonal()))
        sol = dtrsm(1.0, SY, rhs, side=1, overwrite_b=1)
        if n > k:
            # S' restricted to sigma: the repeated index sums its two columns
            sol[:, -1] += sol[:, 0]
            sol = sol[:, 1:]
        return sol[:d + n].T @ sol[d + n:], sol[d + n:-n]

    def norm(A, X):
        # |Theta| from its sigma x sigma block and, with X's sigma rows zeroed in
        # place, the rest of its columns
        XS = X[sigma]
        X[sigma] = 0.0
        return math.hypot(np.linalg.norm(A - XS - XS.T), math.sqrt(2.0) * np.linalg.norm(X))

    A_a, X_a = fold(sigma, suffix_a[1], w[:, :k])
    A_b, X_b = fold(sigma[-1:] + sigma, suffix_b[1], w[:, k:])
    defect = norm(A_a - A_b, X_a - X_b)
    return defect, max(norm(A_b, X_b), math.sqrt(d) * h0, 1e-30)


def _schur_suffix(store: PairStore, j: int, r: np.ndarray) -> np.ndarray:
    """The variations of pairs j + 1, ..., m - 1 rewritten without stale pair j,
    followed by the new variation ``r``: column k is G G[b, :]' for pair
    p = j + 1 + k with index b, G the projected factor of B_p (module docstring).

    F[:, :p] is the factor of the direct operator B = (I - S S')/h0 + F F' of
    the store's first p pairs, grown one rank-one update per pair.
    """
    m, h0, idx, R = store.size, store.h0_scale, store.indices, store.R
    a = idx[j]
    F = np.zeros((store.dim, m), order="F")
    out = np.empty((store.dim, m - j), order="F")
    for p, i in enumerate(idx):
        # append pair p, index i: F <- [F (I - beta w w'), R[:, p] / sqrt(R[i, p])]
        # with w = F[i, :]'; then row i leaves the older columns.  dger updates
        # F[:, :p] in place only because that block is Fortran-contiguous, and
        # rejects it while it is empty (p = 0)
        if p:
            w = F[i, :p]
            s = math.sqrt(1.0 + h0 * (w @ w))
            dger(-h0 / (s * (1.0 + s)), F[:, :p] @ w, w, a=F[:, :p], overwrite_a=1)
            F[i, :p] = 0.0
        np.divide(R[:, p], math.sqrt(R[i, p]), out=F[:, p])
        if p > j:
            # Schur_a(B_p) e_i = G G[i, :]', G = F - (F f) f'/|f|^2 with f = F[a, :]'
            f = F[a, : p + 1]
            G = dger(-1.0 / (f @ f), F[:, : p + 1] @ f, f, a=F[:, : p + 1])
            G[a] = 0.0
            np.dot(G, G[i], out=out[:, p - j - 1])
    out[:, -1] = r
    return out


def _event_histories(store: PairStore, j: int, index: int, r: np.ndarray):
    """The histories (indices, R) prefix, rewritten suffix and full suffix of the
    C3 event at slot j for the pair (index, r)."""
    idx, R = store.indices, store.R
    rewritten = (idx[j + 1:] + [int(index)], _schur_suffix(store, j, r))
    full = (idx[j:] + [int(index)], np.column_stack([R[:, j:], r]))
    return (idx[:j], R[:, :j]), rewritten, full


def retain(store: PairStore, index: int, r: np.ndarray) -> str:
    """Retain the pair (index, r) in the store and return its case; the one
    place that tells the cases apart.

    C1: the index is not stored, so the pair is appended as a one-pair suffix
    at slot ``size`` (below capacity only; at capacity the greedy subset was
    violated and ``CurvatureError`` is raised).  C2: it is the most recent
    index, whose pair is replaced by a one-pair suffix at slot ``size - 1``.
    C3: it is an older stored index, whose pair ``aggregate_c3`` drops.
    """
    stored = store.indices
    if index in stored[:-1]:
        aggregate_c3(store, index, r)
        return "C3"
    c2 = stored[-1:] == [index]
    slot = store.size - 1 if c2 else store.size
    store.replace_suffix(slot, [index], np.asarray(r, dtype=float)[:, None])
    return "C2" if c2 else "C1"


def aggregate_c3(store: PairStore, index: int, r: np.ndarray) -> None:
    """Drop the stale pair at ``index``, rewrite downstream variations, append
    the pair (index, r).

    Mutates the store in place; size and index-distinctness are preserved and
    the implicit inverse operator matches the full-history one within
    ``GATE_TOL`` (relative, gated on the exact defect).  Raises
    ``AggregationError``, leaving the store unchanged, when ``index`` is not
    stored or is the most recent index, or the defect exceeds ``GATE_TOL``.
    """
    r = store.check_pair(index, r)
    stored, index = store.indices, int(index)
    if index not in stored[:-1]:
        raise AggregationError(
            f"aggregation requires a C3 event; index {index} is not stored "
            f"before the last slot (stored {stored})"
        )
    j = stored.index(index)
    histories = _event_histories(store, j, index, r)
    defect, scale = _fold_defect(*histories, store.h0_scale)
    # a NaN defect, from a curvature or |f|^2 that underflowed, fails the gate too
    if not defect <= GATE_TOL * scale:
        raise AggregationError(
            f"aggregation defect {defect:.3e} exceeds {GATE_TOL:.1e} * scale "
            f"{scale:.3e} (block size {store.size - j}, dropped slot {j})"
        )
    store.replace_suffix(j, *histories[1])
