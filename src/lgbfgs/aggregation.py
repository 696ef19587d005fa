"""Displacement aggregation for repeated basis directions.

When a new pair's variation matches stored pair j (with j not the most recent
slot), pair j is dropped and the gradient variations of the pairs after it are
rewritten so that the implicit inverse operator built from the shortened
history equals the one built from the full history plus the new pair.

The stale pair is bubbled to the end of the history by adjacent
transpositions.  A swap pins the trailing pair of the swapped order by the
fold's secant equation (the most recent pair of any fold satisfies it) and
the leading one by a scalar quadratic whose coefficients are closed-form in
the entries of the direct columns and variations at the two indices.  The
entries a swap knows exactly are set, not summed, so a tiny seed scale costs
them no digits.  Once the stale direction is last, appending the new
same-direction pair erases it exactly.

The swaps share one prefix state instead of rebuilding it.  The variations
sit in one copy of the store's d x m array, m the store size, whose first p
columns are the prefix grown so far.  The inverse images H_p rho of the
variations still to be swapped are carried: one batched two-loop over the
untouched prefix starts them; the images of the two rewritten variations
follow from H_p B_p e_i = e_i, since both are combinations of the old
variations and the direct columns B_p e_ia, B_p e_ib; and the inverse update
moves the rest to H_{p+1} in O(m d).

The direct columns come from the prefix's seed-free compact form
B_p = (I - S S')/h0 + F F' of ``kernels._compact_factor``, F = V C with
C C' = K^-1, so for i outside the prefix B_p e_i = e_i/h0 + F F[i, :]' and no
1/h0 term cancels.  The bubble carries F rather than factoring K: appending
the rewritten pair (ib, rho) turns K into blockdiag(K + h0 l l', rho[ib])
with l = V[ib, :]', so F becomes [F (I - beta w w'), rho / sqrt(rho[ib])]
with w = F[ib, :]', s = sqrt(1 + h0 w'w), beta = h0 / (s (1 + s)), and row
ib leaves its old columns: one rank-one update, O(m d) per swap and
O(m^2 d) per event.  The update shrinks w by 1/s <= 1 and leaves its
complement alone, so it never amplifies the rounding already in F.  The store
commits the rewritten suffix in one call.

Every event is gated on the exact defect between the rewritten and the
full-history fold (``_fold_defect``: no basis, one triangular solve per fold),
read from the histories alone, never from the bubble's state.  If a swap loses
positive curvature or the defect exceeds the tolerance, the event raises
``AggregationError`` and leaves the store unchanged.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsm

from .errors import AggregationError
from .kernels import _two_loop
from .pairs import PairStore


def _fold_defect(prefix, suffix_a, suffix_b, h0: float) -> tuple[float, float]:
    """Exact Frobenius distance between two suffix folds over a shared prefix.

    ``prefix`` and both suffixes are histories (indices, R).  A suffix with
    basis vectors S and variations Y folds the prefix operator H_p into
    H_p + Theta, in the inverse compact form of Byrd, Nocedal and Schnabel
    (1994): Theta = S A S' - S X' - X S' with R = triu(S'Y), D its diagonal,
    W = H_p Y, X = W R^-1 and A = R^-T (D + Y'W) R^-1 = G'G + Z'X for
    G = D^1/2 R^-1, Z = Y R^-1.  Theta is zero outside its sigma x sigma block,
    sigma the suffix indices, and its (not sigma) x sigma block and transpose,
    so |Theta|^2 = |Theta_ss|^2 + 2 |Theta_ps|^2.  Returns (defect, scale),
    scale the second fold's |Theta| floored at sqrt(d) h0.
    """
    w = _two_loop(prefix[1], prefix[0], h0, np.hstack([suffix_a[1], suffix_b[1]]))
    sigma = np.unique(np.concatenate([suffix_a[0], suffix_b[0]]).astype(np.intp))

    def fold(idx, Y, W):
        # one solve [Z; X; G] R = [Y; W; D^1/2] reads only R, the upper triangle
        # of S'Y; A = G'G + Z'X never forms D + Y'W, which cancels when R is
        # ill-conditioned
        SY = Y[idx, :]
        rhs = np.vstack([Y, W, np.diag(np.sqrt(SY.diagonal()))])
        Z, X, G = np.split(dtrsm(1.0, SY, rhs, side=1), [len(Y), 2 * len(Y)])
        # sel is S' restricted to sigma: a repeated index sums its two columns
        sel = np.equal.outer(idx, sigma).astype(float)
        XS = X @ sel
        ss = sel.T @ (G.T @ G + Z.T @ X) @ sel - XS[sigma] - XS[sigma].T
        XS[sigma] = 0.0
        # Theta's entries as a vector whose 2-norm is Theta's Frobenius norm
        return np.concatenate([ss.ravel(), np.sqrt(2.0) * XS.ravel()])

    w_a, w_b = np.hsplit(w, [len(suffix_a[0])])
    theta_a = fold(list(suffix_a[0]), suffix_a[1], w_a)
    theta_b = fold(list(suffix_b[0]), suffix_b[1], w_b)
    scale = max(float(np.linalg.norm(theta_b)), np.sqrt(len(w)) * h0, 1e-30)
    return float(np.linalg.norm(theta_a - theta_b)), scale


def _swap_adjacent(
    ia: int, ib: int, rho: np.ndarray, u: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Rewrite ((e_ia, rho_a), (e_ib, rho_b)) as ((e_ib, rho_b'), (e_ia, rho_a')).

    ``rho``, ``u`` and ``w`` are d x 2: the variations [rho_a, rho_b], the
    prefix direct columns [B e_ia, B e_ib] and the prefix inverse images
    [H rho_a, H rho_b].  The trailing pair is pinned by the fold's secant
    equation, the leading one by the smaller root of a scalar quadratic.
    Returns (rho_b', rho_a', H rho_b', H rho_a'), or None when rho_a' loses
    positive curvature.

    Three entries are exact in closed form and are set, not summed:
    rho_b'[ib] = kappa_b (the constraint tying x4 to x3), rho_a'[ib] =
    rho_b[ia] (B_2 e_ib = rho_b) and v_b[ia] = rho_a[ib] (B_1 e_ia = rho_a).
    Summed, they add terms as large as the 1/h0 seed, up to 1e13 times the
    result when h0 is tiny, and later swaps and the fold read them as
    curvatures and cross terms.
    """
    rho_a, rho_b = rho.T
    u_a, u_b = u.T
    w_a, w_b = w.T
    kappa_a, kappa_b = float(rho_a[ia]), float(rho_b[ib])
    c_a, c_b = 1.0 / kappa_a, 1.0 / kappa_b
    beta_aa, beta_ab, beta_bb = float(u_a[ia]), float(u_b[ia]), float(u_b[ib])
    p_ab, p_ba = float(rho_b[ia]), float(rho_a[ib])

    # rho_b' = lam1 rho_a + rho_b + x3 u_a + x4 u_b; x4 = (rhs - x3 beta_ab) / beta_bb
    # keeps rho_b'[ib] = kappa_b.  The rest of the defect is a quadratic
    # a2 x3^2 + a1 x3 + f0 whose inverse-image terms rho'H rho cancel in closed
    # form: a2 = beta_aa - beta_ab^2 / beta_bb > 0 (a Schur complement of B) and
    # f0 <= 0.  Its smaller root is taken in the form that does not cancel
    lam1 = -c_a * p_ab
    rhs = c_a * p_ab * p_ba
    x4_0 = rhs / beta_bb
    a2 = beta_aa - beta_ab * beta_ab / beta_bb
    a1 = 2.0 * beta_ab * x4_0
    f0 = -c_a * p_ab * p_ab - x4_0 * rhs
    den = a1 + np.copysign(np.sqrt(max(a1 * a1 - 4.0 * a2 * f0, 0.0)), a1)
    x3 = -2.0 * f0 / den if den else 0.0
    x4 = (rhs - x3 * beta_ab) / beta_bb
    rho_b_new = lam1 * rho_a + rho_b + x3 * u_a + x4 * u_b
    rho_b_new[ib] = kappa_b

    # trailing pair: the secant equation pins it to B_2 e_a, where B_1 is the
    # direct prefix operator updated with pair a and B_2 is B_1 updated with
    # pair b; v_b = B_1 e_b
    v_b = u_b + (p_ba * c_a) * rho_a - (beta_ab / beta_aa) * u_a
    v_b[ia] = p_ba
    v_bb = float(v_b[ib])
    rho_a_new = rho_a + (p_ab * c_b) * rho_b - (p_ba / v_bb) * v_b
    rho_a_new[ib] = p_ab
    if rho_a_new[ia] <= 0.0:
        return None

    # both rewritten variations are combinations of rho_a, rho_b, u_a, u_b,
    # and H u_a = e_ia, H u_b = e_ib, so their images need no two-loop
    h_b = lam1 * w_a + w_b
    h_b[ia] += x3
    h_b[ib] += x4
    h_vb = (p_ba * c_a) * w_a
    h_vb[ib] += 1.0
    h_vb[ia] -= beta_ab / beta_aa
    h_a = w_a + (p_ab * c_b) * w_b - (p_ba / v_bb) * h_vb
    return rho_b_new, rho_a_new, h_b, h_a


def _bubble_rewrite(store: PairStore, j: int) -> tuple[list[int], np.ndarray] | None:
    """Indices and variations after bubbling stale pair j to the end, or None.

    Returns a rewritten copy (idx, R) of the store's history whose last pair is
    the stale one; None when a swap loses positive curvature.  While the stale
    pair sits at slot p, R[:, :p] is the grown prefix, R[:, p] the stale
    variation and R[:, p + 1:] the pairs still to pass; W[:, p:] holds the
    images of R[:, p:] under the inverse operator H_p of the grown prefix, and
    F[:, :p] is the factor of its direct operator B_p = (I - S S')/h0 + F F'.
    """
    m, h0 = store.size, store.h0_scale
    idx = store.indices
    R = store.R.copy(order="F")
    W = np.zeros_like(R)
    W[:, j:] = _two_loop(R[:, :j], idx[:j], h0, R[:, j:])
    F = np.zeros((store.dim, m - 1), order="F")
    for p in range(m - 1):
        if p < j:
            fw = F[:, :p] @ F[idx[p], :p]
        else:
            ia, ib = idx[p], idx[p + 1]
            # neither index is in the prefix, so B_p e_i = e_i/h0 + F F[i, :]'
            u = F[:, :p] @ F[[ia, ib], :p].T
            fw = u[:, 1].copy()
            u[ia, 0] += 1.0 / h0
            u[ib, 1] += 1.0 / h0
            swapped = _swap_adjacent(ia, ib, R[:, p:p + 2], u, W[:, p:p + 2])
            if swapped is None:
                return None
            R[:, p], R[:, p + 1], W[:, p], W[:, p + 1] = swapped
            idx[p], idx[p + 1] = ib, ia
            # H_{p+1} y = z + e_ib (y[ib] - r'z) / r[ib], z = H_p y - (y[ib] / r[ib]) H_p r
            # (rank-one terms are built transposed to run in W's and F's
            # column-major order, twice as fast as a broadcast and bit-identical)
            r, y_ib, hy = R[:, p], R[ib, p + 1:], W[:, p + 1:]
            hy -= np.multiply.outer(y_ib / r[ib], W[:, p]).T
            hy[ib] += (y_ib - r @ hy) / r[ib]
        # append pair p, index i: F <- [F (I - beta w w'), R[:, p] / sqrt(R[i, p])]
        # with w = F[i, :]' and fw = F w; then row i leaves the older columns
        i = idx[p]
        w = F[i, :p]
        s = np.sqrt(1.0 + h0 * float(w @ w))
        F[:, :p] -= np.multiply.outer(w, fw * (h0 / (s * (1.0 + s)))).T
        F[i, :p] = 0.0
        F[:, p] = R[:, p] / np.sqrt(R[i, p])
    return idx, R


def _event_histories(store: PairStore, j: int, index: int, r: np.ndarray):
    """The histories (indices, R) prefix, rewritten suffix and full suffix of the
    C3 event at slot j for the pair (index, r); None when a swap loses curvature."""
    if (rewritten := _bubble_rewrite(store, j)) is None:
        return None
    idx, R = rewritten
    idx[-1], R[:, -1] = int(index), r
    full = (store.indices[j:] + [int(index)], np.column_stack([store.R[:, j:], r]))
    return (idx[:j], R[:, :j]), (idx[j:], R[:, j:]), full


def aggregate_c3(
    store: PairStore, j: int, index: int, r: np.ndarray, tol: float = 1e-8
) -> None:
    """Drop stale pair j, rewrite downstream variations, append the pair (index, r).

    Mutates the store in place; size and index-distinctness are preserved and
    the implicit inverse operator matches the full-history one within ``tol``
    (relative, gated on the exact defect).  Raises ``AggregationError``, leaving
    the store unchanged, when the event is not C3 at slot j, a swap loses
    positive curvature, or the defect exceeds ``tol``.
    """
    r = store.check_pair(index, r)
    tag = store.classify(index)
    if tag.kind != "C3" or tag.j != j:
        raise AggregationError(
            f"aggregation requires a C3 event at slot {j}; classification gave {tag}"
        )
    histories = _event_histories(store, j, index, r)
    if histories is None:
        raise AggregationError(
            "an adjacent swap lost positive curvature "
            f"(block size {store.size - j}, dropped slot {j})"
        )
    defect, scale = _fold_defect(*histories, store.h0_scale)
    if defect > tol * scale:
        raise AggregationError(
            f"aggregation defect {defect:.3e} exceeds {tol:.1e} * scale "
            f"{scale:.3e} (block size {store.size - j}, dropped slot {j})"
        )
    store.replace_suffix(j, *histories[1])
