"""Displacement aggregation for repeated basis directions.

When a new pair's variation matches stored pair j (with j not the most recent
slot), pair j is dropped and the gradient variations of the pairs after it are
rewritten so that the implicit inverse operator built from the shortened
history equals the one built from the full history plus the new pair.

The stale pair is bubbled to the end of the history by adjacent
transpositions.  Swapping two consecutive pairs rests on two facts about the
inverse-form update: the most recent pair of any fold satisfies the fold's
secant equation (pinning the trailing pair of the swapped order in closed
form), and matching the remaining defect costs one scalar quadratic whose
canonical branch preserves the rewritten pair's curvature.  The quadratic's
coefficients are read off a 4 x 4 Gram matrix in closed form, since the
rewritten variation is affine in the unknown.  Once the stale direction is
last, appending the new same-direction pair erases it exactly.  Cost per event
is O(tau^2 d + tau^4).

Every event is gated on the exact defect between the rewritten and the
full-history fold, evaluated in a reduced subspace containing every vector
either fold can touch, so the reduced defect norm equals the true full-space
Frobenius defect at a cost independent of the ambient dimension.  If a swap
has no admissible root or the defect exceeds the tolerance, the event raises
``AggregationError`` and leaves the store unchanged.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import AggregationError
from .kernels import apply_inverse_hessian, compact_B_column
from .pairs import CurvaturePair, PairStore


def _reduced_basis(e_cols: np.ndarray, w: np.ndarray, sigma_set) -> np.ndarray:
    """Orthonormal basis [basis vectors | independent residuals of w].

    Rank-revealing QR can pad a deficient column space with arbitrary
    completion directions that are not orthogonal to the basis block, so the
    kept columns are re-projected and re-orthonormalized before use.
    """
    resid = w - e_cols @ w[sigma_set, :]
    q2, r2, _ = scipy.linalg.qr(resid, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r2))
    keep = int(np.sum(diag > 1e-13 * max(diag[0] if diag.size else 0.0, 1e-30)))
    q2 = q2[:, :keep]
    q2 -= e_cols @ (e_cols.T @ q2)
    if q2.shape[1]:
        q3, r3 = np.linalg.qr(q2)
        norms = np.abs(np.diag(r3))
        q2 = q3[:, norms > 1e-10]
    return np.hstack([e_cols, q2])


def _fold_defect(
    dim: int,
    h0_scale: float,
    prefix_pairs: list[CurvaturePair],
    pairs_a: list[CurvaturePair],
    pairs_b: list[CurvaturePair],
) -> tuple[float, float]:
    """Exact Frobenius distance between two suffix folds over a shared prefix.

    Both folds start from the prefix operator; the comparison happens in an
    orthonormal basis spanning the suffix basis vectors and the prefix images
    of every suffix gradient variation, where it is exact.
    Returns (defect, scale).
    """
    prefix = PairStore(
        dim=dim,
        tau=max(1, len(prefix_pairs)),
        h0_scale=h0_scale,
        validate=False,
        pairs=prefix_pairs,
    )
    sigma_set = sorted({p.basis_index for p in pairs_a + pairs_b})
    pos = {i: k for k, i in enumerate(sigma_set)}
    n_sigma = len(sigma_set)
    rho = np.column_stack([p.r for p in pairs_a + pairs_b])
    w = np.column_stack(
        [apply_inverse_hessian(prefix, rho[:, k]) for k in range(rho.shape[1])]
    )
    e_cols = np.zeros((dim, n_sigma))
    for k, i in enumerate(sigma_set):
        e_cols[i, k] = 1.0
    q_mat = _reduced_basis(e_cols, w, sigma_set)
    q = q_mat.shape[1]
    qt_rho = q_mat.T @ rho
    qt_w = q_mat.T @ w
    rho_w = rho.T @ w

    def fold(pair_list, offset):
        theta = np.zeros((q, q))
        for k, p in enumerate(pair_list):
            col = offset + k
            spos = pos[p.basis_index]
            c = 1.0 / p.curvature
            hw = qt_w[:, col] + theta @ qt_rho[:, col]
            rhr = float(rho_w[col, col]) + float(
                qt_rho[:, col] @ theta @ qt_rho[:, col]
            )
            out = theta.copy()
            out[spos, :] -= c * hw
            out[:, spos] -= c * hw
            out[spos, spos] += c * c * rhr + c
            theta = out
        return theta

    theta_a = fold(pairs_a, 0)
    theta_b = fold(pairs_b, len(pairs_a))
    scale = max(float(np.linalg.norm(theta_b)), np.sqrt(dim) * h0_scale, 1e-30)
    return float(np.linalg.norm(theta_a - theta_b)), scale


def _swap_adjacent(
    prefix: PairStore, pair_a: CurvaturePair, pair_b: CurvaturePair
) -> tuple[CurvaturePair, CurvaturePair] | None:
    """Rewrite ((sa, ra), (sb, rb)) as ((sb, rb'), (sa, ra')) with the same fold.

    The trailing pair is pinned by the fold's secant equation; the leading one
    is the canonical curvature-preserving branch of a scalar quadratic.
    Returns None when no root keeps both rewritten curvatures positive.
    """
    ia, ib = pair_a.basis_index, pair_b.basis_index
    rho_a, rho_b = pair_a.r, pair_b.r
    u_a = compact_B_column(prefix, ia)
    u_b = compact_B_column(prefix, ib)
    w_a = apply_inverse_hessian(prefix, rho_a)
    w_b = apply_inverse_hessian(prefix, rho_b)
    kappa_a = pair_a.curvature
    kappa_b = pair_b.curvature
    c_a, c_b = 1.0 / kappa_a, 1.0 / kappa_b
    beta_ab, beta_bb = float(u_b[ia]), float(u_b[ib])
    p_ab, p_ba = float(rho_b[ia]), float(rho_a[ib])
    q_aa, q_ab, q_bb = float(rho_a @ w_a), float(rho_a @ w_b), float(rho_b @ w_b)

    lam1 = -c_a * p_ab
    lam2 = -c_a * q_ab + (c_a * c_a * q_aa + c_a) * p_ab
    rb_x1_rb = q_bb + lam1 * q_ab + lam2 * p_ab
    k_target = c_b * c_b * rb_x1_rb + c_b

    # rho_b' = lam1*rho_a + rho_b + x3*u_a + x4*u_b with x4 tied to x3 by the
    # curvature-preservation constraint; one quadratic remains in x3
    gram = np.array(
        [
            [q_aa, q_ab, kappa_a, p_ba],
            [q_ab, q_bb, p_ab, kappa_b],
            [kappa_a, p_ab, float(u_a[ia]), beta_ab],
            [p_ba, kappa_b, beta_ab, beta_bb],
        ]
    )
    if abs(beta_bb) < 1e-300:
        return None
    rhs_lin = c_a * p_ab * p_ba

    # xi = [lam1, 1, x3, x4] is affine in x3, so the quadratic
    # f(x3) = xi'G xi + kappa_b - k_target kappa_b^2 - 2 kappa_b x4 has exact
    # coefficients (interpolating f loses them to cancellation)
    x4_0 = rhs_lin / beta_bb
    xi0 = np.array([lam1, 1.0, 0.0, x4_0])
    dxi = np.array([0.0, 0.0, 1.0, -beta_ab / beta_bb])
    g_xi0 = gram @ xi0
    a2 = float(dxi @ gram @ dxi)
    a1 = 2.0 * float(dxi @ g_xi0) + 2.0 * kappa_b * beta_ab / beta_bb
    f0 = float(xi0 @ g_xi0) + kappa_b - k_target * kappa_b * kappa_b \
        - 2.0 * kappa_b * x4_0
    # a near-double root can push the discriminant slightly negative, so the
    # vertex serves as a candidate and the event-level defect gate has the
    # final say
    roots: list[float] = []
    if abs(a2) > 1e-300:
        disc = a1 * a1 - 4.0 * a2 * f0
        if disc >= 0.0:
            sq = np.sqrt(disc)
            roots = [(-a1 + sq) / (2.0 * a2), (-a1 - sq) / (2.0 * a2)]
        else:
            roots = [-a1 / (2.0 * a2)]
    elif abs(a1) > 1e-300:
        roots = [-f0 / a1]
    else:
        roots = [0.0]
    rho_b_new = None
    for x3 in sorted(roots, key=abs):
        x4 = (rhs_lin - x3 * beta_ab) / beta_bb
        cand = lam1 * rho_a + rho_b + x3 * u_a + x4 * u_b
        if cand[ib] > 0.0:
            rho_b_new = cand
            break
    if rho_b_new is None:
        return None

    # trailing pair: the secant equation pins it to B_2 e_a, where B_1 is the
    # direct prefix operator updated with pair a and B_2 is B_1 updated with
    # pair b; v_b = B_1 e_b.  Building it from the prefix columns, not from a
    # compact column of the two-pair store, avoids cancelling the 1/h0 seed
    # term, which dwarfs the curvatures when h0 is tiny
    v_b = u_b + (p_ba * c_a) * rho_a - (beta_ab / u_a[ia]) * u_a
    v_bb = float(v_b[ib])
    rho_a_new = rho_a + (p_ab * c_b) * rho_b - (p_ba / v_bb) * v_b
    if rho_a_new[ia] <= 0.0:
        return None
    return CurvaturePair(ib, rho_b_new), CurvaturePair(ia, rho_a_new)


def _bubble_rewrite(
    store: PairStore, j: int, new_pair: CurvaturePair
) -> list[CurvaturePair] | None:
    """Rewritten suffix pairs via adjacent transpositions, or None on failure."""
    work = [CurvaturePair(p.basis_index, p.r.copy()) for p in store.pairs]
    for p in range(j, store.size - 1):
        prefix = PairStore(
            dim=store.dim,
            tau=max(1, p),
            h0_scale=store.h0_scale,
            validate=False,
            pairs=work[:p],
        )
        swapped = _swap_adjacent(prefix, work[p], work[p + 1])
        if swapped is None:
            return None
        work[p], work[p + 1] = swapped
    return work[j : store.size - 1] + [new_pair]


def _check_c3(store: PairStore, j: int, new_pair: CurvaturePair) -> None:
    tag = store.classify(new_pair.basis_index)
    if tag.kind != "C3" or tag.j != j:
        raise AggregationError(
            f"aggregation requires a C3 event at slot {j}; classification gave {tag}"
        )


def aggregate_c3(
    store: PairStore, j: int, new_pair: CurvaturePair, tol: float = 1e-8
) -> None:
    """Drop stale pair j, rewrite downstream variations, append the new pair.

    Mutates the store in place; size and index-distinctness are preserved and
    the implicit inverse operator matches the full-history one within ``tol``
    (relative, gated on the exact reduced defect).  Raises
    ``AggregationError``, leaving the store unchanged, when the event is not
    C3 at slot j, a swap has no admissible root, or the defect exceeds
    ``tol``.
    """
    _check_c3(store, j, new_pair)
    suffix = _bubble_rewrite(store, j, new_pair)
    if suffix is None:
        raise AggregationError(
            "an adjacent swap has no root with positive curvature "
            f"(block size {store.size - j}, dropped slot {j})"
        )
    prefix_pairs = store.pairs[:j]
    defect, scale = _fold_defect(
        store.dim, store.h0_scale, prefix_pairs, suffix, store.pairs[j:] + [new_pair]
    )
    if defect > tol * scale:
        raise AggregationError(
            f"aggregation defect {defect:.3e} exceeds {tol:.1e} * scale "
            f"{scale:.3e} (block size {store.size - j}, dropped slot {j})"
        )
    store.pairs[:] = prefix_pairs + suffix
    store._check()
