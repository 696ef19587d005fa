"""Curvature-dominance correction by rescaling the stored history.

Scaling the seed operator down by psi and every stored gradient variation up
by psi multiplies the implicit direct operator by psi, which is how the
dominance condition on the Hessian approximation is enforced without ever
forming it: one in-place multiply of the store's variation array and one
division of its seed scale.  psi = 1 + CM * phi where phi is the step's
length weighted by the Hessian at its departure point (``weighted_step_norm``);
the ``delta`` variant adds a geometrically decaying slack term.
"""

from __future__ import annotations

import numpy as np

from .errors import CurvatureError
from .objectives import Objective, Point
from .pairs import PairStore

OFF = "off"
BASIC = "basic"
DELTA = "delta"
MODES = (OFF, BASIC, DELTA)

# the slack DELTA0 * DECAY**t of the ``delta`` mode at iteration t
DELTA0 = 0.1
DECAY = 0.5


def weighted_step_norm(obj: Objective, point: Point, point_next: Point) -> float:
    """sqrt(s' * hess(x) * s) for the step s from ``point`` to ``point_next``,
    two points of ``obj``: the step length weighted by the Hessian at the
    departure point, whose curvature is reused, not recomputed."""
    s = point_next.x - point.x
    rad = float(s @ obj.hess_vec(point, s))
    if rad < -1e-12 * max(1.0, float(s @ s)):
        raise CurvatureError(
            f"negative curvature radicand {rad:.3e}; Hessian contract broken"
        )
    return float(np.sqrt(max(rad, 0.0)))


def scale_factor(phi: float, mode: str, cm: float, t: int) -> float:
    """Correction scale psi for iteration t given the weighted step length phi,
    by mode: off (psi = 1), basic (1 + CM*phi), delta (+ DECAY^t * DELTA0)."""
    if phi < 0:
        raise ValueError(f"phi must be nonnegative, got {phi}")
    if mode == OFF:
        return 1.0
    psi = 1.0 + cm * phi
    if mode == DELTA:
        psi += DECAY**t * DELTA0
    return psi


def apply_scaling(store: PairStore, psi: float) -> None:
    """Rescale the store in place: h0_scale /= psi, every stored r *= psi.

    Indices and order are untouched; the implicit direct operator built from
    the scaled store equals psi times the unscaled one.  A scale that would
    push h0_scale below the normal floats or an r out of float range raises
    ``CurvatureError`` before anything is written.
    """
    if psi < 1.0:
        raise ValueError(f"psi must be >= 1, got {psi}")
    if psi == 1.0:
        return
    h0_scale = store.h0_scale / psi
    if not (h0_scale >= np.finfo(float).tiny
            and np.isfinite(psi * float(np.abs(store.R).max(initial=0.0)))):
        raise CurvatureError(f"correction scale {psi:.3e} leaves float range "
                             f"(h0_scale {store.h0_scale:.3e})")
    store.R[:] *= psi
    store.h0_scale = h0_scale
