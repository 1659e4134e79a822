"""Reference copy of ``analysis.classify`` as it stood before each verdict
became one rule: the rest test keeps a (distance, distance, stability)
tuple, the sides come from two flags and a four-branch ladder, and
``lam_ok`` joins the exponent test to the cluster cap. It already holds the
two mended rules: a tail end within FIXED_POINT_TOL of a stable equilibrium
is a rest, and a given exponent alone separates periodic from chaotic.
``_current_weight`` and ``_distances`` are copied with it. The tests compare
``memchua.classify`` with it. Do not edit the function bodies; they are the
oracle.
"""

from typing import Optional

import numpy as np

from memchua.analysis import (CLUSTER_TOL_FRACTION, FIXED_POINT_TOL,
                              LAMBDA_PERIODIC, MAX_PERIODIC_CLUSTERS,
                              MIN_SAMPLES, VISIT_FRACTION, Label,
                              LyapunovResult, Side, TrajectoryClass,
                              cluster_count, local_extrema)
from memchua.integrate import Trajectory


def _current_weight(equilibria):
    # volts-per-amp conversion for mixed-unit distances, recovered from the
    # equilibrium relation iL = -g*v1 when an off-origin point is available
    for eq in equilibria:
        if eq.label != "P0" and eq.state.v1 != 0.0 and eq.state.i_l != 0.0:
            return abs(eq.state.v1 / eq.state.i_l)
    return 0.0


def _distances(states, eq_state, w):
    dv1 = np.abs(states[:, 0] - eq_state.v1)
    dv2 = np.abs(states[:, 1] - eq_state.v2)
    dil = np.abs(states[:, 2] - eq_state.i_l) * w
    return np.maximum(dv1, np.maximum(dv2, dil))


def classify(traj: Trajectory, equilibria,
             lyapunov: Optional[LyapunovResult] = None,
             extrema=None) -> TrajectoryClass:
    """Sort a (transient-free) trajectory into the five-way taxonomy.

    Decision order: diverged; fixed point (terminal state inside
    FIXED_POINT_TOL of an equilibrium, distance not growing); periodic
    (few extrema clusters and small dimensionless exponent); otherwise
    chaotic, double- or single-scroll by which off-origin neighborhoods
    were visited. Distances mix units as volts via the iL = -g*v1 scale.

    When lyapunov is None the exponent condition is skipped (only the
    cluster count decides periodicity); when given, its dimensionless
    exponent decides, and its lambda1 is the verdict's. A run that diverged
    is labelled so however few samples it kept; others with fewer than
    MIN_SAMPLES samples, or too few extrema to characterize, come back
    inconclusive. `extrema`, when given, must be the array of extremum
    values of traj.v1, local_extrema(traj.times, traj.v1)[1]; it saves
    computing them again.
    """
    lambda1 = lyapunov.lambda1 if lyapunov is not None else None
    if traj.diverged:
        return TrajectoryClass(Label.DIVERGED, Side.NONE, lambda1, 0)

    n = len(traj.times)
    if n < MIN_SAMPLES:
        return TrajectoryClass(Label.INCONCLUSIVE, Side.NONE, lambda1, 0)

    w = _current_weight(equilibria)

    tail = max(2, n // 10)
    best = None
    for eq in equilibria:
        dist = _distances(traj.states[-tail:], eq.state, w)
        if best is None or dist[-1] < best[0]:
            best = (float(dist[-1]), float(dist[0]), eq.stable)
    if (best is not None and best[0] < FIXED_POINT_TOL
            and (best[2] or best[0] <= best[1])):
        return TrajectoryClass(Label.FIXED_POINT, Side.NONE, lambda1, 0)

    off = [eq for eq in equilibria if eq.label != "P0"]
    r_vis = VISIT_FRACTION * max((abs(eq.state.v1) for eq in off),
                                 default=0.0)
    visited_pos = visited_neg = False
    for eq in off:
        if r_vis > 0 and bool(np.any(_distances(traj.states, eq.state, w) < r_vis)):
            if eq.state.v1 > 0:
                visited_pos = True
            else:
                visited_neg = True
    if visited_pos and visited_neg:
        side = Side.BOTH
    elif visited_pos:
        side = Side.POSITIVE
    elif visited_neg:
        side = Side.NEGATIVE
    else:
        side = Side.NONE

    values = (local_extrema(traj.times, traj.v1)[1] if extrema is None
              else extrema)
    if values.size < 2:
        return TrajectoryClass(Label.INCONCLUSIVE, side, lambda1, int(values.size))
    span = float(np.max(traj.v1) - np.min(traj.v1))
    ncl = cluster_count(values, CLUSTER_TOL_FRACTION * max(span, 1e-30))

    if lyapunov is not None:
        lam_ok = lyapunov.dimensionless < LAMBDA_PERIODIC
    else:
        lam_ok = ncl <= MAX_PERIODIC_CLUSTERS
    if lam_ok:
        return TrajectoryClass(Label.PERIODIC, side, lambda1, ncl)

    label = Label.DOUBLE_SCROLL if side == Side.BOTH else Label.SINGLE_SCROLL
    return TrajectoryClass(label, side, lambda1, ncl)
