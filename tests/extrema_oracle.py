"""Reference copy of ``analysis.local_extrema`` as it stood before its
candidates were found by one numpy comparison: a Python loop over every
plateau-compressed sample, with numpy scalars throughout, returning one
``Extremum`` per extremum. The tests compare ``memchua.local_extrema``'s
arrays with it. Do not edit the function bodies; they are the oracle.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Extremum:
    time: float
    value: float
    kind: str  # "max" | "min"


def _parabola_vertex(t1, y1, t2, y2, t3, y3):
    """Vertex of the parabola through three (t, y) points, or None when the
    fit is degenerate or the vertex falls outside [t1, t3]."""
    h1 = t1 - t2
    h3 = t3 - t2
    denom = h1 * h3 * (h1 - h3)
    if denom == 0.0:
        return None
    a = (h3 * (y1 - y2) - h1 * (y3 - y2)) / denom
    if a == 0.0:
        return None
    b = ((y3 - y2) - a * h3 * h3) / h3
    dt = -b / (2.0 * a)
    if not (h1 <= dt <= h3):
        return None
    return t2 + dt, y2 + dt * (b + a * dt)


def local_extrema(times, values):
    """Strict interior extrema of a sampled signal.

    Plateaus (runs of equal samples) are compressed to their midpoint
    before comparison; single-sample extrema are refined by a quadratic
    through the three bracketing samples. A constant signal yields an
    empty list.
    """
    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != x.shape:
        raise ValueError("times and values must be 1-d arrays of equal length")
    if t.size < 3:
        raise ValueError("need at least 3 samples")

    starts = np.concatenate(([0], np.flatnonzero(np.diff(x) != 0.0) + 1))
    ends = np.concatenate((starts[1:] - 1, [x.size - 1]))
    xc = x[starts]
    if xc.size < 3:
        return []
    tc = 0.5 * (t[starts] + t[ends])

    out = []
    for j in range(1, xc.size - 1):
        if xc[j] > xc[j - 1] and xc[j] > xc[j + 1]:
            kind = "max"
        elif xc[j] < xc[j - 1] and xc[j] < xc[j + 1]:
            kind = "min"
        else:
            continue
        ti, yi = tc[j], xc[j]
        i = starts[j]
        if i == ends[j] and 0 < i < x.size - 1:
            ref = _parabola_vertex(t[i - 1], x[i - 1], t[i], x[i],
                                   t[i + 1], x[i + 1])
            if ref is not None:
                ti, yi = ref
        out.append(Extremum(time=float(ti), value=float(yi), kind=kind))
    return out
