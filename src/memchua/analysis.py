"""Trajectory analysis: extrema, taxonomy, exponents, resistance sweeps.

The taxonomy mirrors how the oscillator is read off the bench: a run is a
fixed point, a periodic orbit, a single-scroll or double-scroll chaotic
attractor, or it diverged. Verdicts are produced by fixed, named
thresholds (VISIT_FRACTION and the rest) so they are testable rather than
judged by eye. The resistance sweep reprograms the device model point by
point while the surrounding circuit stays fixed, optionally drawing a
seeded lognormal coefficient perturbation per point to model
cycle-to-cycle programming variability.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import kernels
from .circuit import CircuitParams, find_equilibria
from .design import DesignSpec, design_circuit
from .device import (DevicePoly, DeviceState, StateTable, state_at,
                     write_csv)
from .errors import DesignError, LyapunovError
from .integrate import IntegrationConfig, Trajectory, rk4_call, trajectory_of

# The taxonomy's thresholds. A run of fewer than MIN_SAMPLES samples is
# inconclusive. It rests at a fixed point when its last sample lies within
# FIXED_POINT_TOL (volts, currents weighted by the iL = -g*v1 scale) of an
# equilibrium, no farther than at the start of its last tenth. It visits an
# off-origin equilibrium when it comes within VISIT_FRACTION of the largest
# |v1| among them. Its v1 extrema split into clusters at gaps wider than
# CLUSTER_TOL_FRACTION of its v1 span, and it is periodic when they form at
# most MAX_PERIODIC_CLUSTERS clusters and, when an exponent is given, the
# dimensionless lambda1 * time_unit stays below LAMBDA_PERIODIC.
VISIT_FRACTION = 0.3
CLUSTER_TOL_FRACTION = 0.01
MAX_PERIODIC_CLUSTERS = 8
LAMBDA_PERIODIC = 0.01
FIXED_POINT_TOL = 1e-4
MIN_SAMPLES = 32

class Label:
    FIXED_POINT = "fixed_point"
    PERIODIC = "periodic"
    SINGLE_SCROLL = "single_scroll"
    DOUBLE_SCROLL = "double_scroll"
    DIVERGED = "diverged"
    INCONCLUSIVE = "inconclusive"

class Side:
    POSITIVE = "positive"
    NEGATIVE = "negative"
    BOTH = "both"
    NONE = "none"

@dataclass(frozen=True)
class TrajectoryClass:
    label: str
    scroll_side: str
    lambda1: Optional[float]  # 1/s, None when not estimated
    n_extrema_clusters: int

    def as_dict(self):
        return {"label": self.label, "scroll_side": self.scroll_side,
                "lambda1_per_s": self.lambda1,
                "n_extrema_clusters": self.n_extrema_clusters}

@dataclass(frozen=True)
class LyapunovResult:
    """The largest exponent lambda1 (1/s), estimated over n_intervals
    renormalization intervals of one circuit time unit (s) each."""

    lambda1: float
    time_unit: float
    n_intervals: int

    @property
    def dimensionless(self) -> float:
        """lambda1 * time_unit, the exponent per circuit time unit."""
        return self.lambda1 * self.time_unit

def local_extrema(times, values):
    """The strict interior extrema of a sampled signal, in time order, as
    three arrays: their times, their values and whether each is a maximum.
    A constant signal has none.

    Plateaus (runs of equal samples) are compressed to their midpoint
    before comparison; single-sample extrema are refined to the vertex of
    the parabola through the three bracketing samples, unless that fit is
    degenerate or its vertex falls outside them.
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
        return np.empty(0), np.empty(0), np.empty(0, dtype=bool)

    # candidates: compressed samples above, or below, both neighbours
    mid = xc[1:-1]
    is_max = (mid > xc[:-2]) & (mid > xc[2:])
    j = np.flatnonzero(is_max | ((mid < xc[:-2]) & (mid < xc[2:]))) + 1
    first, last = starts[j], ends[j]
    te = 0.5 * (t[first] + t[last])
    xe = xc[j]

    # a one-sample run inside the compressed signal has a sample either
    # side. Its fit is rejected where it divides by zero (denom == 0, or
    # h3 == 0, where a non-finite h1 leaves denom NaN), is a line (a == 0)
    # or puts the vertex at NaN or outside [h1, h3]
    k = np.flatnonzero(first == last)
    i = first[k]
    t2, y2 = t[i], x[i]
    with np.errstate(all="ignore"):
        h1 = t[i - 1] - t2
        h3 = t[i + 1] - t2
        denom = h1 * h3 * (h1 - h3)
        a = (h3 * (x[i - 1] - y2) - h1 * (x[i + 1] - y2)) / denom
        b = ((x[i + 1] - y2) - a * h3 * h3) / h3
        dt = -b / (2.0 * a)
        ok = ((denom != 0.0) & (h3 != 0.0) & (a != 0.0) & (h1 <= dt)
              & (dt <= h3))
        te[k[ok]] = (t2 + dt)[ok]
        xe[k[ok]] = (y2 + dt * (b + a * dt))[ok]
    return te, xe, is_max[j - 1]

def cluster_count(values, tol: float) -> int:
    """Number of groups after splitting the sorted values at gaps > tol."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        return 0
    return 1 + int(np.count_nonzero(np.diff(v) > tol))

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
            best = (float(dist[-1]), float(dist[0]))
    if best is not None and best[0] < FIXED_POINT_TOL and best[0] <= best[1]:
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

    lam_ok = lyapunov is None or lyapunov.dimensionless < LAMBDA_PERIODIC
    if ncl <= MAX_PERIODIC_CLUSTERS and lam_ok:
        return TrajectoryClass(Label.PERIODIC, side, lambda1, ncl)

    label = Label.DOUBLE_SCROLL if side == Side.BOTH else Label.SINGLE_SCROLL
    return TrajectoryClass(label, side, lambda1, ncl)

def _lyapunov(params: CircuitParams, call: kernels.Rk4Call,
              out: kernels.Rk4Out):
    """The exponent from the shadow half of the kernel's `out` for `call`:
    (LyapunovResult, None), or (None, the LyapunovError that says why there
    is none)."""
    if out.lyap_status == kernels.STATUS_DIVERGED:
        return None, LyapunovError("reference trajectory diverged; no exponent")
    if out.lyap_status == kernels.STATUS_SHADOW_FAIL:
        return None, LyapunovError(
            "shadow separation collapsed or became non-finite")
    if out.n_intervals == 0:
        return None, LyapunovError(
            "no complete renormalization interval after the transient (the "
            f"interval is R*C2 = {params.time_unit:.4g} s); extend t_end or "
            "shorten t_transient")
    lam = out.lyap_sum / (out.n_intervals * call.renorm_every * call.dt)
    return LyapunovResult(lambda1=lam, time_unit=params.time_unit,
                          n_intervals=out.n_intervals), None


def largest_lyapunov(params: CircuitParams, init,
                     cfg: IntegrationConfig) -> LyapunovResult:
    """Largest exponent by the two-trajectory (shadow) method.

    The shadow starts kernels.SHADOW_D0 volts away on v1 and is pulled back
    to that distance every circuit time unit R*C2; the mean log stretch per
    interval after t_transient is the exponent estimate. Raises
    LyapunovError when there is none.
    """
    call = rk4_call(params, init, cfg, record=False, shadow=True)
    (out,) = kernels.rk4_trajectories([call])
    lyap, error = _lyapunov(params, call, out)
    if error is not None:
        raise error
    return lyap


def trajectory_and_lyapunov(
        params: CircuitParams, init, cfg: IntegrationConfig,
) -> Tuple[Trajectory, Optional[LyapunovResult], Optional[LyapunovError]]:
    """integrate() and largest_lyapunov() from one RK4 pass.

    The recorded trajectory is the reference half of the exponent
    estimator, so one kernel call yields both, bit-identical to the two
    separate calls. Returns (trajectory, exponent, error): the exponent is
    None when it could not be estimated (the reference diverged, the
    shadow collapsed, or no interval completed after the transient), and
    the error is then the LyapunovError that largest_lyapunov() would
    raise; otherwise the error is None.
    """
    call = rk4_call(params, init, cfg, shadow=True)
    (out,) = kernels.rk4_trajectories([call])
    return (trajectory_of(out), *_lyapunov(params, call, out))


def perturb(poly: DevicePoly, sigma: float, seed) -> DevicePoly:
    """Cycle-to-cycle variability model: each coefficient multiplied by an
    independent lognormal factor with median 1 and log-std sigma.

    A sigma large enough to overflow a factor or a coefficient raises
    FloatingPointError."""
    if not sigma >= 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0:
        return poly
    rng = np.random.default_rng(seed)
    with np.errstate(over="raise"):
        factors = np.exp(sigma * rng.standard_normal(5))
        coefficients = poly.coefficients * factors
    return DevicePoly(*coefficients, v_min=poly.v_min, v_max=poly.v_max)

@dataclass(frozen=True)
class SweepPoint:
    r_prog: float
    extrema: np.ndarray          # extremum v1 values (V)
    verdict: TrajectoryClass
    seed: int
    soa: bool                    # any window crossing occurred
    reason: Optional[str] = None  # why the verdict is inconclusive

    @property
    def span(self) -> float:
        if self.extrema.size == 0:
            return 0.0
        return float(np.max(self.extrema) - np.min(self.extrema))

def _unrun_point(r, seed_k, reason):
    """An inconclusive point that stopped before integration."""
    return SweepPoint(r, np.empty(0),
                      TrajectoryClass(Label.INCONCLUSIVE, Side.NONE, None, 0),
                      seed_k, False, reason=reason)

class _SweepRun(NamedTuple):
    """The settings that every point of one sweep shares."""
    table: StateTable
    spec: DesignSpec
    icfg: IntegrationConfig
    mode: str
    sigma: float
    init: tuple
    reference: Optional[CircuitParams]  # fixed mode's circuit


def _prepare_point(run: _SweepRun, r, seed_k):
    """The circuit of the point at `r`, its equilibria and its fused
    kernels.Rk4Call, or its _unrun_point when it stops before
    integration."""
    try:
        state = state_at(run.table, r)
    except ValueError as exc:  # the 1/R law overflowed a coefficient
        return _unrun_point(r, seed_k, f"device state: {exc}")
    try:
        poly = perturb(state.poly, run.sigma, seed_k)
    except FloatingPointError as exc:
        return _unrun_point(r, seed_k,
                            f"perturbed coefficients not finite: {exc}")

    if run.mode == "fixed":
        params = replace(run.reference, device=poly)
        try:
            eqs = find_equilibria(params)
        except ValueError as exc:
            return _unrun_point(r, seed_k, f"equilibria: {exc}")
    else:
        try:
            report = design_circuit(DeviceState(r, poly),
                                    run.spec).require_ok()
        except DesignError as exc:
            return _unrun_point(r, seed_k, f"design failure: {exc}")
        params, eqs = report.params, report.equilibria
    return params, eqs, rk4_call(params, run.init, run.icfg, shadow=True)


def _sweep_point(run: _SweepRun, r, seed_k, params, eqs, call, out):
    """The sweep point at `r` from the kernel's `out` for its `call`."""
    traj = trajectory_of(out)
    lyap, _ = _lyapunov(params, call, out)
    soa = any(ev.kind in ("soa_low", "soa_high") for ev in traj.events)
    values = (local_extrema(traj.times, traj.v1)[1] if len(traj.times) >= 3
              else np.empty(0))
    verdict = classify(traj, eqs, lyap, values)
    reason = None
    if verdict.label == Label.INCONCLUSIVE:
        reason = ("record stopped at the first window crossing "
                  "(soa_policy abort)" if traj.aborted_on_soa
                  else "too few samples or extrema to classify")
    return SweepPoint(r, values, verdict, seed_k, soa, reason)


def _sweep_points(run: _SweepRun, points):
    """The sweep points of a few (r, seed) pairs, in order; the kernels
    step the points that run kernels.LANES at a time
    (kernels.rk4_trajectories)."""
    prepared = [_prepare_point(run, r, seed_k) for r, seed_k in points]
    ran = [p for p in prepared if not isinstance(p, SweepPoint)]
    outs = iter(kernels.rk4_trajectories([call for *_, call in ran]))
    return [p if isinstance(p, SweepPoint)
            else _sweep_point(run, r, seed_k, *p, next(outs))
            for (r, seed_k), p in zip(points, prepared)]

def _cpus():
    """The CPUs this process may run on: its affinity mask where the OS
    has one, else os.cpu_count(), which may be None."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()

def sweep(table: StateTable, spec: DesignSpec, icfg: IntegrationConfig,
          r_lo: float, r_hi: float, n_points: int,
          mode: str = "fixed", sigma: float = 0.0, seed: int = 0,
          init=(0.1, 0.0, 0.0), reference: Optional[CircuitParams] = None,
          workers: Optional[int] = None) -> list:
    """Classify the circuit at log-spaced programmed resistances.

    In "fixed" mode all circuit components stay at those of `reference`
    (the bench experiment: only the device is reprogrammed), by default the
    design at the table's highest row; "redesign" recomputes the components
    per point and reads no `reference`. Point k uses seed + k for its
    variability draw, so results are reproducible and independent of
    worker count. At most `workers` threads of this process run the
    points, and no more than there are batches of points or CPUs that the
    process may run on (_cpus); one runs them on the calling thread, and
    None, the default, is every such CPU. The threads run at once only on
    the C backend, whose kernel calls (ctypes.CDLL) release the GIL; on the
    Python backend they take turns, so there None means one. Per-point
    design failures, resistances so small that the 1/R law overflows a
    coefficient, variability draws that overflow and fixed-mode points
    whose Jacobian overflows are recorded as inconclusive, with the cause
    on SweepPoint.reason, without stopping the sweep; in "fixed" mode a
    default reference design that fails its checks raises DesignError
    before any point runs.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if not (0 < r_lo <= r_hi):
        raise ValueError("need 0 < r_lo <= r_hi")
    if mode not in ("fixed", "redesign"):
        raise ValueError(f"unknown sweep mode {mode!r}")

    if mode == "fixed" and reference is None:
        reference = design_circuit(table.states[-1], spec).require_ok().params

    run = partial(_sweep_points, _SweepRun(table, spec, icfg, mode, sigma,
                                           tuple(init), reference))
    points = [(float(r), int(seed) + k)
              for k, r in enumerate(np.geomspace(r_lo, r_hi, n_points))]
    # in batches of kernels.LANES points, which the C kernels step
    # together; a batch holds its points' records at once, so it is no
    # larger
    n = kernels.LANES
    groups = [points[k:k + n] for k in range(0, len(points), n)]
    # more threads than groups would idle, and more than CPUs take turns
    cpus = _cpus() or 1
    if workers is None:
        workers = cpus if kernels.BACKEND == "c" else 1
    workers = min(workers, len(groups), cpus)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run, groups))
    else:
        batches = map(run, groups)
    return [point for batch in batches for point in batch]

def write_bifurcation_csv(path, points):
    """One row per extremum: r_prog_ohm, extremum_v1_V, class, in
    device.write_csv's bytes. The class is one of the fixed Label
    identifiers."""
    counts = [len(pt.extrema) for pt in points]
    write_csv(path, ["r_prog_ohm", "extremum_v1_V", "class"], [
        np.repeat([float(pt.r_prog) for pt in points], counts),
        np.concatenate([np.empty(0), *(pt.extrema for pt in points)]),
        np.repeat([pt.verdict.label for pt in points], counts)])
