"""Trajectory analysis: extrema, taxonomy, exponents, resistance sweeps.

The taxonomy mirrors how the oscillator is read off the bench: a run is a
fixed point, a periodic orbit, a single-scroll or double-scroll chaotic
attractor, or it diverged. Verdicts are produced by explicit, configurable
thresholds (see AnalysisConfig) so they are testable rather than judged by
eye. The resistance sweep reprograms the device model point by point while
the surrounding circuit stays fixed, optionally drawing a seeded lognormal
coefficient perturbation per point to model cycle-to-cycle programming
variability.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .circuit import CircuitParams, find_equilibria
from .design import DesignSpec, design_circuit
from .device import (DevicePoly, DeviceState, StateTable, _write_csv,
                     state_at)
from .errors import DesignError, LyapunovError
from .integrate import IntegrationConfig, Trajectory, _build, _rk4_args, \
    _steps_for

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
class Extremum:
    time: float
    value: float
    kind: str  # "max" | "min"

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
class AnalysisConfig:
    """Thresholds of the trajectory taxonomy.

    visit_fraction: neighborhood radius for "visiting" an off-origin
    equilibrium, as a fraction of the largest |v1| among them.
    cluster_tol_fraction: extremum clustering tolerance as a fraction of
    the observed v1 span. A run is periodic when its extrema collapse to at
    most max_periodic_clusters clusters AND the dimensionless exponent
    lambda1 * time_unit stays below lambda_periodic.
    """

    visit_fraction: float = 0.3
    cluster_tol_fraction: float = 0.01
    max_periodic_clusters: int = 8
    lambda_periodic: float = 0.01
    fixed_point_tol: float = 1e-4
    min_samples: int = 32

    def __post_init__(self):
        if not (self.visit_fraction > 0 and self.cluster_tol_fraction > 0
                and self.lambda_periodic > 0 and self.fixed_point_tol > 0):
            raise ValueError("analysis thresholds must be positive")
        if self.max_periodic_clusters < 1 or self.min_samples < 3:
            raise ValueError("cluster cap must be >= 1 and min_samples >= 3")

def _parabola_vertex(t1, y1, t2, y2, t3, y3):
    """Vertex of the parabola through three (t, y) points, or None when the
    fit is degenerate or the vertex falls outside [t1, t3]."""
    h1 = t1 - t2
    h3 = t3 - t2
    denom = h1 * h3 * (h1 - h3)
    # h3 == 0 with a non-finite h1 leaves denom NaN, not 0, and b below
    # would divide by zero
    if denom == 0.0 or h3 == 0.0:
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

    # candidates: compressed samples above, or below, both neighbours
    mid = xc[1:-1]
    is_max = (mid > xc[:-2]) & (mid > xc[2:])
    j = np.flatnonzero(is_max | ((mid < xc[:-2]) & (mid < xc[2:]))) + 1
    first, last = starts[j], ends[j]
    # a one-sample run inside the compressed signal has a sample either side
    lone = first == last
    i = first[lone]
    refined = map(_parabola_vertex, *(col.tolist() for col in (
        t[i - 1], x[i - 1], t[i], x[i], t[i + 1], x[i + 1])))

    out = []
    for ti, yi, top, one in zip((0.5 * (t[first] + t[last])).tolist(),
                                xc[j].tolist(), is_max[j - 1].tolist(),
                                lone.tolist()):
        if one:
            ref = next(refined)
            if ref is not None:
                ti, yi = ref
        out.append(Extremum(time=ti, value=yi,
                            kind="max" if top else "min"))
    return out

def cluster_count(values, tol: float) -> int:
    """Number of groups after splitting the sorted values at gaps > tol."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        return 0
    if v.size == 1:
        return 1
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

def classify(traj: Trajectory, equilibria, cfg: AnalysisConfig,
             lambda1: Optional[float] = None,
             time_unit: Optional[float] = None,
             extrema=None) -> TrajectoryClass:
    """Sort a (transient-free) trajectory into the five-way taxonomy.

    Decision order: diverged; fixed point (terminal state inside
    fixed_point_tol of an equilibrium, distance not growing); periodic
    (few extrema clusters and small dimensionless exponent); otherwise
    chaotic, double- or single-scroll by which off-origin neighborhoods
    were visited. Distances mix units as volts via the iL = -g*v1 scale.

    When lambda1 is None the exponent condition is skipped (only the
    cluster count decides periodicity); when given, time_unit must be
    given too. Trajectories with fewer than min_samples samples, or too
    few extrema to characterize, come back inconclusive. `extrema`, when
    given, must be local_extrema(traj.times, traj.v1); it saves computing
    them again.
    """
    if lambda1 is not None and time_unit is None:
        raise ValueError("time_unit is required when lambda1 is given")

    n = len(traj.times)
    if n < cfg.min_samples:
        return TrajectoryClass(Label.INCONCLUSIVE, Side.NONE, lambda1, 0)

    if traj.diverged or any(ev.kind == "diverged" for ev in traj.events):
        return TrajectoryClass(Label.DIVERGED, Side.NONE, lambda1, 0)

    w = _current_weight(equilibria)

    tail = max(2, n // 10)
    best = None
    for eq in equilibria:
        dist = _distances(traj.states[-tail:], eq.state, w)
        if best is None or dist[-1] < best[0]:
            best = (float(dist[-1]), float(dist[0]))
    if best is not None and best[0] < cfg.fixed_point_tol and best[0] <= best[1]:
        return TrajectoryClass(Label.FIXED_POINT, Side.NONE, lambda1, 0)

    off = [eq for eq in equilibria if eq.label != "P0"]
    r_vis = cfg.visit_fraction * max((abs(eq.state.v1) for eq in off),
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

    if extrema is None:
        extrema = local_extrema(traj.times, traj.v1)
    values = np.array([e.value for e in extrema])
    if values.size < 2:
        return TrajectoryClass(Label.INCONCLUSIVE, side, lambda1, int(values.size))
    span = float(np.max(traj.v1) - np.min(traj.v1))
    ncl = cluster_count(values, cfg.cluster_tol_fraction * max(span, 1e-30))

    lam_ok = True
    if lambda1 is not None:
        lam_ok = lambda1 * time_unit < cfg.lambda_periodic
    if ncl <= cfg.max_periodic_clusters and lam_ok:
        return TrajectoryClass(Label.PERIODIC, side, lambda1, ncl)

    label = Label.DOUBLE_SCROLL if side == Side.BOTH else Label.SINGLE_SCROLL
    return TrajectoryClass(label, side, lambda1, ncl)

@dataclass(frozen=True)
class LyapunovResult:
    lambda1: float          # 1/s
    dimensionless: float    # lambda1 * time_unit
    time_unit: float        # s
    n_intervals: int
    d0: float

def _shadow_args(params: CircuitParams, cfg: IntegrationConfig, d0: float,
                 renorm_interval: Optional[float]) -> tuple:
    """Trailing (shadow) arguments of kernels.rk4_trajectory."""
    if not 0 < d0 < math.inf:
        raise ValueError(f"d0 must be finite and positive, got {d0}")
    tau = float(renorm_interval) if renorm_interval else params.time_unit
    renorm_every = max(1, _steps_for(tau, cfg.dt))
    return True, renorm_every, _steps_for(cfg.t_transient, cfg.dt), d0


def _lyapunov_result(params: CircuitParams, cfg: IntegrationConfig,
                     shadow: tuple, out: tuple) -> LyapunovResult:
    """The exponent from the shadow half of a kernels.rk4_trajectory call."""
    acc, ni, status = out[6:9]
    if status == kernels.STATUS_DIVERGED:
        raise LyapunovError("reference trajectory diverged; no exponent")
    if status == kernels.STATUS_SHADOW_FAIL:
        raise LyapunovError("shadow separation collapsed or became non-finite")
    if ni == 0:
        raise LyapunovError(
            "no complete renormalization interval after the transient; "
            "extend t_end or shrink the renormalization interval")
    _, renorm_every, _, d0 = shadow
    lam = acc / (ni * renorm_every * cfg.dt)
    return LyapunovResult(lambda1=lam, dimensionless=lam * params.time_unit,
                          time_unit=params.time_unit, n_intervals=ni, d0=d0)


def largest_lyapunov(params: CircuitParams, init, cfg: IntegrationConfig,
                     d0: float = 1e-8,
                     renorm_interval: Optional[float] = None) -> LyapunovResult:
    """Largest exponent by the two-trajectory (shadow) method.

    The shadow starts d0 volts away on v1 and is pulled back to distance d0
    every renorm_interval (default: the circuit time unit R*C2); the mean
    log stretch per interval after t_transient is the exponent estimate.
    """
    shadow = _shadow_args(params, cfg, d0, renorm_interval)
    out = kernels.rk4_trajectory(
        *_rk4_args(params, init, cfg, record=False), *shadow)
    return _lyapunov_result(params, cfg, shadow, out)


def _fused_args(params: CircuitParams, init, cfg: IntegrationConfig,
                d0: float, renorm_interval: Optional[float]) -> tuple:
    """kernels.rk4_trajectory arguments with the recorder and the shadow
    both on."""
    shadow = _shadow_args(params, cfg, d0, renorm_interval)
    return (*_rk4_args(params, init, cfg), *shadow)


def _fused_result(params: CircuitParams, cfg: IntegrationConfig,
                  args: tuple, out: tuple):
    """trajectory_and_lyapunov's result from the kernel's `out` for
    `args`."""
    traj = _build(*out[:6], out[9])
    try:
        lyap = _lyapunov_result(params, cfg, args[-4:], out)
    except LyapunovError:
        lyap = None
    return traj, lyap


def trajectory_and_lyapunov(
        params: CircuitParams, init, cfg: IntegrationConfig,
        d0: float = 1e-8, renorm_interval: Optional[float] = None,
) -> Tuple[Trajectory, Optional[LyapunovResult]]:
    """integrate() and largest_lyapunov() from one RK4 pass.

    The recorded trajectory is the reference half of the exponent
    estimator, so one kernel call yields both, bit-identical to the two
    separate calls. The exponent is None when it could not be estimated
    (the reference diverged, the shadow collapsed, or no interval
    completed after the transient).
    """
    args = _fused_args(params, init, cfg, d0, renorm_interval)
    return _fused_result(params, cfg, args, kernels.rk4_trajectory(*args))


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

def _prepare_point(task):
    """A sweep task's circuit, its equilibria and its fused kernel
    arguments, or its _unrun_point when it stops before integration."""
    (r, table, spec, icfg, acfg, mode, sigma, seed_k, init, ref_params,
     d0) = task
    state = state_at(table, r)
    try:
        poly = perturb(state.poly, sigma, seed_k)
    except FloatingPointError as exc:
        return _unrun_point(r, seed_k,
                            f"perturbed coefficients not finite: {exc}")

    if mode == "fixed":
        params = replace(ref_params, device=poly)
        eqs = find_equilibria(params)
    else:
        try:
            report = design_circuit(
                DeviceState(r, state.v_set_mag, state.v_stop, poly),
                spec).require_ok()
        except DesignError as exc:
            return _unrun_point(r, seed_k, f"design failure: {exc}")
        params, eqs = report.params, report.equilibria
    return params, eqs, _fused_args(params, init, icfg, d0, None)


def _sweep_point(task, params, eqs, args, out):
    """A sweep point from the kernel's `out` for its fused `args`."""
    r, _, _, icfg, acfg, _, _, seed_k, _, _, _ = task
    traj, lyap = _fused_result(params, icfg, args, out)
    soa = any(ev.kind in ("soa_low", "soa_high") for ev in traj.events)
    extrema = (local_extrema(traj.times, traj.v1) if len(traj.times) >= 3
               else [])
    verdict = classify(traj, eqs, acfg,
                       lambda1=lyap.lambda1 if lyap else None,
                       time_unit=params.time_unit, extrema=extrema)
    values = np.array([e.value for e in extrema]) if extrema else np.empty(0)
    reason = None
    if verdict.label == Label.INCONCLUSIVE:
        reason = ("record stopped at the first window crossing "
                  "(soa_policy abort)" if traj.aborted_on_soa
                  else "too few samples or extrema to classify")
    return SweepPoint(r, values, verdict, seed_k, soa, reason)


def _sweep_points(tasks):
    """The sweep points of a few tasks, in order; the kernels step the
    points that run two at a time (kernels.rk4_trajectories)."""
    prepared = [_prepare_point(task) for task in tasks]
    ran = [p for p in prepared if not isinstance(p, SweepPoint)]
    outs = iter(kernels.rk4_trajectories([args for *_, args in ran]))
    return [p if isinstance(p, SweepPoint)
            else _sweep_point(task, *p, next(outs))
            for task, p in zip(tasks, prepared)]

def sweep(table: StateTable, spec: DesignSpec, icfg: IntegrationConfig,
          acfg: AnalysisConfig, r_lo: float, r_hi: float, n_points: int,
          mode: str = "fixed", sigma: float = 0.0, seed: int = 0,
          init=(0.1, 0.0, 0.0), reference_r: Optional[float] = None,
          d0: float = 1e-8, workers: int = 1) -> list:
    """Classify the circuit at log-spaced programmed resistances.

    In "fixed" mode all circuit components stay at the reference design
    (the bench experiment: only the device is reprogrammed); "redesign"
    recomputes the components per point. Point k uses seed + k for its
    variability draw, so results are reproducible and independent of
    worker count. Per-point design failures and variability draws that
    overflow are recorded as inconclusive, with the cause on
    SweepPoint.reason, without stopping the sweep; in
    "fixed" mode a reference design that fails its checks raises
    DesignError before any point runs.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if not (0 < r_lo <= r_hi):
        raise ValueError("need 0 < r_lo <= r_hi")
    if mode not in ("fixed", "redesign"):
        raise ValueError(f"unknown sweep mode {mode!r}")

    ref_params = None
    if mode == "fixed":
        ref_r = (reference_r if reference_r is not None
                 else table.states[-1].r_prog)
        ref_params = design_circuit(state_at(table, ref_r),
                                    spec).require_ok().params

    rs = np.geomspace(r_lo, r_hi, n_points)
    tasks = [(float(r), table, spec, icfg, acfg, mode, sigma,
              int(seed) + k, tuple(init), ref_params, d0)
             for k, r in enumerate(rs)]

    # in pairs, which the C kernels step together; a batch holds its points'
    # records at once, so it stays at two
    pairs = [tasks[k:k + 2] for k in range(0, len(tasks), 2)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_sweep_points, pairs))
    else:
        batches = [_sweep_points(pair) for pair in pairs]
    return [point for batch in batches for point in batch]

def write_bifurcation_csv(path, points):
    """One row per extremum: r_prog_ohm, extremum_v1_V, class, in
    device._write_csv's bytes. The class is one of the fixed Label
    identifiers."""
    counts = [len(pt.extrema) for pt in points]
    _write_csv(path, ["r_prog_ohm", "extremum_v1_V", "class"], [
        np.repeat([float(pt.r_prog) for pt in points], counts),
        np.concatenate([np.empty(0), *(pt.extrema for pt in points)]),
        np.repeat([pt.verdict.label for pt in points], counts)])
