"""Time integration of the circuit equations with safe-window monitoring.

Both integrators emit an event whenever v1 crosses out of the device
window (the voltage range where the device acts as a static nonlinearity)
and flag divergence when any state magnitude exceeds 1000x its natural
scale; the physical circuit would saturate, so the model fails loudly
instead. Under the "abort" policy integration stops at the first window
crossing. All work is in SI units.
"""

import math
import sys
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import kernels
from .circuit import CircuitParams
from .device import write_csv
from .errors import IntegrationError

_KIND_NAMES = {
    kernels.KIND_SOA_LOW: "soa_low",
    kernels.KIND_SOA_HIGH: "soa_high",
    kernels.KIND_DIVERGED: "diverged",
}

DIVERGENCE_FACTOR = 1e3

# cap on the sample rows of a run, 320 MB of times and states, where a
# mistyped t_end or stride could otherwise ask for terabytes: a fixed-step
# run past it is refused before it preallocates them, and an adaptive run
# stops at it
MAX_RECORDED_ROWS = 10_000_000

# cap on the steps of a run: the adaptive controller's iterations, and the
# t_end / dt steps of a fixed-step run, which is refused before it starts
MAX_STEPS = 20_000_000


@dataclass(frozen=True)
class IntegrationConfig:
    """Shared configuration for the fixed-step and adaptive integrators.

    dt applies to the fixed-step path; abs_tol (applied to every component,
    volts or amps alike) and rel_tol drive the adaptive controller; the
    module constant MAX_STEPS caps the steps of both. States are recorded
    every record_stride-th accepted step once past t_transient. A dt
    longer than t_end is refused: a fixed-step run would step past t_end.
    """

    dt: float = 1e-6
    t_end: float = 0.5
    t_transient: float = 0.1
    record_stride: int = 10
    soa_policy: str = "warn"
    abs_tol: float = 1e-9
    rel_tol: float = 1e-7

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if not (0.0 <= self.t_transient < self.t_end):
            raise ValueError(
                f"need 0 <= t_transient < t_end, got {self.t_transient}, {self.t_end}")
        if self.dt > self.t_end:
            raise ValueError(f"need dt <= t_end, got {self.dt}, {self.t_end}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.soa_policy not in ("warn", "abort"):
            raise ValueError(f"unknown soa_policy {self.soa_policy!r}")
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class Event:
    time: float
    kind: str  # soa_low | soa_high | diverged
    value: float


@dataclass
class Trajectory:
    """Recorded samples (times strictly increasing) plus the event log.

    events_dropped counts the events past the kernels' buffer cap that
    are missing from `events`.
    """

    times: np.ndarray
    states: np.ndarray
    events: Tuple[Event, ...]
    status: int
    events_dropped: int = 0

    @property
    def v1(self):
        return self.states[:, 0]

    @property
    def diverged(self) -> bool:
        return self.status == kernels.STATUS_DIVERGED

    @property
    def aborted_on_soa(self) -> bool:
        return self.status == kernels.STATUS_SOA_ABORT


def _steps_for(duration: float, dt: float) -> int:
    x = duration / dt
    if math.isinf(x):
        return x  # past every step cap
    r = round(x)
    if abs(x - r) <= 1e-9 * max(1.0, abs(x)):
        return int(r)
    return int(math.ceil(x))


def _count(n) -> str:
    """A step or row count for a message: past int64, in %.3e form, where
    a horizon near the largest float would print hundreds of digits."""
    return f"{float(n):.3e}" if n > kernels.I64_MAX else str(n)


def _shared_args(params: CircuitParams, init, cfg: IntegrationConfig):
    """The arguments that both kernels take alike, by name: the start, the
    device window, the divergence bounds and the window policy."""
    v = np.asarray(init, dtype=float)
    if v.shape != (3,):
        raise ValueError("initial state must have exactly 3 components")
    if not np.isfinite(v).all():
        raise ValueError("initial state must be finite")
    # the kernels test -bound <= x <= bound, which lets an infinite state
    # through an infinite bound, so an overflowing bound becomes the
    # largest float
    top = sys.float_info.max
    d = params.device
    return dict(zip(("v1", "v2", "il"), v.tolist()), v_min=d.v_min,
                v_max=d.v_max,
                v_div=min(DIVERGENCE_FACTOR * params.voltage_scale, top),
                i_div=min(DIVERGENCE_FACTOR * params.current_scale, top),
                abort_on_soa=cfg.soa_policy == "abort")


def trajectory_of(out) -> Trajectory:
    """The Trajectory of a kernel's Rk4Out or DopriOut."""
    events = tuple(Event(float(t), _KIND_NAMES[int(k)], float(v))
                   for t, k, v in zip(out.ev_t, out.ev_k, out.ev_v))
    return Trajectory(times=out.times, states=out.states, events=events,
                      status=out.status,
                      events_dropped=int(out.events_dropped))


def rk4_call(params: CircuitParams, init, cfg: IntegrationConfig,
             record: bool = True, shadow: bool = False) -> kernels.Rk4Call:
    """The kernels.Rk4Call of a fixed-step run; every RK4 call is built here.

    record=False turns the recorder off, window checks included. shadow=True
    turns on the exponent estimator's shadow, kernels.SHADOW_D0 volts off on
    v1 and pulled back every circuit time unit (R*C2); it sums the intervals
    that start at or after t_transient. Raises IntegrationError, before
    anything is allocated, for a recorded run of more than MAX_RECORDED_ROWS
    samples or a run of more than MAX_STEPS steps.
    """
    n_steps = _steps_for(cfg.t_end, cfg.dt)
    transient_steps = _steps_for(cfg.t_transient, cfg.dt)
    estimator = {}
    if shadow:
        # an interval longer than the run completes none, whatever its
        # length, so n_steps + 1 steps stand in for any longer one, an
        # infinite one too (R*C2 overflows for r = c2 = 1e300)
        every = max(1, _steps_for(params.time_unit, cfg.dt))
        estimator = dict(shadow=True, transient_steps=transient_steps,
                         renorm_every=min(every, n_steps + 1))
    call = kernels.Rk4Call(
        *params.kernel_args, dt=cfg.dt, n_steps=n_steps,
        rec_start=transient_steps if record else n_steps + 1,
        stride=cfg.record_stride, **_shared_args(params, init, cfg),
        **estimator)
    if call.rows > MAX_RECORDED_ROWS:
        raise IntegrationError(
            f"run would record {_count(call.rows)} samples, above the cap of "
            f"{MAX_RECORDED_ROWS}; raise record_stride or shorten "
            "t_end - t_transient")
    if n_steps > MAX_STEPS:
        raise IntegrationError(
            f"run would take {_count(n_steps)} RK4 steps, above the cap of "
            f"{MAX_STEPS} (max_steps); raise dt or shorten t_end")
    return call


def integrate(params: CircuitParams, init, cfg: IntegrationConfig) -> Trajectory:
    """Fixed-step RK4 over [0, t_end]; deterministic for identical inputs."""
    (out,) = kernels.rk4_trajectories([rk4_call(params, init, cfg)])
    return trajectory_of(out)


def integrate_adaptive(params: CircuitParams, init,
                       cfg: IntegrationConfig) -> Trajectory:
    """Embedded 5(4) pair with the standard step-size controller.

    Raises IntegrationError on step underflow (stiffness, or a t_end so
    short that the first step, t_end * 1e-4, is below the step floor) or
    when the iteration cap is hit, with the partial trajectory on the
    exception's `trajectory` attribute; and, with none attached, when the
    run would record more than MAX_RECORDED_ROWS samples.
    """
    h_max = cfg.t_end / 50.0
    h0 = min(h_max, cfg.t_end * 1e-4)
    call = kernels.DopriCall(
        *params.kernel_args, t_end=cfg.t_end, t_transient=cfg.t_transient,
        stride=cfg.record_stride, abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol,
        h0=h0, h_max=h_max, max_steps=MAX_STEPS,
        max_rows=MAX_RECORDED_ROWS, **_shared_args(params, init, cfg))
    traj = trajectory_of(kernels.dopri_trajectory(call))
    t_reached = traj.times[-1] if len(traj.times) else 0.0
    if traj.status == kernels.STATUS_ROW_LIMIT:
        raise IntegrationError(
            f"adaptive run reached the cap of {MAX_RECORDED_ROWS} samples "
            f"by t={t_reached:.6e} s, short of t_end={cfg.t_end!r} s; "
            f"raise record_stride (now {cfg.record_stride}) or shorten "
            "t_end - t_transient")
    if traj.status == kernels.STATUS_STEP_UNDERFLOW:
        floor = call.h_min
        exc = IntegrationError(
            f"t_end={cfg.t_end!r} s is too short for the adaptive pair: its "
            f"first step, t_end * 1e-4, is below the {floor!r} s step floor"
            if h0 < floor else
            f"step size underflow below {floor!r} s near t={t_reached:.6e} "
            "s; the problem is too stiff for the explicit pair")
        exc.trajectory = traj
        raise exc
    if traj.status == kernels.STATUS_STEP_LIMIT:
        exc = IntegrationError(
            f"exceeded max_steps={MAX_STEPS} before reaching t_end")
        exc.trajectory = traj
        raise exc
    return traj


def write_trajectory_csv(path, traj: Trajectory):
    """One row per sample: t_s, v1_V, v2_V, iL_A, in device.write_csv's
    bytes (the ones csv.writer writes)."""
    write_csv(path, ["t_s", "v1_V", "v2_V", "iL_A"],
              [traj.times, *np.asarray(traj.states).reshape(-1, 3).T])


def write_events_csv(path, traj: Trajectory):
    """One row per event: t_s, kind, value, in device.write_csv's bytes.
    The kind is one of the fixed identifiers soa_low, soa_high and
    diverged."""
    evs = traj.events
    write_csv(path, ["t_s", "kind", "value"],
              [[ev.time for ev in evs], [ev.kind for ev in evs],
               [ev.value for ev in evs]])
