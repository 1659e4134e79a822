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
from .device import _write_csv
from .errors import IntegrationError

_KIND_NAMES = {
    kernels.KIND_SOA_LOW: "soa_low",
    kernels.KIND_SOA_HIGH: "soa_high",
    kernels.KIND_DIVERGED: "diverged",
}

DIVERGENCE_FACTOR = 1e3

# cap on the sample rows a fixed-step run preallocates: 320 MB of times and
# states, where a mistyped t_end or stride could otherwise ask for terabytes
MAX_RECORDED_ROWS = 10_000_000


@dataclass(frozen=True)
class IntegrationConfig:
    """Shared configuration for the fixed-step and adaptive integrators.

    dt applies to the fixed-step path; abs_tol (applied to every component,
    volts or amps alike) and rel_tol drive the adaptive controller.
    States are recorded every record_stride-th accepted step once past
    t_transient.
    """

    dt: float = 1e-6
    t_end: float = 0.5
    t_transient: float = 0.1
    record_stride: int = 10
    soa_policy: str = "warn"
    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_steps: int = 20_000_000

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if not (0.0 <= self.t_transient < self.t_end):
            raise ValueError(
                f"need 0 <= t_transient < t_end, got {self.t_transient}, {self.t_end}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.soa_policy not in ("warn", "abort"):
            raise ValueError(f"unknown soa_policy {self.soa_policy!r}")
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


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

    @property
    def final_state(self):
        return self.states[-1]


def _steps_for(duration: float, dt: float) -> int:
    x = duration / dt
    r = round(x)
    if abs(x - r) <= 1e-9 * max(1.0, abs(x)):
        return int(r)
    return int(math.ceil(x))


def _divergence_bounds(params: CircuitParams):
    # the kernels test -bound <= x <= bound, which lets an infinite state
    # through an infinite bound, so an overflowing bound becomes the
    # largest float
    return (min(DIVERGENCE_FACTOR * params.voltage_scale, sys.float_info.max),
            min(DIVERGENCE_FACTOR * params.current_scale, sys.float_info.max))


def _init_tuple(init):
    v = np.asarray(init, dtype=float)
    if v.shape != (3,):
        raise ValueError("initial state must have exactly 3 components")
    if not np.isfinite(v).all():
        raise ValueError("initial state must be finite")
    return float(v[0]), float(v[1]), float(v[2])


def _build(times, states, ev_t, ev_k, ev_v, status, dropped) -> Trajectory:
    events = tuple(Event(float(t), _KIND_NAMES[int(k)], float(v))
                   for t, k, v in zip(ev_t, ev_k, ev_v))
    return Trajectory(times=times, states=states, events=events, status=status,
                      events_dropped=int(dropped))


def _rk4_args(params: CircuitParams, init, cfg: IntegrationConfig,
              record: bool = True) -> tuple:
    """Leading arguments of kernels.rk4_trajectory.

    record=False turns the recorder off, window checks included. A recorded
    run that would keep more than MAX_RECORDED_ROWS samples raises
    IntegrationError before anything is allocated.
    """
    v1, v2, il = _init_tuple(init)
    n_steps = _steps_for(cfg.t_end, cfg.dt)
    rec_start = _steps_for(cfg.t_transient, cfg.dt) if record else n_steps + 1
    rows = (n_steps - rec_start) // cfg.record_stride + 1
    if rows > MAX_RECORDED_ROWS:
        raise IntegrationError(
            f"run would record {rows} samples, above the cap of "
            f"{MAX_RECORDED_ROWS}; raise record_stride or shorten "
            "t_end - t_transient")
    v_div, i_div = _divergence_bounds(params)
    d = params.device
    return (*params.kernel_args, v1, v2, il, cfg.dt, n_steps, rec_start,
            cfg.record_stride, d.v_min, d.v_max, v_div, i_div,
            cfg.soa_policy == "abort")


def integrate(params: CircuitParams, init, cfg: IntegrationConfig) -> Trajectory:
    """Fixed-step RK4 over [0, t_end]; deterministic for identical inputs."""
    out = kernels.rk4_trajectory(*_rk4_args(params, init, cfg))
    return _build(*out[:6], out[9])


def integrate_adaptive(params: CircuitParams, init,
                       cfg: IntegrationConfig) -> Trajectory:
    """Embedded 5(4) pair with the standard step-size controller.

    Raises IntegrationError on step underflow (stiffness) or when the
    iteration cap is hit; the partial trajectory rides on the exception's
    `trajectory` attribute.
    """
    v1, v2, il = _init_tuple(init)
    v_div, i_div = _divergence_bounds(params)
    d = params.device
    h_max = cfg.t_end / 50.0
    h0 = min(h_max, cfg.t_end * 1e-4)
    out = kernels.dopri_trajectory(
        *params.kernel_args, v1, v2, il, cfg.t_end, cfg.t_transient,
        cfg.record_stride, cfg.abs_tol, cfg.rel_tol, h0, h_max,
        d.v_min, d.v_max, v_div, i_div, cfg.soa_policy == "abort",
        cfg.max_steps)
    traj = _build(*out)
    if traj.status == kernels.STATUS_STEP_UNDERFLOW:
        t_reached = traj.times[-1] if len(traj.times) else 0.0
        exc = IntegrationError(
            f"step size underflow below 1e-15 s near t={t_reached:.6e} s; "
            "the problem is too stiff for the explicit pair")
        exc.trajectory = traj
        raise exc
    if traj.status == kernels.STATUS_STEP_LIMIT:
        exc = IntegrationError(
            f"exceeded max_steps={cfg.max_steps} before reaching t_end")
        exc.trajectory = traj
        raise exc
    return traj


def write_trajectory_csv(path, traj: Trajectory):
    """One row per sample: t_s, v1_V, v2_V, iL_A, in device._write_csv's
    bytes (the ones csv.writer writes)."""
    _write_csv(path, ["t_s", "v1_V", "v2_V", "iL_A"],
               [traj.times, *np.asarray(traj.states).reshape(-1, 3).T])


def write_events_csv(path, traj: Trajectory):
    """One row per event: t_s, kind, value, in device._write_csv's bytes.
    The kind is one of the fixed identifiers soa_low, soa_high and
    diverged."""
    evs = traj.events
    _write_csv(path, ["t_s", "kind", "value"],
               [[ev.time for ev in evs], [ev.kind for ev in evs],
                [ev.value for ev in evs]])
