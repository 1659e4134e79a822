"""The oscillator as a dynamical system.

State variables are the two capacitor voltages and the inductor current,
(v1, v2, iL), in SI units. The nonlinear block current is the device
current minus an ideal negative conductance, i_R(v) = i_dev(v) - g_n*v.
Equilibria solve i_R(v1) + g*v1 = 0 with v2 = 0 and iL = -g*v1; besides
the origin they are real roots of the deflated quartic

    q(v) = p5 v^4 + p4 v^3 + p3 v^2 + p2 v + (p1 + g - g_n).

The quartic's roots come from np.roots. Every equilibrium's 3x3 Jacobian
goes into one stack, whose spectra come from one np.linalg.eigvals call
and whose stability verdicts come from one numpy pass over them.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .device import DevicePoly, eval_current, eval_differential_conductance

class StateVector(NamedTuple):
    """Circuit state (v1 volts, v2 volts, iL amps)."""

    v1: float
    v2: float
    i_l: float

@dataclass(frozen=True)
class CircuitParams:
    """All constants of the state equations plus the device polynomial.

    g and g_n are finite conductances (1/R and 1/R_N). They may be zero to
    express the degenerate linear fixtures used in testing (pure LC, no
    negative converter); physical designs always have both positive.
    """

    c1: float
    c2: float
    l: float
    g: float
    g_n: float
    device: DevicePoly

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0 and self.l > 0):
            raise ValueError("c1, c2 and l must be positive")
        if not (0 <= self.g < math.inf and 0 <= self.g_n < math.inf):
            raise ValueError("g and g_n must be finite and nonnegative, got "
                             f"g={self.g!r} S, g_n={self.g_n!r} S")

    @property
    def voltage_scale(self) -> float:
        """Natural voltage scale: the wider side of the device window."""
        return max(-self.device.v_min, self.device.v_max)

    @property
    def current_scale(self) -> float:
        """Natural current scale g*v_max, or the LC characteristic
        admittance times the voltage scale when g is zero."""
        s = self.g * self.device.v_max
        if s > 0:
            return s
        return self.voltage_scale * math.sqrt(self.c2 / self.l)

    @property
    def time_unit(self) -> float:
        """R*C2, the customary time normalization (LC fallback for g=0)."""
        if self.g > 0:
            return self.c2 / self.g
        return math.sqrt(self.l * self.c2)

    @property
    def kernel_args(self):
        d = self.device
        return (d.p1, d.p2, d.p3, d.p4, d.p5,
                self.g, self.g_n, self.c1, self.c2, self.l)

def nonlinear_current(params: CircuitParams, v):
    """Total nonlinear block current i_R(v) = i_dev(v) - g_n*v."""
    return eval_current(params.device, v) - params.g_n * v

def nonlinear_slope(params: CircuitParams, v):
    """d i_R / dv at voltage v."""
    return eval_differential_conductance(params.device, v) - params.g_n

def existence_condition(params: CircuitParams) -> bool:
    """True when the off-origin equilibria can exist: p1 - g_n < -g."""
    return params.device.p1 - params.g_n < -params.g

def vector_field(params: CircuitParams, state):
    """Time derivative of (v1, v2, iL) at the given state."""
    v1, v2, il = float(state[0]), float(state[1]), float(state[2])
    return np.array([
        ((v2 - v1) * params.g - nonlinear_current(params, v1)) / params.c1,
        ((v1 - v2) * params.g + il) / params.c2,
        -v2 / params.l,
    ])

def jacobian(params: CircuitParams, state):
    """3x3 Jacobian of the vector field; only entry (0,0) is state dependent."""
    v1 = float(state[0])
    return np.array([
        [(-params.g - nonlinear_slope(params, v1)) / params.c1,
         params.g / params.c1, 0.0],
        [params.g / params.c2, -params.g / params.c2, 1.0 / params.c2],
        [0.0, -1.0 / params.l, 0.0],
    ])

def jacobian_trace(params: CircuitParams, v1: float) -> float:
    return (-params.g - nonlinear_slope(params, v1)) / params.c1 \
        - params.g / params.c2

@dataclass(frozen=True)
class StabilityVerdict:
    unstable: bool
    saddle_focus: bool
    max_real_part: float

@dataclass(frozen=True)
class EquilibriumPoint:
    """An equilibrium with its spectrum and the spectrum's stability
    verdict (_stability_verdicts). v2 is 0 and iL = -g*v1 exactly."""

    state: StateVector
    # "P0", else "P+"/"P-" numbered outward from the origin on each side:
    # "P+", "P+2", "P+3", ...
    label: str
    eigenvalues: tuple
    verdict: StabilityVerdict
    in_window: bool
    residual: float

    @property
    def stable(self) -> bool:
        return not self.verdict.unstable

def _stability_verdicts(eigs):
    """The StabilityVerdict of each row of an (n, 3) spectrum stack, in one
    numpy pass.

    An eigenvalue counts as real, and a real part as zero, within 1e-9
    times the spectral radius. A spectrum is unstable when a real part
    exceeds that tolerance. It is a saddle focus when the eigenvalue
    nearest the real axis is real, the other two are not, and the real
    parts of the real one and of the nearer of the other two are nonzero
    and of opposite signs. max_real_part is the largest real part.
    """
    eigs = np.asarray(eigs, dtype=complex)
    tol = 1e-9 * np.abs(eigs).max(axis=1)
    unstable = (eigs.real > tol[:, None]).any(axis=1)
    # before the reordering below: the max of 0.0 and -0.0 is the later one
    max_real = eigs.real.max(axis=1)

    # columns: the eigenvalue nearest the real axis, then the pair
    order = np.abs(eigs.imag).argsort(axis=1)
    eigs = eigs[np.arange(len(eigs))[:, None], order]
    im, re = np.abs(eigs.imag), eigs.real
    saddle_focus = ((im[:, 0] <= tol) & (im[:, 1] > tol) & (im[:, 2] > tol)
                    & (np.abs(re[:, 0]) > tol) & (np.abs(re[:, 1]) > tol)
                    & ((re[:, 0] < 0) != (re[:, 1] < 0)))
    return [StabilityVerdict(unstable=u, saddle_focus=s, max_real_part=x)
            for u, s, x in zip(unstable.tolist(), saddle_focus.tolist(),
                               max_real.tolist())]

_ORIGIN_MERGE = 1e-9
# same-sign roots closer than this fraction of the window width are one
# equilibrium: rounding splits a double root into two real roots about
# 1e-8 V apart, each with a zero residual
_ROOT_MERGE = 1e-6
_RESIDUAL_TOL = 1e-12

def _equilibrium_residual(params, v):
    return nonlinear_current(params, v) + params.g * v

def find_equilibria(params: CircuitParams) -> list:
    """All equilibria on the padded device window, origin always included.

    Off-origin candidates are the real roots of the deflated quartic inside
    the window padded by 10% of its width, polished with Newton on the full
    residual. Roots within 1e-9 V of zero merge into the origin point, and
    same-sign roots within 1e-6 of the window width of each other merge into
    the one with the smaller residual (the lower on a tie); roots outside
    the unpadded window are kept but flagged via in_window=False. An
    identically zero quartic (a linear network) yields the origin alone.
    A Jacobian with an entry past the float range raises ValueError.
    Off-origin points are labelled outward from the origin on each side:
    P+, P+2, P+3, ... and P-, P-2, ...
    """
    d = params.device
    width = d.v_max - d.v_min
    lo = d.v_min - 0.1 * width
    hi = d.v_max + 0.1 * width
    quartic = [d.p5, d.p4, d.p3, d.p2, d.p1 + params.g - params.g_n]
    roots = [float(z.real) for z in np.roots(quartic)
             if z.imag == 0.0 and lo <= z.real <= hi]

    polished = []
    for v in roots:
        for _ in range(3):
            h = _equilibrium_residual(params, v)
            if abs(h) <= _RESIDUAL_TOL:
                break
            hp = nonlinear_slope(params, v) + params.g
            if hp == 0.0:
                break
            v = v - h / hp
        if abs(v) >= _ORIGIN_MERGE:
            polished.append(v)

    groups = []
    for v in sorted(polished):
        if (groups and (v > 0) == (groups[-1][-1] > 0)
                and v - groups[-1][-1] < _ROOT_MERGE * width):
            groups[-1].append(v)
        else:
            groups.append([v])

    # min keeps the first of equal residuals, the lowest v1
    picked = [min(group, key=lambda u: abs(_equilibrium_residual(params, u)))
              for group in groups]
    vs, labels = [0.0], ["P0"]
    for sign, side in (("-", [v for v in reversed(picked) if v < 0]),
                       ("+", [v for v in picked if v > 0])):
        for k, v in enumerate(side, 1):  # nearest the origin first
            vs.append(float(v))
            labels.append(f"P{sign}{k if k > 1 else ''}")

    jacs = np.array([jacobian(params, (v, 0.0, 0.0)) for v in vs])
    finite = np.isfinite(jacs).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"the Jacobian at v1={vs[int(np.argmin(finite))]!r} "
                         "V is not finite: the circuit's rates overflow")
    # the stack's spectra come back real only when all of them are real;
    # complex() of each value, as each point's own call was converted
    eigs = np.linalg.eigvals(jacs).astype(complex, copy=False)

    points = [EquilibriumPoint(
                  state=StateVector(v, 0.0, -params.g * v),
                  label=label,
                  eigenvalues=tuple(row),
                  verdict=verdict,
                  in_window=bool(d.v_min <= v <= d.v_max),
                  residual=float(abs(_equilibrium_residual(params, v))))
              for v, label, row, verdict
              in zip(vs, labels, eigs.tolist(), _stability_verdicts(eigs))]
    points.sort(key=lambda p: p.state.v1)
    return points
