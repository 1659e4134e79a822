import math

import numpy as np
import pytest

import memchua as m
from memchua import kernels

REF_COEFFS = m.REFERENCE_COEFFICIENTS

# the event columns of a Trajectory without events
NO_EVENTS = dict(event_times=np.empty(0), event_kinds=np.empty(0, str),
                 event_values=np.empty(0))


@pytest.fixture(params=["default", "pure"])
def backend(request, monkeypatch):
    """Runs a test on the kernel backend the package chose, then on the
    Python kernels."""
    if request.param == "pure":
        for name in ("rk4_trajectories", "dopri_trajectory"):
            monkeypatch.setattr(kernels, name, kernels.PURE_KERNELS[name])
    return request.param


@pytest.fixture(scope="session")
def ref_state():
    return m.reference_state()


@pytest.fixture(scope="session")
def spec():
    return m.DesignSpec(v_eq=0.9, c1=1e-8, alpha=10.0, beta=14.22)


@pytest.fixture(scope="session")
def designed(ref_state, spec):
    report = m.design_circuit(ref_state, spec)
    assert report.ok
    return report


@pytest.fixture(scope="session")
def lc_params():
    """Lossless LC: device zeroed, g = 0, g_n = 0."""
    poly = m.DevicePoly(0, 0, 0, 0, 0, v_min=-10.0, v_max=10.0)
    return m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=0.0, g_n=0.0,
                           device=poly)


@pytest.fixture(scope="session")
def linear_params():
    """Stable linear RLC: device zeroed, g_n = 0, g > 0."""
    poly = m.DevicePoly(0, 0, 0, 0, 0, v_min=-10.0, v_max=10.0)
    return m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=1.0 / 7643.0, g_n=0.0,
                           device=poly)


def lc_period(params) -> float:
    return 2.0 * math.pi * math.sqrt(params.l * params.c2)


def eval_current_oracle(coeffs, v):
    """Independent term-by-term polynomial evaluation (no Horner)."""
    return sum(c * v ** (k + 1) for k, c in enumerate(coeffs))


def bisect_equilibrium(params, lo, hi, tol=1e-14):
    """Independent bisection oracle for i_R(v) + g*v = 0 on [lo, hi]."""

    def h(v):
        i_dev = eval_current_oracle(params.device.coefficients, v)
        return i_dev - params.g_n * v + params.g * v

    f_lo, f_hi = h(lo), h(hi)
    assert f_lo * f_hi < 0, "oracle bracket must straddle a sign change"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = h(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def make_samples(coeffs, voltages):
    """An (n, 2) array of (v, i) rows, i from the term-by-term oracle."""
    return np.array([(float(v), float(eval_current_oracle(coeffs, v)))
                     for v in voltages], dtype=float).reshape(-1, 2)


def event_rows(traj):
    """The events of `traj` as (time, kind, value) tuples of Python floats
    and strings, one per event, in order."""
    return list(zip(traj.event_times.tolist(), traj.event_kinds.tolist(),
                    traj.event_values.tolist()))
