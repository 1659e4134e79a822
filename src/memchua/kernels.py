"""Hot integration kernels.

Two kernels: fixed-step RK4 (``rk4_trajectory``) and the adaptive
Dormand-Prince pair (``dopri_trajectory``). The RK4 kernel records the
reference trajectory and, when asked, advances the shadow trajectory of the
largest-exponent estimator in the same loop, so one call both records a run
and estimates its exponent: ``integrate`` calls it with the shadow off,
``largest_lyapunov`` with the recorder off, and
``analysis.trajectory_and_lyapunov`` with both on. Its step is written once,
as the closure ``step`` with the field spelled out at each of the four
stages, and the reference and the shadow each call it once per step: on the
pure path a step costs two Python calls, not one per field evaluation. The
DOPRI5 kernel reuses an accepted step's last stage as the next step's first.

``rk4_trajectories`` runs a list of RK4 calls. On the C backend it steps
two calls at a time as the two lanes of one kernel call, which is how a
sweep runs its points. An RK4 step is a chain of dependent floating-point
operations, so the C kernel is bound by their latency rather than by
their number. Timed as bare steps on a 2-CPU Intel Xeon VM (gcc 12, -O2),
one trajectory took about 110 ns per step, two interleaved (a reference
and its shadow) about 115 ns, and four about 185 ns. Packed as 2-wide
vectors, the references of two calls form one chain and their shadows
another, and the four trajectories took about 115 ns per step: 29 ns per
trajectory, against 58 ns for a call of its own. Each lane does the
scalar operations in the scalar order, so its results are bit for bit
those of a call of its own.

Kernel backends, chosen once at import and named by ``BACKEND``:

``"numba"``
    numba imports (the ``fast`` extra): the Python kernels below are
    compiled with ``numba.njit``. They are written as scalar-unrolled loops
    over the three circuit state variables for this.
``"c"``
    otherwise, ``_kernels.c``, a C port of the same two kernels (the same
    operations in the same order; its RK4 kernel steps one or two lanes),
    built with the compiler Python was built with (the first word of
    ``sysconfig.get_config_var("CC")``, else ``cc``) and loaded through
    ctypes. It is compiled with ``-ffp-contract=off`` and without
    ``-ffast-math``: no multiply and add are fused into one rounding and no
    operation is reordered, so every double matches the Python kernels bit
    for bit. The library is cached in this package's ``__pycache__`` as
    ``_kernels-<toolchain>-<build>.so``, the first hash covering the
    compiler and the machine, the second the source and the flags, so only
    the first import after a change compiles. It is written under a
    temporary name and renamed into place, which makes concurrent builds
    safe, and each build removes the libraries that earlier builds for the
    same toolchain left there; where ``__pycache__`` cannot be written it
    is built in a temporary directory for this process alone.
``"python"``
    when the C build fails (no compiler, a compile error, a library that
    does not load): the Python kernels run as they are, correct but 10 to
    40 times slower. ``C_BUILD_ERROR`` keeps the reason.

The undecorated Python kernels stay importable via ``PURE_KERNELS`` as the
reference that the parity tests compare every other backend against.

Kernels return flat numpy arrays plus integer status/event codes; the
wrapper layer in :mod:`memchua.integrate` and :mod:`memchua.analysis` turns
those into the public result types.
"""

import ctypes
import hashlib
import math
import os
import platform
import subprocess
import struct
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

try:
    import numba

    USE_NUMBA = True
except ImportError:
    USE_NUMBA = False

# integration outcome codes
STATUS_OK = 0
STATUS_SOA_ABORT = 1
STATUS_DIVERGED = 2
STATUS_STEP_UNDERFLOW = 3
STATUS_STEP_LIMIT = 4
STATUS_SHADOW_FAIL = 5

# event kind codes (match the wire order soa_low/soa_high/diverged)
KIND_SOA_LOW = 0
KIND_SOA_HIGH = 1
KIND_DIVERGED = 2

# events are rare by construction (emitted on window crossings, not per
# sample); the buffer cap just bounds worst-case memory
_EV_CAP = 4096


def _rk4_trajectory(p1, p2, p3, p4, p5, g, gn, c1, c2, l,
                    v1, v2, il, dt, n_steps, rec_start, stride,
                    v_min, v_max, v_div, i_div, abort_on_soa,
                    shadow=False, renorm_every=1, transient_steps=0, d0=1e-8):
    """Fixed-step classical RK4 over the circuit equations, optionally with
    the two-trajectory (shadow) exponent estimator in the same loop.

    The recorder keeps every `stride`-th step with index >= rec_start. It
    emits an event when v1 crosses out of [v_min, v_max] and, under the
    abort policy, stops at the first window crossing. rec_start > n_steps
    turns the recorder off, window checks included.

    With `shadow` on, a second trajectory starts offset by d0 on v1, is
    renormalized back to distance d0 every `renorm_every` steps, and the
    log stretch factors of intervals that start at or after
    `transient_steps` are summed; a collapsed or non-finite separation
    stops the shadow only. The shadow runs to n_steps even after the
    recorder stopped. Divergence of the reference (a non-finite state or
    any state magnitude beyond its v_div/i_div ceiling; both ceilings must
    be finite) stops both.

    Returns (times, states, ev_t, ev_k, ev_v, status, lyap_sum,
    n_intervals, lyap_status, events_dropped); events past _EV_CAP are
    counted, not stored.
    """

    h = 0.5 * dt

    def step(a, b, c):
        # one RK4 step with the field written out at each stage; the
        # coupling current u = (b - a) * g feeds both capacitor rows
        ir = a * (p1 + a * (p2 + a * (p3 + a * (p4 + a * p5)))) - gn * a
        u = (b - a) * g
        k1a, k1b, k1c = (u - ir) / c1, (c - u) / c2, -b / l
        x, y, z = a + h * k1a, b + h * k1b, c + h * k1c
        ir = x * (p1 + x * (p2 + x * (p3 + x * (p4 + x * p5)))) - gn * x
        u = (y - x) * g
        k2a, k2b, k2c = (u - ir) / c1, (z - u) / c2, -y / l
        x, y, z = a + h * k2a, b + h * k2b, c + h * k2c
        ir = x * (p1 + x * (p2 + x * (p3 + x * (p4 + x * p5)))) - gn * x
        u = (y - x) * g
        k3a, k3b, k3c = (u - ir) / c1, (z - u) / c2, -y / l
        x, y, z = a + dt * k3a, b + dt * k3b, c + dt * k3c
        ir = x * (p1 + x * (p2 + x * (p3 + x * (p4 + x * p5)))) - gn * x
        u = (y - x) * g
        k4a, k4b, k4c = (u - ir) / c1, (z - u) / c2, -y / l
        return (a + dt * (k1a + 2.0 * (k2a + k3a) + k4a) / 6.0,
                b + dt * (k1b + 2.0 * (k2b + k3b) + k4b) / 6.0,
                c + dt * (k1c + 2.0 * (k2c + k3c) + k4c) / 6.0)

    recording = rec_start <= n_steps
    n_rec = (n_steps - rec_start) // stride + 1 if recording else 0
    times = np.empty(n_rec)
    states = np.empty((n_rec, 3))
    ev_t = np.empty(_EV_CAP)
    ev_k = np.empty(_EV_CAP, np.int64)
    ev_v = np.empty(_EV_CAP)
    nev = 0
    j = 0
    status = STATUS_OK
    w1 = v1 + d0
    w2 = v2
    wl = il
    acc = 0.0
    ni = 0
    lyap_status = STATUS_OK

    inside = v_min <= v1 <= v_max
    if recording and not inside:
        if nev < _EV_CAP:
            ev_t[nev] = 0.0
            ev_k[nev] = KIND_SOA_LOW if v1 < v_min else KIND_SOA_HIGH
            ev_v[nev] = v1
        nev += 1
        if abort_on_soa:
            status = STATUS_SOA_ABORT
            recording = False
    if recording and rec_start == 0:
        times[j] = 0.0
        states[j, 0] = v1
        states[j, 1] = v2
        states[j, 2] = il
        j += 1

    last = n_steps if recording or shadow else 0
    for k in range(1, last + 1):
        v1, v2, il = step(v1, v2, il)
        if shadow:
            w1, w2, wl = step(w1, w2, wl)

        if not (-v_div <= v1 <= v_div and -v_div <= v2 <= v_div
                and -i_div <= il <= i_div):
            if recording:
                if nev < _EV_CAP:
                    ev_t[nev] = k * dt
                    ev_k[nev] = KIND_DIVERGED
                    ev_v[nev] = v1
                nev += 1
                status = STATUS_DIVERGED
            if shadow:
                lyap_status = STATUS_DIVERGED
            break

        if recording:
            t = k * dt
            now_inside = v_min <= v1 <= v_max
            if inside and not now_inside:
                if nev < _EV_CAP:
                    ev_t[nev] = t
                    ev_k[nev] = KIND_SOA_LOW if v1 < v_min else KIND_SOA_HIGH
                    ev_v[nev] = v1
                nev += 1
                if abort_on_soa:
                    status = STATUS_SOA_ABORT
                    recording = False
                    if not shadow:
                        break
            inside = now_inside

            if recording and k >= rec_start and (k - rec_start) % stride == 0:
                times[j] = t
                states[j, 0] = v1
                states[j, 1] = v2
                states[j, 2] = il
                j += 1

        if shadow and k % renorm_every == 0:
            dx = w1 - v1
            dy = w2 - v2
            dz = wl - il
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            if not math.isfinite(d) or d <= 0.0:
                lyap_status = STATUS_SHADOW_FAIL
                shadow = False
                if not recording:
                    break
            else:
                if k - renorm_every >= transient_steps:
                    acc += math.log(d / d0)
                    ni += 1
                s = d0 / d
                w1 = v1 + dx * s
                w2 = v2 + dy * s
                wl = il + dz * s

    kept = min(nev, _EV_CAP)
    return (times[:j].copy(), states[:j].copy(), ev_t[:kept].copy(),
            ev_k[:kept].copy(), ev_v[:kept].copy(), status,
            acc, ni, lyap_status, nev - kept)


def _dopri_trajectory(p1, p2, p3, p4, p5, g, gn, c1, c2, l,
                      v1, v2, il, t_end, t_transient, stride,
                      abs_tol, rel_tol, h0, h_max,
                      v_min, v_max, v_div, i_div, abort_on_soa, max_steps):
    """Adaptive Dormand-Prince 5(4) pair with the standard step controller.

    Accepts a step when each component's embedded error estimate is below
    abs_tol + rel_tol*|state|. Records every `stride`-th accepted step whose
    end time is past t_transient. Event semantics match the fixed-step
    kernel, events past _EV_CAP included (counted as the last return
    value); additionally reports step underflow (h < 1e-15 s) and an
    iteration cap.
    """

    def f(a, b, c):
        ir = a * (p1 + a * (p2 + a * (p3 + a * (p4 + a * p5)))) - gn * a
        return ((b - a) * g - ir) / c1, ((a - b) * g + c) / c2, -b / l

    cap = 1024
    times = np.empty(cap)
    states = np.empty((cap, 3))
    ev_t = np.empty(_EV_CAP)
    ev_k = np.empty(_EV_CAP, np.int64)
    ev_v = np.empty(_EV_CAP)
    nev = 0
    j = 0
    status = STATUS_OK

    inside = v_min <= v1 <= v_max
    if not inside:
        if nev < _EV_CAP:
            ev_t[nev] = 0.0
            ev_k[nev] = KIND_SOA_LOW if v1 < v_min else KIND_SOA_HIGH
            ev_v[nev] = v1
        nev += 1
        if abort_on_soa:
            status = STATUS_SOA_ABORT

    rec_count = -1
    if status == STATUS_OK and t_transient <= 0.0:
        times[j] = 0.0
        states[j, 0] = v1
        states[j, 1] = v2
        states[j, 2] = il
        j += 1
        rec_count = 0

    t = 0.0
    h = h0
    iters = 0
    # first same as last: an accepted step's k7 is the next step's k1, and
    # a rejected step leaves the state, and so k1, unchanged
    k1a, k1b, k1c = f(v1, v2, il)
    while status == STATUS_OK and t < t_end:
        iters += 1
        if iters > max_steps:
            status = STATUS_STEP_LIMIT
            break
        if h < 1e-15:
            status = STATUS_STEP_UNDERFLOW
            break
        if t + h > t_end:
            h = t_end - t

        x = v1 + h * 0.2 * k1a
        y = v2 + h * 0.2 * k1b
        z = il + h * 0.2 * k1c
        k2a, k2b, k2c = f(x, y, z)
        x = v1 + h * (0.075 * k1a + 0.225 * k2a)
        y = v2 + h * (0.075 * k1b + 0.225 * k2b)
        z = il + h * (0.075 * k1c + 0.225 * k2c)
        k3a, k3b, k3c = f(x, y, z)
        x = v1 + h * ((44.0 / 45.0) * k1a - (56.0 / 15.0) * k2a + (32.0 / 9.0) * k3a)
        y = v2 + h * ((44.0 / 45.0) * k1b - (56.0 / 15.0) * k2b + (32.0 / 9.0) * k3b)
        z = il + h * ((44.0 / 45.0) * k1c - (56.0 / 15.0) * k2c + (32.0 / 9.0) * k3c)
        k4a, k4b, k4c = f(x, y, z)
        x = v1 + h * ((19372.0 / 6561.0) * k1a - (25360.0 / 2187.0) * k2a
                      + (64448.0 / 6561.0) * k3a - (212.0 / 729.0) * k4a)
        y = v2 + h * ((19372.0 / 6561.0) * k1b - (25360.0 / 2187.0) * k2b
                      + (64448.0 / 6561.0) * k3b - (212.0 / 729.0) * k4b)
        z = il + h * ((19372.0 / 6561.0) * k1c - (25360.0 / 2187.0) * k2c
                      + (64448.0 / 6561.0) * k3c - (212.0 / 729.0) * k4c)
        k5a, k5b, k5c = f(x, y, z)
        x = v1 + h * ((9017.0 / 3168.0) * k1a - (355.0 / 33.0) * k2a
                      + (46732.0 / 5247.0) * k3a + (49.0 / 176.0) * k4a
                      - (5103.0 / 18656.0) * k5a)
        y = v2 + h * ((9017.0 / 3168.0) * k1b - (355.0 / 33.0) * k2b
                      + (46732.0 / 5247.0) * k3b + (49.0 / 176.0) * k4b
                      - (5103.0 / 18656.0) * k5b)
        z = il + h * ((9017.0 / 3168.0) * k1c - (355.0 / 33.0) * k2c
                      + (46732.0 / 5247.0) * k3c + (49.0 / 176.0) * k4c
                      - (5103.0 / 18656.0) * k5c)
        k6a, k6b, k6c = f(x, y, z)
        nv1 = v1 + h * ((35.0 / 384.0) * k1a + (500.0 / 1113.0) * k3a
                        + (125.0 / 192.0) * k4a - (2187.0 / 6784.0) * k5a
                        + (11.0 / 84.0) * k6a)
        nv2 = v2 + h * ((35.0 / 384.0) * k1b + (500.0 / 1113.0) * k3b
                        + (125.0 / 192.0) * k4b - (2187.0 / 6784.0) * k5b
                        + (11.0 / 84.0) * k6b)
        nil = il + h * ((35.0 / 384.0) * k1c + (500.0 / 1113.0) * k3c
                        + (125.0 / 192.0) * k4c - (2187.0 / 6784.0) * k5c
                        + (11.0 / 84.0) * k6c)
        k7a, k7b, k7c = f(nv1, nv2, nil)
        e1 = h * ((71.0 / 57600.0) * k1a - (71.0 / 16695.0) * k3a
                  + (71.0 / 1920.0) * k4a - (17253.0 / 339200.0) * k5a
                  + (22.0 / 525.0) * k6a - 0.025 * k7a)
        e2 = h * ((71.0 / 57600.0) * k1b - (71.0 / 16695.0) * k3b
                  + (71.0 / 1920.0) * k4b - (17253.0 / 339200.0) * k5b
                  + (22.0 / 525.0) * k6b - 0.025 * k7b)
        e3 = h * ((71.0 / 57600.0) * k1c - (71.0 / 16695.0) * k3c
                  + (71.0 / 1920.0) * k4c - (17253.0 / 339200.0) * k5c
                  + (22.0 / 525.0) * k6c - 0.025 * k7c)

        r = abs(e1) / (abs_tol + rel_tol * abs(v1))
        r2 = abs(e2) / (abs_tol + rel_tol * abs(v2))
        r3 = abs(e3) / (abs_tol + rel_tol * abs(il))
        if r2 > r:
            r = r2
        if r3 > r:
            r = r3
        if not math.isfinite(r):
            r = 2.0

        if r <= 1.0:
            t = t + h
            v1, v2, il = nv1, nv2, nil
            k1a, k1b, k1c = k7a, k7b, k7c

            if not (-v_div <= v1 <= v_div and -v_div <= v2 <= v_div
                    and -i_div <= il <= i_div):
                if nev < _EV_CAP:
                    ev_t[nev] = t
                    ev_k[nev] = KIND_DIVERGED
                    ev_v[nev] = v1
                nev += 1
                status = STATUS_DIVERGED
                break

            now_inside = v_min <= v1 <= v_max
            if inside and not now_inside:
                if nev < _EV_CAP:
                    ev_t[nev] = t
                    ev_k[nev] = KIND_SOA_LOW if v1 < v_min else KIND_SOA_HIGH
                    ev_v[nev] = v1
                nev += 1
                if abort_on_soa:
                    status = STATUS_SOA_ABORT
                    break
            inside = now_inside

            if t >= t_transient:
                rec_count += 1
                if rec_count % stride == 0:
                    if j >= cap:
                        ncap = cap * 2
                        nt = np.empty(ncap)
                        nt[:cap] = times
                        times = nt
                        ns = np.empty((ncap, 3))
                        ns[:cap] = states
                        states = ns
                        cap = ncap
                    times[j] = t
                    states[j, 0] = v1
                    states[j, 1] = v2
                    states[j, 2] = il
                    j += 1

            if r == 0.0:
                fac = 5.0
            else:
                fac = 0.9 * r ** -0.2
                if fac > 5.0:
                    fac = 5.0
                elif fac < 0.2:
                    fac = 0.2
            h = h * fac
            if h > h_max:
                h = h_max
        else:
            fac = 0.9 * r ** -0.2
            if fac < 0.2:
                fac = 0.2
            h = h * fac

    kept = min(nev, _EV_CAP)
    return (times[:j].copy(), states[:j].copy(), ev_t[:kept].copy(),
            ev_k[:kept].copy(), ev_v[:kept].copy(), status, nev - kept)


PURE_KERNELS = {
    "rk4_trajectory": _rk4_trajectory,
    "dopri_trajectory": _dopri_trajectory,
}

_C_SOURCE = Path(__file__).with_name("_kernels.c")
_C_CACHE = Path(__file__).with_name("__pycache__")
_C_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_C_LIBS = ("-lm",)
_C_BUILD_TIMEOUT_S = 300
_I64_MIN, _I64_MAX = -2**63, 2**63 - 1
# rk4_trajectory's defaulted trailing arguments: shadow, renorm_every,
# transient_steps, d0
_RK4_DEFAULTS = (False, 1, 0, 1e-8)


def _compiler():
    """The compiler Python was built with, else ``cc``."""
    words = (sysconfig.get_config_var("CC") or "").split()
    return words[0] if words else "cc"


def _c_ints(*values):
    # ctypes wraps an int that overflows int64 silently
    for v in values:
        if not _I64_MIN <= v <= _I64_MAX:
            raise OverflowError(f"{v} does not fit the C kernels' int64")


def _shared(args):
    """The arguments the two lanes of a C RK4 call share: dt, n_steps,
    rec_start, stride, abort_on_soa, shadow, transient_steps and d0, with
    dt and d0 as their bytes, so that -0.0 and 0.0 differ."""
    return (struct.pack("dd", args[13], args[25]), *args[14:17],
            bool(args[21]), bool(args[22]), args[24])


def _lane_groups(arg_tuples):
    """rk4_trajectories' calls, completed with rk4_trajectory's defaults,
    in order and in groups of one or two: two consecutive calls that share
    the shared arguments form a group, the lanes of one C kernel call."""
    calls = []
    for a in arg_tuples:
        if not 22 <= len(a) <= 26:
            raise TypeError(f"rk4_trajectory takes 22 to 26 arguments, "
                            f"got {len(a)}")
        calls.append(tuple(a) + _RK4_DEFAULTS[len(a) - 22:])
    groups = []
    i = 0
    while i < len(calls):
        n = 2 if (i + 1 < len(calls)
                  and _shared(calls[i]) == _shared(calls[i + 1])) else 1
        groups.append(calls[i:i + n])
        i += n
    return groups


def _bind(lib):
    """The kernels of a loaded ``_kernels.c`` library, behind wrappers with
    the Python kernels' signatures, defaults and return values.

    The wrappers allocate every buffer the C code writes to, with sizes
    computed here as the Python kernels compute them, and reject a stride
    or renormalization interval below 1, which the C code's countdowns
    would misread. Raises AttributeError when a symbol is missing.
    """
    f64, i64, flag, ptr = (ctypes.c_double, ctypes.c_int64, ctypes.c_int,
                           ctypes.c_void_p)
    i64_out = ctypes.POINTER(ctypes.c_int64)
    c_rk4 = lib.memchua_rk4_trajectory
    c_rk4.argtypes = ([flag] + [ptr] * 4 + [f64] + [i64] * 3 + [flag] * 2
                      + [i64, f64] + [ptr] * 5 + [i64, ptr, ptr])
    c_rk4.restype = None
    c_dopri = lib.memchua_dopri_trajectory
    c_dopri.argtypes = ([f64] * 15 + [i64] + [f64] * 8 + [flag, i64]
                        + [ptr] * 3 + [i64] + [ctypes.POINTER(ptr)] * 2
                        + [i64_out])
    c_dopri.restype = ctypes.c_int
    c_free = lib.memchua_free
    c_free.argtypes = [ptr]
    c_free.restype = None

    def lanes(calls):
        """One C call for one or two full rk4_trajectory argument tuples
        that share dt, n_steps, rec_start, stride, abort_on_soa, shadow,
        transient_steps and d0; each lane's return tuple, in order."""
        for a in calls:
            _c_ints(*a[14:17], *a[23:25])
            if a[16] < 1 or (a[22] and a[23] < 1):
                raise ValueError("stride and renorm_every must be >= 1")
        first = calls[0]
        n = len(calls)
        dt, n_steps, rec_start, stride = first[13:17]
        recording = rec_start <= n_steps
        n_rec = (n_steps - rec_start) // stride + 1 if recording else 0
        bufs = [(np.empty(n_rec), np.empty((n_rec, 3)), np.empty(_EV_CAP),
                 np.empty(_EV_CAP, np.int64), np.empty(_EV_CAP))
                for _ in calls]
        ptrs = [(ptr * n)(*(b[i].ctypes.data for b in bufs))
                for i in range(5)]
        out = (ctypes.c_int64 * (5 * n))()
        acc = (ctypes.c_double * n)()
        c_rk4(n, (f64 * (10 * n))(*(x for a in calls for x in a[:10])),
              (f64 * (3 * n))(*(x for a in calls for x in a[10:13])),
              (f64 * (4 * n))(*(x for a in calls for x in a[17:21])),
              (i64 * n)(*(a[23] for a in calls)), dt, n_steps, rec_start,
              stride, bool(first[21]), bool(first[22]), first[24],
              first[25], *ptrs, _EV_CAP, out, acc)
        results = []
        for i, (times, states, ev_t, ev_k, ev_v) in enumerate(bufs):
            j, status, nev, ni, lyap_status = out[5 * i:5 * i + 5]
            kept = min(nev, _EV_CAP)
            results.append((times[:j].copy(), states[:j].copy(),
                            ev_t[:kept].copy(), ev_k[:kept].copy(),
                            ev_v[:kept].copy(), status, acc[i], ni,
                            lyap_status, nev - kept))
        return results

    def rk4_trajectories(arg_tuples):
        """``rk4_trajectories`` run by the C build."""
        return [out for group in _lane_groups(arg_tuples)
                for out in lanes(group)]

    def rk4_trajectory(p1, p2, p3, p4, p5, g, gn, c1, c2, l,
                       v1, v2, il, dt, n_steps, rec_start, stride,
                       v_min, v_max, v_div, i_div, abort_on_soa,
                       shadow=False, renorm_every=1, transient_steps=0,
                       d0=1e-8):
        """``_rk4_trajectory`` run by the C build, as one lane."""
        return lanes([(p1, p2, p3, p4, p5, g, gn, c1, c2, l, v1, v2, il, dt,
                       n_steps, rec_start, stride, v_min, v_max, v_div,
                       i_div, abort_on_soa, shadow, renorm_every,
                       transient_steps, d0)])[0]

    def dopri_trajectory(p1, p2, p3, p4, p5, g, gn, c1, c2, l,
                         v1, v2, il, t_end, t_transient, stride,
                         abs_tol, rel_tol, h0, h_max,
                         v_min, v_max, v_div, i_div, abort_on_soa, max_steps):
        """``_dopri_trajectory`` run by the C build."""
        _c_ints(stride, max_steps)
        if stride < 1:
            raise ValueError("stride must be >= 1")
        ev_t = np.empty(_EV_CAP)
        ev_k = np.empty(_EV_CAP, np.int64)
        ev_v = np.empty(_EV_CAP)
        times_p, states_p = ctypes.c_void_p(), ctypes.c_void_p()
        out = (ctypes.c_int64 * 3)()
        if c_dopri(p1, p2, p3, p4, p5, g, gn, c1, c2, l, v1, v2, il, t_end,
                   t_transient, stride, abs_tol, rel_tol, h0, h_max, v_min,
                   v_max, v_div, i_div, bool(abort_on_soa), max_steps,
                   ev_t.ctypes.data, ev_k.ctypes.data, ev_v.ctypes.data,
                   _EV_CAP, ctypes.byref(times_p), ctypes.byref(states_p),
                   out) != 0:
            raise MemoryError("no memory for the DOPRI5 record")
        j, status, nev = out
        try:
            times = np.empty(j)
            states = np.empty((j, 3))
            ctypes.memmove(times.ctypes.data, times_p, times.nbytes)
            ctypes.memmove(states.ctypes.data, states_p, states.nbytes)
        finally:
            c_free(times_p)
            c_free(states_p)
        kept = min(nev, _EV_CAP)
        return (times, states, ev_t[:kept].copy(), ev_k[:kept].copy(),
                ev_v[:kept].copy(), status, nev - kept)

    return {"rk4_trajectory": rk4_trajectory,
            "rk4_trajectories": rk4_trajectories,
            "dopri_trajectory": dopri_trajectory}


def _compile_and_bind(cc, out):
    """Compile _kernels.c to `out` and load it: (kernels, None) or
    (None, reason)."""
    cmd = [cc, *_C_FLAGS, "-o", str(out), str(_C_SOURCE), *_C_LIBS]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=_C_BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return None, f"cannot run {cc}: {exc}"
    if proc.returncode != 0:
        return None, (f"{' '.join(cmd)} exited {proc.returncode}: "
                      f"{proc.stderr.strip()}")
    try:
        return _bind(ctypes.CDLL(str(out))), None
    except (OSError, AttributeError) as exc:
        return None, f"cannot load the built library: {exc}"


def _load_c():
    """The C kernels, from the cache or freshly built into it.

    Returns (kernels, None), or (None, reason) when they cannot be built or
    loaded. A cached library that does not load (truncated, say) is built
    again; a cache that cannot be written gets a build in a temporary
    directory that is removed once the library is loaded.
    """
    cc = _compiler()
    try:
        source = _C_SOURCE.read_bytes()
    except OSError as exc:
        return None, f"cannot read {_C_SOURCE}: {exc}"
    target = _library_path(cc, source)
    try:
        return _bind(ctypes.CDLL(str(target))), None
    except (OSError, AttributeError):
        pass  # not built yet, or unloadable: build it
    try:
        _C_CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp",
                                   dir=_C_CACHE)
        os.close(fd)
    except OSError:
        with tempfile.TemporaryDirectory(prefix="memchua-") as private:
            return _compile_and_bind(cc, Path(private) / target.name)
    # load the fresh build under its own name, then publish it: a rename is
    # atomic, so a concurrent loader sees no file or a whole one
    found, reason = _compile_and_bind(cc, tmp)
    try:
        if found is not None:
            os.replace(tmp, target)
            _prune_cache(target)
    except OSError:
        pass  # loaded all the same; the next import builds again
    finally:
        Path(tmp).unlink(missing_ok=True)
    return found, reason


def _library_path(cc, source):
    """The cache path of the library `cc` builds from `source`:
    ``_kernels-<toolchain>-<build>.so``."""
    def digest(*parts):
        key = hashlib.sha256()
        for part in parts:
            key.update(part if isinstance(part, bytes) else part.encode())
            key.update(b"\0")
        return key.hexdigest()[:16]
    return _C_CACHE / (f"_kernels-{digest(cc, platform.machine())}-"
                       f"{digest(source, *_C_FLAGS, *_C_LIBS)}.so")


def _prune_cache(keep):
    """Remove the cached libraries of `keep`'s toolchain but `keep`, best
    effort.

    Each is an earlier build, for another source or other flags. Builds for
    another compiler or machine stay, for the interpreters that use them,
    but one-hash names (``_kernels-<hash>.so``) all go: they predate the
    toolchain part, so their source is gone. A process that has one loaded
    keeps using it after the unlink; a concurrent builder's temporary file
    matches neither pattern.
    """
    toolchain = keep.name.split("-")[1]
    for stale in (*_C_CACHE.glob(f"_kernels-{toolchain}-*.so"),
                  *_C_CACHE.glob("_kernels-" + "[0-9a-f]" * 16 + ".so")):
        if stale != keep:
            try:
                stale.unlink()
            except OSError:
                pass


def rk4_trajectories(arg_tuples):
    """``[rk4_trajectory(*args) for args in arg_tuples]``, on the C backend
    two calls at a time.

    Each tuple holds rk4_trajectory's positional arguments, the defaulted
    trailing ones optional. On the C backend two consecutive calls that
    share dt, n_steps, rec_start, stride, abort_on_soa, shadow,
    transient_steps and d0 run as the two lanes of one kernel call, in
    about the time of one; any other call runs alone. Each result is the
    one rk4_trajectory returns for its call, bit for bit.
    """
    if _C_KERNELS is not None:
        return _C_KERNELS["rk4_trajectories"](arg_tuples)
    return [rk4_trajectory(*args) for args in arg_tuples]


C_BUILD_ERROR = None
_C_KERNELS = None
if USE_NUMBA:
    BACKEND = "numba"
    rk4_trajectory = numba.njit(cache=True)(_rk4_trajectory)
    dopri_trajectory = numba.njit(cache=True)(_dopri_trajectory)
else:
    _C_KERNELS, C_BUILD_ERROR = _load_c()
    BACKEND = "c" if _C_KERNELS else "python"
    rk4_trajectory = (_C_KERNELS or PURE_KERNELS)["rk4_trajectory"]
    dopri_trajectory = (_C_KERNELS or PURE_KERNELS)["dopri_trajectory"]
