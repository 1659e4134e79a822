"""Hot integration kernels.

Two kernels: fixed-step RK4 (``_rk4_trajectory``) and the adaptive
Dormand-Prince pair (``_dopri_trajectory``), written in Python with flat
arguments, which makes them the reference the C build is tested against.
Callers name what they pass and get: ``Rk4Call`` and ``DopriCall`` are
namedtuples of the kernels' arguments, their fields and defaults read from
those two signatures, and ``Rk4Out`` and ``DopriOut`` of the kernels'
results. Both backends have the same two entry points:
``rk4_trajectories`` maps a list of Rk4Calls to their Rk4Outs, and
``dopri_trajectory`` a DopriCall to its DopriOut.

The RK4 kernel records the reference trajectory and, when asked, advances
the shadow trajectory of the largest-exponent estimator in the same loop,
so one call both records a run and estimates its exponent: ``integrate``
runs it with the shadow off, ``largest_lyapunov`` with the recorder off,
and ``analysis.trajectory_and_lyapunov`` with both on. ``integrate.rk4_call``
builds every such call, the shadow settings included.

Both kernels evaluate the circuit's field in one form: the coupling
current u = (v2 - v1) * g feeds both capacitor rows. The RK4 step, the
closure ``step`` that the reference and the shadow each call once per
step, spells the field out at its four stages: with a field function
called per stage, 20k shadowed steps took a median 0.118 s against
0.096 s (20 interleaved runs, 2-CPU Intel Xeon VM, Python 3.11.7). The
DOPRI5 kernel calls its field ``f`` per stage and reuses an accepted
step's last stage as the next step's first. The C port writes the field
once, as its macro ``FIELD``, and steps the DOPRI5 state as one vector,
so each Dormand-Prince stage is written once there; the Python kernels
spell out each component. Each event rule and the record row are written
once per backend (here ``_push_event``, ``_push_crossing`` and
``_record``), and the C binding shares the buffer helpers.

On the C backend ``rk4_trajectories`` steps consecutive calls two at a
time, whatever their arguments, as the two lanes of one kernel call, which
is how a sweep runs its points. An RK4 step is a chain of dependent
floating-point operations, so the C kernel is bound by their latency
rather than by their number: packed as 2-wide vectors, the references of
two calls form one chain and their shadows another, and the four
trajectories step in about the time of one call's two (the header of
``_kernels.c`` has the timings). Each lane does the scalar operations in
the scalar order, with its own step size and step count, so its results
are bit for bit those of a call of its own. A call reaches C as one
struct: ``_kernels.c`` declares ``Rk4Call`` and ``DopriCall`` field for
field, an ``int64_t`` for each name in ``_C_INTS`` and a ``double`` for
every other, and ``_c_struct`` builds the matching ctypes ``Structure``
from the named call's fields.

Kernel backends, chosen once at import and named by ``BACKEND``:

``"c"``
    ``_kernels.c``, a C port of the same two kernels (the same operations
    in the same order; its RK4 kernel steps one or two lanes), built with
    the compiler Python was built with (the first word of
    ``sysconfig.get_config_var("CC")``, else ``cc``) and loaded through
    ``ctypes.CDLL``, so a kernel call releases the GIL: ``memchua
    simulate`` with rk45 runs its exponent pass on a helper thread beside
    the DOPRI5 record pass and the CSV writes, and the worker threads of
    ``analysis.sweep`` step their pairs of points at once. Loading it with
    ``ctypes.PyDLL``, which holds the GIL, would silently serialise both
    again. It is compiled with ``-ffp-contract=off`` and without
    ``-ffast-math``: no multiply and add are fused into one rounding and no
    operation is reordered, so every double matches the Python kernels bit
    for bit, up to the payload of a NaN. The library is cached in this
    package's ``__pycache__`` as ``_kernels-<toolchain>-<build>.so``, the
    first hash covering the compiler and the machine, the second the source
    and the flags, so only the first import after a change compiles. It
    is written under a temporary name and renamed into place, which makes
    concurrent builds safe, and each build removes the libraries that
    earlier builds for the same toolchain left there; where ``__pycache__``
    cannot be written it is built in a temporary directory for this
    process alone.
``"python"``
    when the C build fails (no compiler, a compile error, a library that
    does not load): the Python kernels below run as they are, correct but
    10 to 40 times slower. ``C_BUILD_ERROR`` keeps the reason.

``PURE_KERNELS`` keeps the Python backend's two entry points importable
as the reference that the parity tests compare the C build against.

A kernel's result holds numpy arrays plus integer status and event codes;
:mod:`memchua.integrate` and :mod:`memchua.analysis` turn it into the
public result types.
"""

import ctypes
import hashlib
import inspect
import math
import os
import platform
import subprocess
import sysconfig
import tempfile
from collections import namedtuple
from pathlib import Path

import numpy as np

# no numba backend; perfbench/run.py's environment() records this flag
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

# what the kernels return, in order; events past _EV_CAP are counted in
# events_dropped, not stored
Rk4Out = namedtuple("Rk4Out", "times states ev_t ev_k ev_v status lyap_sum "
                    "n_intervals lyap_status events_dropped")
DopriOut = namedtuple("DopriOut",
                      "times states ev_t ev_k ev_v status events_dropped")


def _record_rows(n_steps, rec_start, stride):
    """Rows of a fixed-step record: every stride-th step from rec_start."""
    return (n_steps - rec_start) // stride + 1 if rec_start <= n_steps else 0


def _record(times, states, j, t, v1, v2, il):
    """Write row j of a kernel's record; returns j + 1."""
    times[j] = t
    states[j, 0] = v1
    states[j, 1] = v2
    states[j, 2] = il
    return j + 1


def _event_buffers():
    """Empty buffers for a kernel call's events: times, kinds, values."""
    return np.empty(_EV_CAP), np.empty(_EV_CAP, np.int64), np.empty(_EV_CAP)


def _push_event(ev, n, t, kind, v):
    """Store event number `n` in the buffers `ev` unless it is past
    _EV_CAP; returns the count of events seen, this one included."""
    if n < _EV_CAP:
        ev[0][n] = t
        ev[1][n] = kind
        ev[2][n] = v
    return n + 1


def _push_crossing(ev, n, t, v1, v_min):
    """_push_event for v1 leaving the window [v_min, v_max] at time t."""
    return _push_event(ev, n, t,
                       KIND_SOA_LOW if v1 < v_min else KIND_SOA_HIGH, v1)


def _stored_events(ev, n):
    """The event fields of an Rk4Out or DopriOut, from the buffers `ev`
    after `n` events: copies of those stored, and the count of the rest."""
    kept = min(n, _EV_CAP)
    return dict(ev_t=ev[0][:kept].copy(), ev_k=ev[1][:kept].copy(),
                ev_v=ev[2][:kept].copy(), events_dropped=n - kept)


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

    Returns an Rk4Out.
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
    n_rec = _record_rows(n_steps, rec_start, stride)
    times = np.empty(n_rec)
    states = np.empty((n_rec, 3))
    ev = _event_buffers()
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
        nev = _push_crossing(ev, nev, 0.0, v1, v_min)
        if abort_on_soa:
            status = STATUS_SOA_ABORT
            recording = False
    if recording and rec_start == 0:
        j = _record(times, states, j, 0.0, v1, v2, il)

    last = n_steps if recording or shadow else 0
    for k in range(1, last + 1):
        v1, v2, il = step(v1, v2, il)
        if shadow:
            w1, w2, wl = step(w1, w2, wl)

        if not (-v_div <= v1 <= v_div and -v_div <= v2 <= v_div
                and -i_div <= il <= i_div):
            if recording:
                nev = _push_event(ev, nev, k * dt, KIND_DIVERGED, v1)
                status = STATUS_DIVERGED
            if shadow:
                lyap_status = STATUS_DIVERGED
            break

        if recording:
            t = k * dt
            now_inside = v_min <= v1 <= v_max
            if inside and not now_inside:
                nev = _push_crossing(ev, nev, t, v1, v_min)
                if abort_on_soa:
                    status = STATUS_SOA_ABORT
                    recording = False
                    if not shadow:
                        break
            inside = now_inside

            if recording and k >= rec_start and (k - rec_start) % stride == 0:
                j = _record(times, states, j, t, v1, v2, il)

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

    return Rk4Out(times=times[:j].copy(), states=states[:j].copy(),
                  status=status, lyap_sum=acc, n_intervals=ni,
                  lyap_status=lyap_status, **_stored_events(ev, nev))


def _dopri_trajectory(p1, p2, p3, p4, p5, g, gn, c1, c2, l,
                      v1, v2, il, t_end, t_transient, stride,
                      abs_tol, rel_tol, h0, h_max,
                      v_min, v_max, v_div, i_div, abort_on_soa, max_steps):
    """Adaptive Dormand-Prince 5(4) pair with the standard step controller.

    Accepts a step when each component's embedded error estimate is below
    abs_tol + rel_tol*|state|. Records every `stride`-th accepted step whose
    end time is past t_transient. Event semantics match the fixed-step
    kernel, events past _EV_CAP included, except that a start past the
    divergence ceilings diverges at t=0 (after its window check, and
    unrecorded, like an accepted step past them). Additionally reports step
    underflow (h < 1e-15 s) and an iteration cap. Returns a DopriOut.
    """

    def f(a, b, c):
        ir = a * (p1 + a * (p2 + a * (p3 + a * (p4 + a * p5)))) - gn * a
        u = (b - a) * g
        return (u - ir) / c1, (c - u) / c2, -b / l

    times = np.empty(1024)
    states = np.empty((1024, 3))
    ev = _event_buffers()
    nev = 0
    j = 0
    status = STATUS_OK

    inside = v_min <= v1 <= v_max
    if not inside:
        nev = _push_crossing(ev, nev, 0.0, v1, v_min)
        if abort_on_soa:
            status = STATUS_SOA_ABORT
    # a start past the divergence bounds has diverged, as an accepted step
    # past them has
    if status == STATUS_OK and not (-v_div <= v1 <= v_div
                                    and -v_div <= v2 <= v_div
                                    and -i_div <= il <= i_div):
        nev = _push_event(ev, nev, 0.0, KIND_DIVERGED, v1)
        status = STATUS_DIVERGED

    rec_count = -1
    if status == STATUS_OK and t_transient <= 0.0:
        j = _record(times, states, j, 0.0, v1, v2, il)
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
                nev = _push_event(ev, nev, t, KIND_DIVERGED, v1)
                status = STATUS_DIVERGED
                break

            now_inside = v_min <= v1 <= v_max
            if inside and not now_inside:
                nev = _push_crossing(ev, nev, t, v1, v_min)
                if abort_on_soa:
                    status = STATUS_SOA_ABORT
                    break
            inside = now_inside

            if t >= t_transient:
                rec_count += 1
                if rec_count % stride == 0:
                    if j == len(times):  # full: double the record
                        times = np.resize(times, 2 * j)
                        states = np.resize(states, (2 * j, 3))
                    j = _record(times, states, j, t, v1, v2, il)

        # the next h for both outcomes: an error-free step grows h by 5,
        # and r > 1 stays below 5
        fac = 5.0 if r == 0.0 else 0.9 * r ** -0.2
        if fac > 5.0:
            fac = 5.0
        elif fac < 0.2:
            fac = 0.2
        h = h * fac
        if r <= 1.0 and h > h_max:
            h = h_max

    return DopriOut(times=times[:j].copy(), states=states[:j].copy(),
                    status=status, **_stored_events(ev, nev))


def _call_type(name, kernel):
    """A namedtuple of `kernel`'s parameters, in order, with its defaults."""
    params = inspect.signature(kernel).parameters.values()
    return namedtuple(name, [p.name for p in params],
                      defaults=[p.default for p in params
                                if p.default is not p.empty])


# a kernel call's arguments by name, in the pure kernel's order
class Rk4Call(_call_type("Rk4Call", _rk4_trajectory)):
    __slots__ = ()
    # the rows of the call's record, the ones the kernel allocates
    rows = property(lambda c: _record_rows(c.n_steps, c.rec_start, c.stride))


DopriCall = _call_type("DopriCall", _dopri_trajectory)


# the Python backend's entry points, one kernel call per named call
PURE_KERNELS = {
    "rk4_trajectories": lambda calls: [_rk4_trajectory(*c) for c in calls],
    "dopri_trajectory": lambda call: _dopri_trajectory(*call),
}

_C_SOURCE = Path(__file__).with_name("_kernels.c")
_C_CACHE = Path(__file__).with_name("__pycache__")
_C_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_C_LIBS = ("-lm",)
_C_BUILD_TIMEOUT_S = 300
I64_MIN, I64_MAX = -2**63, 2**63 - 1
# the integer fields of Rk4Call and DopriCall, an int64_t each in the C
# structs of the same names; every other field is a double
_C_INTS = frozenset({"n_steps", "rec_start", "stride", "abort_on_soa",
                     "shadow", "renorm_every", "transient_steps",
                     "max_steps"})


def _compiler():
    """The compiler Python was built with, else ``cc``."""
    words = (sysconfig.get_config_var("CC") or "").split()
    return words[0] if words else "cc"


def _c_ints(call):
    """Raise OverflowError unless each integer field of `call` fits an
    int64, which ctypes would wrap silently."""
    for name, v in zip(call._fields, call):
        if name in _C_INTS and not I64_MIN <= v <= I64_MAX:
            raise OverflowError(f"{name}={v} does not fit an int64")


def _c_struct(call_type):
    """The ctypes Structure of `call_type`'s fields, in order: the C
    struct of the same name."""
    return type(call_type.__name__, (ctypes.Structure,), {"_fields_": [
        (name, ctypes.c_int64 if name in _C_INTS else ctypes.c_double)
        for name in call_type._fields]})


def _bind(lib):
    """The kernels of a loaded ``_kernels.c`` library, behind entry points
    that take and return the named tuples that ``PURE_KERNELS``'s do.

    The wrappers allocate every buffer the C code writes to, with sizes
    computed here as the Python kernels compute them, and reject a stride
    or renormalization interval below 1, which the C code's countdowns
    would misread. Raises AttributeError when a symbol is missing.
    """
    f64, i64, ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    rk4_struct, dopri_struct = _c_struct(Rk4Call), _c_struct(DopriCall)
    c_rk4 = lib.memchua_rk4_trajectory
    c_rk4.argtypes = [ctypes.c_int] + [ptr] * 6 + [i64, ptr, ptr]
    c_rk4.restype = None
    c_dopri = lib.memchua_dopri_trajectory
    c_dopri.argtypes = ([ctypes.POINTER(dopri_struct)] + [ptr] * 3 + [i64]
                        + [ctypes.POINTER(ptr)] * 2 + [ctypes.POINTER(i64)])
    c_dopri.restype = ctypes.c_int
    c_free = lib.memchua_free
    c_free.argtypes = [ptr]
    c_free.restype = None

    def lanes(calls):
        """One C call for one or two Rk4Calls; each lane's Rk4Out, in
        order."""
        bufs = []
        for c in calls:
            _c_ints(c)
            if c.stride < 1 or (c.shadow and c.renorm_every < 1):
                raise ValueError("stride and renorm_every must be >= 1")
            bufs.append((np.empty(c.rows), np.empty((c.rows, 3)),
                         *_event_buffers()))
        n = len(calls)
        ptrs = [(ptr * n)(*(a.ctypes.data for a in column))
                for column in zip(*bufs)]
        # each lane's rows recorded, status, events seen, n_intervals and
        # lyap_status, and its summed log stretch
        counts = ((i64 * 5) * n)()
        acc = (f64 * n)()
        c_rk4(n, (rk4_struct * n)(*calls), *ptrs, _EV_CAP, counts, acc)
        results = []
        for (times, states, *ev), out, lyap_sum in zip(bufs, counts, acc):
            j, status, nev, ni, lyap_status = out
            results.append(Rk4Out(
                times=times[:j].copy(), states=states[:j].copy(),
                status=status, lyap_sum=lyap_sum, n_intervals=ni,
                lyap_status=lyap_status, **_stored_events(ev, nev)))
        return results

    def rk4_trajectories(calls):
        """``rk4_trajectories`` run by the C build, two calls at a time."""
        return [out for i in range(0, len(calls), 2)
                for out in lanes(calls[i:i + 2])]

    def dopri_trajectory(call):
        """``dopri_trajectory`` run by the C build."""
        _c_ints(call)
        if call.stride < 1:
            raise ValueError("stride must be >= 1")
        ev = _event_buffers()
        times_p, states_p = ctypes.c_void_p(), ctypes.c_void_p()
        counts = (i64 * 3)()
        if c_dopri(dopri_struct(*call), *(a.ctypes.data for a in ev),
                   _EV_CAP, ctypes.byref(times_p), ctypes.byref(states_p),
                   counts) != 0:
            raise MemoryError("no memory for the DOPRI5 record")
        j, status, nev = counts
        try:
            times = np.empty(j)
            states = np.empty((j, 3))
            ctypes.memmove(times.ctypes.data, times_p, times.nbytes)
            ctypes.memmove(states.ctypes.data, states_p, states.nbytes)
        finally:
            c_free(times_p)
            c_free(states_p)
        return DopriOut(times=times, states=states, status=status,
                        **_stored_events(ev, nev))

    return {"rk4_trajectories": rk4_trajectories,
            "dopri_trajectory": dopri_trajectory}


def _compile_and_bind(cc, out):
    """Compile _kernels.c to `out` and load it: (kernels, None) or
    (None, reason)."""
    cmd = [cc, *_C_FLAGS, "-o", str(out), str(_C_SOURCE), *_C_LIBS]
    try:
        proc = subprocess.run(cmd, capture_output=True, encoding="utf-8",
                              errors="replace", timeout=_C_BUILD_TIMEOUT_S)
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


_C_KERNELS, C_BUILD_ERROR = _load_c()
BACKEND = "c" if _C_KERNELS else "python"
# a list of Rk4Calls to their Rk4Outs, and a DopriCall to its DopriOut
rk4_trajectories = (_C_KERNELS or PURE_KERNELS)["rk4_trajectories"]
dopri_trajectory = (_C_KERNELS or PURE_KERNELS)["dopri_trajectory"]
