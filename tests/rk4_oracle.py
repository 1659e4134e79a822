"""Reference copy of the fixed-step RK4 kernel as it stood before its step
was written once as a closure shared by the reference and the shadow
trajectory: eight calls of the field closure ``f`` per step, with the
shadow's RK4 block spelled out a second time. The tests compare
``kernels.PURE_KERNELS["rk4_trajectories"]`` with it bit for bit. Do not
edit the function body; it is the oracle.
"""

import math

import numpy as np

from memchua.kernels import (KIND_DIVERGED, KIND_SOA_HIGH, KIND_SOA_LOW,
                             STATUS_DIVERGED, STATUS_OK, STATUS_SHADOW_FAIL,
                             STATUS_SOA_ABORT, _EV_CAP)


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
    recorder stopped. Divergence of the reference (any state magnitude
    beyond its v_div/i_div ceiling) stops both.

    Returns (times, states, ev_t, ev_k, ev_v, status, lyap_sum,
    n_intervals, lyap_status, events_dropped); events past _EV_CAP are
    counted, not stored.
    """

    def f(a, b, c):
        ir = a * (p1 + a * (p2 + a * (p3 + a * (p4 + a * p5)))) - gn * a
        return ((b - a) * g - ir) / c1, ((a - b) * g + c) / c2, -b / l

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
        k1a, k1b, k1c = f(v1, v2, il)
        x = v1 + 0.5 * dt * k1a
        y = v2 + 0.5 * dt * k1b
        z = il + 0.5 * dt * k1c
        k2a, k2b, k2c = f(x, y, z)
        x = v1 + 0.5 * dt * k2a
        y = v2 + 0.5 * dt * k2b
        z = il + 0.5 * dt * k2c
        k3a, k3b, k3c = f(x, y, z)
        x = v1 + dt * k3a
        y = v2 + dt * k3b
        z = il + dt * k3c
        k4a, k4b, k4c = f(x, y, z)
        v1 = v1 + dt * (k1a + 2.0 * (k2a + k3a) + k4a) / 6.0
        v2 = v2 + dt * (k1b + 2.0 * (k2b + k3b) + k4b) / 6.0
        il = il + dt * (k1c + 2.0 * (k2c + k3c) + k4c) / 6.0

        if shadow:
            k1a, k1b, k1c = f(w1, w2, wl)
            x = w1 + 0.5 * dt * k1a
            y = w2 + 0.5 * dt * k1b
            z = wl + 0.5 * dt * k1c
            k2a, k2b, k2c = f(x, y, z)
            x = w1 + 0.5 * dt * k2a
            y = w2 + 0.5 * dt * k2b
            z = wl + 0.5 * dt * k2c
            k3a, k3b, k3c = f(x, y, z)
            x = w1 + dt * k3a
            y = w2 + dt * k3b
            z = wl + dt * k3c
            k4a, k4b, k4c = f(x, y, z)
            w1 = w1 + dt * (k1a + 2.0 * (k2a + k3a) + k4a) / 6.0
            w2 = w2 + dt * (k1b + 2.0 * (k2b + k3b) + k4b) / 6.0
            wl = wl + dt * (k1c + 2.0 * (k2c + k3c) + k4c) / 6.0

        if (not (math.isfinite(v1) and math.isfinite(v2) and math.isfinite(il))
                or abs(v1) > v_div or abs(v2) > v_div or abs(il) > i_div):
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
