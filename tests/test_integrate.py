import ctypes
import importlib
import math
import re
import shutil
import sys
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memchua as m
from memchua import kernels
from memchua.errors import IntegrationError

from conftest import lc_period
from rk4_oracle import _rk4_trajectory as rk4_oracle

integrate_mod = importlib.import_module("memchua.integrate")


class TestStepRk4:
    def test_rejects_nonpositive_dt(self, designed):
        # a fixed RK4 step of zero or negative length never reaches integrate
        for dt in (0.0, -1e-6):
            with pytest.raises(ValueError, match="dt must be positive"):
                m.integrate(designed.params, (0, 0, 0),
                            m.IntegrationConfig(dt=dt))


class TestLcBenchmark:
    def test_one_period_returns_to_start(self, lc_params):
        T = lc_period(lc_params)
        n = 1000
        cfg = m.IntegrationConfig(dt=T / n, t_end=T, t_transient=0.0,
                                  record_stride=n)
        traj = m.integrate(lc_params, (0.0, 1.0, 0.0), cfg)
        assert traj.states[-1][1] == pytest.approx(1.0, rel=1e-8)

    def test_fourth_order_convergence(self, lc_params):
        T = lc_period(lc_params)
        w = 2.0 * math.pi / T

        def linf_error(n_per_period):
            cfg = m.IntegrationConfig(dt=T / n_per_period, t_end=T,
                                      t_transient=0.0, record_stride=1)
            traj = m.integrate(lc_params, (0.0, 1.0, 0.0), cfg)
            return np.abs(traj.states[:, 1] - np.cos(w * traj.times)).max()

        e1, e2 = linf_error(200), linf_error(400)
        assert 12.0 < e1 / e2 < 20.0

    def test_energy_drift_over_100_periods(self, lc_params):
        T = lc_period(lc_params)
        cfg = m.IntegrationConfig(dt=T / 1000, t_end=100 * T, t_transient=0.0,
                                  record_stride=10)
        traj = m.integrate(lc_params, (0.0, 1.0, 0.0), cfg)
        energy = 0.5 * lc_params.c2 * traj.states[:, 1] ** 2 \
            + 0.5 * lc_params.l * traj.states[:, 2] ** 2
        e0 = 0.5 * lc_params.c2
        assert np.abs(energy - e0).max() / e0 < 1e-6

    def test_no_false_divergence_or_events(self, lc_params):
        T = lc_period(lc_params)
        cfg = m.IntegrationConfig(dt=T / 500, t_end=20 * T, t_transient=0.0)
        traj = m.integrate(lc_params, (0.0, 1.0, 0.0), cfg)
        assert traj.events == ()
        assert traj.status == kernels.STATUS_OK


class TestIntegrate:
    def test_designed_circuit_bounded_without_events(self, designed):
        cfg = m.IntegrationConfig()  # dt=1us, 0.5s, 0.1s transient
        traj = m.integrate(designed.params, (0.1, 0.0, 0.0), cfg)
        assert traj.events == ()
        assert not traj.diverged
        # the attractor stays near +-1.2 V, far from the 2.6 V window top
        assert traj.v1.min() > -1.2
        assert traj.v1.max() < 1.25

    def test_equilibrium_start_stays_put(self, designed):
        eqs = {e.label: e for e in m.find_equilibria(designed.params)}
        cfg = m.IntegrationConfig(t_end=0.02, t_transient=0.0)
        traj = m.integrate(designed.params, eqs["P0"].state, cfg)
        assert np.abs(traj.v1).max() < 1e-9

    def test_p0_start_stays_exactly_at_p0(self, designed):
        eqs = {e.label: e for e in m.find_equilibria(designed.params)}
        p0 = np.asarray(eqs["P0"].state)
        for dt in (1e-7, 1e-6, 1e-4):
            cfg = m.IntegrationConfig(dt=dt, t_end=100 * dt, t_transient=0.0,
                                      record_stride=1)
            traj = m.integrate(designed.params, p0, cfg)
            assert np.all(traj.states == p0)
            assert traj.events == ()

    def test_runaway_emits_soa_and_abort_truncates(self, designed):
        runaway = replace(designed.params, g_n=designed.params.g_n * 10)
        warn_cfg = m.IntegrationConfig(t_end=0.01, t_transient=0.0,
                                       soa_policy="warn")
        warn_traj = m.integrate(runaway, (0.1, 0.0, 0.0), warn_cfg)
        assert any(ev.kind in ("soa_low", "soa_high")
                   for ev in warn_traj.events)

        abort_cfg = replace(warn_cfg, soa_policy="abort")
        abort_traj = m.integrate(runaway, (0.1, 0.0, 0.0), abort_cfg)
        assert abort_traj.aborted_on_soa
        assert len(abort_traj.times) < len(warn_traj.times)
        first = abort_traj.events[0]
        assert first.kind in ("soa_low", "soa_high")
        window = (designed.params.device.v_min, designed.params.device.v_max)
        assert not window[0] <= first.value <= window[1]

    def test_every_soa_event_value_is_outside_window(self, designed):
        runaway = replace(designed.params, g_n=designed.params.g_n * 10)
        cfg = m.IntegrationConfig(t_end=0.02, t_transient=0.0,
                                  soa_policy="warn")
        traj = m.integrate(runaway, (0.1, 0.0, 0.0), cfg)
        d = designed.params.device
        times = [ev.time for ev in traj.events]
        assert times == sorted(times)
        for ev in traj.events:
            if ev.kind == "soa_low":
                assert ev.value < d.v_min
            elif ev.kind == "soa_high":
                assert ev.value > d.v_max

    def test_divergence_flagged_and_truncated(self):
        # bare negative resistance with no confining device quintic
        poly = m.DevicePoly(0, 0, 0, 0, 0, v_min=-10, v_max=10)
        hot = m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=1e-6, g_n=1.46e-4,
                              device=poly)
        cfg = m.IntegrationConfig(t_end=0.05, t_transient=0.0,
                                  soa_policy="warn")
        traj = m.integrate(hot, (0.1, 0.0, 0.0), cfg)
        assert traj.diverged
        assert traj.events[-1].kind == "diverged"

    def test_divergence_bounds_stay_finite(self):
        # an infinite bound would let an infinite state pass the kernels'
        # -bound <= x <= bound test
        poly = m.DevicePoly(0, 0, 0, 0, 0, v_min=-1e306, v_max=1e306)
        params = m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=1e3, g_n=0.0,
                                 device=poly)
        big = sys.float_info.max
        call = integrate_mod.rk4_call(params, (0.0, 0.0, 0.0),
                                      m.IntegrationConfig())
        assert (call.v_div, call.i_div) == (big, big)

    def test_deterministic_bit_identical(self, designed):
        cfg = m.IntegrationConfig(t_end=0.05, t_transient=0.01)
        a = m.integrate(designed.params, (0.1, 0.0, 0.0), cfg)
        b = m.integrate(designed.params, (0.1, 0.0, 0.0), cfg)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_times_strictly_increasing(self, designed):
        cfg = m.IntegrationConfig(t_end=0.03, t_transient=0.005, record_stride=7)
        traj = m.integrate(designed.params, (0.1, 0.0, 0.0), cfg)
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.times) == len(traj.states)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            m.IntegrationConfig(dt=-1e-6)
        with pytest.raises(ValueError):
            m.IntegrationConfig(dt=0.0)
        with pytest.raises(ValueError, match="t_end must be finite"):
            m.IntegrationConfig(t_end=math.inf)
        with pytest.raises(ValueError):
            m.IntegrationConfig(t_transient=1.0, t_end=0.5)
        with pytest.raises(ValueError):
            m.IntegrationConfig(soa_policy="ignore")


class TestAdaptive:
    def test_lc_error_decreases_with_tolerance(self, lc_params):
        T = lc_period(lc_params)
        w = 2.0 * math.pi / T
        errors = []
        for rel_tol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
            cfg = m.IntegrationConfig(t_end=5 * T, t_transient=0.0,
                                      record_stride=1, abs_tol=1e-14,
                                      rel_tol=rel_tol)
            traj = m.integrate_adaptive(lc_params, (0.0, 1.0, 0.0), cfg)
            errors.append(abs(traj.states[-1][1] - math.cos(w * traj.times[-1])))
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_equilibrium_start_takes_few_big_steps(self, designed):
        eqs = {e.label: e for e in m.find_equilibria(designed.params)}
        cfg = m.IntegrationConfig(t_end=0.5, t_transient=0.0, record_stride=1)
        traj = m.integrate_adaptive(designed.params, eqs["P0"].state, cfg)
        assert len(traj.times) <= 200
        assert np.abs(traj.v1).max() < 1e-9

    def test_agrees_with_fine_fixed_step_over_short_horizon(self, designed):
        fixed_cfg = m.IntegrationConfig(dt=1e-7, t_end=5e-3, t_transient=0.0,
                                        record_stride=10)
        fixed = m.integrate(designed.params, (0.1, 0.0, 0.0), fixed_cfg)
        adapt_cfg = m.IntegrationConfig(t_end=5e-3, t_transient=0.0,
                                        record_stride=1, abs_tol=1e-12,
                                        rel_tol=1e-9)
        adapt = m.integrate_adaptive(designed.params, (0.1, 0.0, 0.0),
                                     adapt_cfg)
        resampled = np.interp(fixed.times, adapt.times, adapt.v1)
        assert np.abs(resampled - fixed.v1).max() < 1e-3

    def test_local_error_below_componentwise_tolerance(self, lc_params):
        """Accepted steps on the LC problem keep the true one-step error
        below abs_tol + rel_tol*|state| (checked against the exact flow)."""
        T = lc_period(lc_params)
        w = 2.0 * math.pi / T
        cfg = m.IntegrationConfig(t_end=2 * T, t_transient=0.0,
                                  record_stride=1, abs_tol=1e-10,
                                  rel_tol=1e-8)
        traj = m.integrate_adaptive(lc_params, (0.0, 1.0, 0.0), cfg)
        # exact propagation from each accepted sample to the next
        for k in range(len(traj.times) - 1):
            h = traj.times[k + 1] - traj.times[k]
            v2, il = traj.states[k][1], traj.states[k][2]
            amp_c = v2
            amp_s = il / (lc_params.c2 * w)
            v2_exact = amp_c * math.cos(w * h) + amp_s * math.sin(w * h)
            err = abs(traj.states[k + 1][1] - v2_exact)
            assert err < 5 * (cfg.abs_tol + cfg.rel_tol * abs(v2_exact) + 1e-16)

    def test_step_underflow_reports_stiffness(self, designed):
        # unreachable tolerance forces the controller under the 1e-15 s floor
        cfg = m.IntegrationConfig(t_end=0.5, t_transient=0.0,
                                  abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(IntegrationError, match="underflow"):
            m.integrate_adaptive(designed.params, (0.1, 0.0, 0.0), cfg)

    def test_iteration_cap_reported(self, designed):
        cfg = m.IntegrationConfig(t_end=0.5, t_transient=0.0, max_steps=300)
        with pytest.raises(IntegrationError, match="max_steps"):
            m.integrate_adaptive(designed.params, (0.1, 0.0, 0.0), cfg)


def one_call(rk4_trajectories):
    """An RK4 entry point as a function of one Rk4Call."""
    def run(call):
        (out,) = rk4_trajectories([call])
        return out
    return run


class TestKernelPathParity:
    def test_pure_python_path_matches_selected_path(self, designed):
        p = designed.params
        d = p.device
        call = kernels.Rk4Call(*p.kernel_args, 0.1, 0.0, 0.0, 1e-6, 20000, 0,
                               10, d.v_min, d.v_max, 1e3 * p.voltage_scale,
                               1e3 * p.current_scale, False)
        selected = one_call(kernels.rk4_trajectories)(call)
        pure = one_call(kernels.PURE_KERNELS["rk4_trajectories"])(call)
        assert np.array_equal(selected.times, pure.times)
        assert np.array_equal(selected.states, pure.states)
        assert selected.status == pure.status

    def test_benettin_parity(self, designed):
        # the fused call: recorder and shadow both on
        p = designed.params
        d = p.device
        call = kernels.Rk4Call(*p.kernel_args, 0.1, 0.0, 0.0, 1e-6, 20000,
                               5000, 10, d.v_min, d.v_max,
                               1e3 * p.voltage_scale, 1e3 * p.current_scale,
                               False, True, 764, 5000, 1e-8)
        sel = one_call(kernels.rk4_trajectories)(call)
        pure = one_call(kernels.PURE_KERNELS["rk4_trajectories"])(call)
        assert np.array_equal(sel.times, pure.times)
        assert np.array_equal(sel.states, pure.states)
        assert ((sel.status, sel.lyap_sum, sel.n_intervals, sel.lyap_status,
                 sel.events_dropped)
                == (pure.status, pure.lyap_sum, pure.n_intervals,
                    pure.lyap_status, pure.events_dropped))
        assert pure.n_intervals > 0 and pure.lyap_status == kernels.STATUS_OK


def assert_identical(got, want):
    """Every returned array byte for byte, with its dtype and shape, and
    every scalar equal and of the same type. A NaN matches any NaN at the
    same index: IEEE 754 leaves open which NaN an operation on NaNs gives,
    and the pure kernel itself writes 0xfff8... or 0x7ff8... for the same
    NaN start depending on whether CPython has specialized its closure."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape
            if b.dtype.kind == "f":
                nan = np.isnan(b)
                assert np.array_equal(np.isnan(a), nan)
                a, b = a[~nan], b[~nan]
            assert a.tobytes() == b.tobytes()
        else:
            assert type(a) is type(b) and a == b


@pytest.fixture(scope="module")
def c_kernels():
    """The C build of the kernels, whichever backend this process selected."""
    if shutil.which(kernels._compiler()) is None:
        pytest.skip("no C compiler on PATH")
    found, reason = kernels._load_c()
    assert found is not None, reason
    return found


# v1 == v2 and iL == -0.0: the one kind of start at which the field's
# coupling-current form, (iL - (v2 - v1) * g) / c2, and the algebraically
# equal ((v1 - v2) * g + iL) / c2 differ, in the sign of a zero
SIGNED_ZERO_STARTS = [(0.0, 0.0, -0.0), (0.25, 0.25, -0.0)]


class TestRk4Oracle:
    """The pure RK4 kernel, whose step is one closure shared by the
    reference and the shadow, against the earlier eight-call kernel kept
    in tests/rk4_oracle.py: every returned array byte for byte and every
    scalar equal."""

    N_STEPS = 1200
    # random designs, starts, step sizes, recorder and shadow settings
    CASES = st.fixed_dictionaries(dict(
        seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.0, 0.5),
        v1=st.floats(-3.0, 3.0), v2=st.floats(-0.5, 0.5),
        il=st.floats(-1e-3, 1e-3), dt=st.sampled_from([1e-6, 5e-6]),
        rec_start=st.integers(0, N_STEPS + 1), stride=st.integers(1, 40),
        abort=st.booleans(), shadow=st.booleans(),
        gn_scale=st.sampled_from([1.0, 10.0, 1e3])))

    @pytest.fixture(scope="class")
    def pair(self):
        """(kernel under test, reference kernel), each a function of one
        Rk4Call"""
        return (one_call(kernels.PURE_KERNELS["rk4_trajectories"]),
                lambda call: rk4_oracle(*call))

    def run_both(self, pair, params, init, dt, rec_start, stride, abort,
                 shadow, d0=1e-8, n_steps=N_STEPS):
        d = params.device
        call = kernels.Rk4Call(*params.kernel_args, *init, dt, n_steps,
                               rec_start, stride, d.v_min, d.v_max,
                               1e3 * params.voltage_scale,
                               1e3 * params.current_scale, abort, shadow, 50,
                               n_steps // 4, d0)
        got = pair[0](call)
        assert type(got) is kernels.Rk4Out
        assert_identical(got, pair[1](call))
        return got

    def run_case(self, pair, designed, seed, sigma, v1, v2, il, dt,
                 rec_start, stride, abort, shadow, gn_scale):
        p = designed.params
        params = replace(p, device=m.perturb(p.device, sigma, seed),
                         g_n=p.g_n * gn_scale)
        self.run_both(pair, params, (v1, v2, il), dt, rec_start, stride,
                      abort, shadow)

    @settings(max_examples=60, deadline=None)
    @given(case=CASES)
    def test_matches_eight_call_kernel(self, pair, designed, case):
        self.run_case(pair, designed, **case)

    @pytest.mark.parametrize("abort", [False, True])
    def test_forced_divergence(self, pair, designed, abort):
        p = designed.params
        # a start far outside the window, and a negative conductance that
        # outgrows the device quintic
        far = self.run_both(pair, p, (2000.0, 0.0, 0.0), 1e-6, 0, 1, abort,
                            True)
        hot = self.run_both(pair, replace(p, g_n=p.g_n * 1e3),
                            (0.1, 0.0, 0.0), 1e-6, 0, 1, abort, True)
        # under abort the record stops at the start; the shadow runs on
        assert far.status == (kernels.STATUS_SOA_ABORT if abort
                              else kernels.STATUS_DIVERGED)
        assert far.lyap_status == kernels.STATUS_DIVERGED
        assert hot.lyap_status == kernels.STATUS_DIVERGED

    def test_nan_starts(self, pair, designed):
        p = designed.params
        # a NaN shadow offset fails the shadow alone at its first
        # renormalization
        out = self.run_both(pair, p, (0.1, 0.0, 0.0), 1e-6, 0, 7, False,
                            True, d0=math.nan)
        assert out.status == kernels.STATUS_OK
        assert out.lyap_status == kernels.STATUS_SHADOW_FAIL
        # a NaN reference start is recorded, then diverges at the first step
        for start in ((math.nan, 0.0, 0.0), (0.0, math.nan, 0.0),
                      (0.0, 0.0, math.nan)):
            out = self.run_both(pair, p, start, 1e-6, 0, 1, False, True)
            assert out.status == kernels.STATUS_DIVERGED
            assert len(out.times) == 1 and math.isnan(out.ev_v[-1])


class TestRk4CParity:
    """TestRk4Oracle's cases with the C build under test and the pure
    kernel as the reference."""

    @pytest.fixture(scope="class")
    def pair(self, c_kernels):
        return (one_call(c_kernels["rk4_trajectories"]),
                one_call(kernels.PURE_KERNELS["rk4_trajectories"]))

    run_both = TestRk4Oracle.run_both
    run_case = TestRk4Oracle.run_case
    test_forced_divergence = TestRk4Oracle.test_forced_divergence
    test_nan_starts = TestRk4Oracle.test_nan_starts

    # its own function: hypothesis keys its example database by function
    @settings(max_examples=60, deadline=None)
    @given(case=TestRk4Oracle.CASES)
    def test_matches_pure_kernel(self, pair, designed, case):
        self.run_case(pair, designed, **case)

    @pytest.mark.parametrize("start", SIGNED_ZERO_STARTS)
    @pytest.mark.parametrize("shadow", [False, True])
    def test_signed_zero_starts(self, pair, designed, start, shadow):
        self.run_both(pair, designed.params, start, 1e-6, 0, 1, False,
                      shadow)


class CountLanes:
    """memchua_rk4_trajectory, recording the lane count of each call."""

    def __init__(self, fn):
        self.__dict__.update(fn=fn, lanes=[])

    def __setattr__(self, name, value):  # argtypes and restype
        setattr(self.fn, name, value)

    def __call__(self, lanes, *args):
        self.lanes.append(lanes)
        return self.fn(lanes, *args)


@pytest.fixture(scope="module")
def lane_kernels(c_kernels, tmp_path_factory):
    """(CountLanes, the C kernels bound to a library whose RK4 kernel it
    counts)"""
    path = tmp_path_factory.mktemp("lanes") / "_kernels.so"
    found, reason = kernels._compile_and_bind(kernels._compiler(), path)
    assert found is not None, reason
    lib = ctypes.CDLL(str(path))
    counter = CountLanes(lib.memchua_rk4_trajectory)
    return counter, kernels._bind(SimpleNamespace(
        memchua_rk4_trajectory=counter,
        memchua_dopri_trajectory=lib.memchua_dopri_trajectory,
        memchua_free=lib.memchua_free))


class TestRk4Lanes:
    """kernels.rk4_trajectories on the C build, whose lanes step two runs
    at once, against a separate call of the pure kernel for each run: every
    returned array byte for byte and every scalar equal."""

    @staticmethod
    def call(params, init=(0.1, 0.0, 0.0), dt=1e-6, n_steps=3000,
             rec_start=500, stride=3, abort=False, shadow=True,
             renorm_every=50, transient_steps=750, d0=1e-8):
        d = params.device
        return kernels.Rk4Call(*params.kernel_args, *init, dt, n_steps,
                               rec_start, stride, d.v_min, d.v_max,
                               1e3 * params.voltage_scale,
                               1e3 * params.current_scale, abort, shadow,
                               renorm_every, transient_steps, d0)

    @staticmethod
    def run(lane_kernels, calls, lanes):
        """The C results of `calls`, which must take C calls of `lanes`
        lanes each."""
        counter, c_kernels = lane_kernels
        counter.lanes.clear()
        got = c_kernels["rk4_trajectories"](calls)
        assert counter.lanes == lanes
        assert len(got) == len(calls)
        for out, call in zip(got, calls):
            assert type(out) is kernels.Rk4Out
            assert_identical(out, kernels._rk4_trajectory(*call))
        return got

    def test_one_lane_diverges(self, lane_kernels, designed):
        p = designed.params
        hot = replace(p, g_n=p.g_n * 1e3)
        for calls in ([self.call(p), self.call(hot)],
                      [self.call(hot), self.call(p)]):
            got = self.run(lane_kernels, calls, [2])
            assert sorted(out.status for out in got) == [
                kernels.STATUS_OK, kernels.STATUS_DIVERGED]

    @pytest.mark.parametrize("shadow", [False, True])
    def test_one_lane_aborts(self, lane_kernels, designed, shadow):
        p = designed.params
        d = p.device
        narrow = replace(p, device=m.DevicePoly(
            d.p1, d.p2, d.p3, d.p4, d.p5, v_min=-0.5, v_max=0.5))
        got = self.run(lane_kernels, [
            self.call(narrow, abort=True, shadow=shadow),
            self.call(p, abort=True, shadow=shadow)], [2])
        assert got[0].status == kernels.STATUS_SOA_ABORT
        assert got[1].status == kernels.STATUS_OK
        assert len(got[0].times) < len(got[1].times)
        assert (got[0].n_intervals > 0) == shadow

    @pytest.mark.parametrize("rec_start", [500, 3001], ids=["record",
                                                           "no-record"])
    def test_one_shadow_collapses(self, lane_kernels, designed, rec_start):
        # v1 + 1e-300 == v1: the shadow of the first lane starts on its
        # reference; the second lane never renormalizes
        p = designed.params
        got = self.run(lane_kernels, [
            self.call(p, rec_start=rec_start, d0=1e-300),
            self.call(p, init=(0.2, 0.0, 0.0), rec_start=rec_start,
                      renorm_every=3001, d0=1e-300)], [2])
        assert got[0].lyap_status == kernels.STATUS_SHADOW_FAIL
        assert (got[1].lyap_status == kernels.STATUS_OK
                and got[1].n_intervals == 0)

    def test_lanes_renormalize_apart(self, lane_kernels, designed):
        p = designed.params
        got = self.run(lane_kernels, [self.call(p, renorm_every=50),
                                   self.call(p, renorm_every=77)], [2])
        assert got[0].n_intervals != got[1].n_intervals
        assert got[0].times.tobytes() == got[1].times.tobytes()

    def test_batches_of_one_and_three(self, lane_kernels, designed):
        p = designed.params
        calls = [self.call(replace(p, device=m.perturb(p.device, 0.1, seed)))
                 for seed in range(3)]
        self.run(lane_kernels, calls[:1], [1])
        self.run(lane_kernels, calls, [2, 1])
        self.run(lane_kernels, [], [])

    @pytest.mark.parametrize("own", [
        dict(dt=2e-6), dict(dt=-0.0), dict(n_steps=1200), dict(rec_start=499),
        dict(stride=4), dict(abort=True), dict(shadow=False),
        dict(transient_steps=0), dict(d0=2e-8), dict(d0=-0.0)],
        ids=["dt", "dt-negative-zero", "n_steps", "rec_start", "stride",
             "abort", "shadow", "transient_steps", "d0", "d0-negative-zero"])
    def test_lanes_take_their_own_arguments(self, lane_kernels, designed,
                                            own):
        # two calls that differ in one argument share a C call, in either
        # order; with n_steps=1200 one lane stops while the other runs on
        a, b = self.call(designed.params), self.call(designed.params, **own)
        self.run(lane_kernels, [a, b], [2])
        self.run(lane_kernels, [b, a], [2])

    def test_python_fallback_runs_each_call(self, designed):
        # the Python entry point makes one kernel call per Rk4Call; a call
        # that leaves the shadow settings out takes the kernel's defaults
        pure = kernels.PURE_KERNELS["rk4_trajectories"]
        p = designed.params
        full = self.call(p, renorm_every=77)
        required = {name: getattr(full, name)
                    for name in kernels.Rk4Call._fields
                    if name not in kernels.Rk4Call._field_defaults}
        calls = [self.call(p), kernels.Rk4Call(**required)]
        got = pure(calls)
        assert len(got) == 2
        assert_identical(got[0], kernels._rk4_trajectory(*calls[0]))
        assert_identical(got[1], kernels._rk4_trajectory(**required))


def log_uniform(lo, hi):
    """Floats from lo to hi, uniform in their logarithm."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# DOPRI5 starts: three in four in or out of the window (-1.2 to 2.6 V on
# the reference design), the rest past its divergence bounds (2.6 kV and
# 0.34 A) or not finite
_FAR = st.one_of(st.floats(-1e4, 1e4),
                 st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
DOPRI_STARTS = st.integers(0, 3).flatmap(lambda k: st.tuples(
    st.floats(-3.0, 3.0), st.floats(-0.5, 0.5), st.floats(-1e-3, 1e-3))
    if k else st.tuples(_FAR, _FAR, _FAR))


class TestDopriCParity:
    """The C build of the DOPRI5 kernel against the pure one: every
    returned array byte for byte and every scalar equal, on each exit."""

    @staticmethod
    def run_both(c_kernels, params, init=(0.1, 0.0, 0.0), t_end=0.02,
                 t_transient=0.0, stride=1, tol=(1e-9, 1e-7), abort=False,
                 max_steps=20_000_000, div_factor=1e3):
        d = params.device
        call = kernels.DopriCall(
            *params.kernel_args, *init, t_end, t_transient, stride, *tol,
            min(t_end / 50.0, t_end * 1e-4), t_end / 50.0, d.v_min, d.v_max,
            div_factor * params.voltage_scale,
            div_factor * params.current_scale, abort, max_steps)
        got = c_kernels["dopri_trajectory"](call)
        assert type(got) is kernels.DopriOut
        assert_identical(got, kernels.PURE_KERNELS["dopri_trajectory"](call))
        return got

    @staticmethod
    def windowed(params, half_width):
        d = params.device
        return replace(params, device=m.DevicePoly(
            d.p1, d.p2, d.p3, d.p4, d.p5, v_min=-half_width,
            v_max=half_width))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.0, 0.5),
           v1=st.floats(-3.0, 3.0), v2=st.floats(-0.5, 0.5),
           il=st.floats(-1e-3, 1e-3), t_transient=st.floats(0.0, 0.004),
           stride=st.integers(1, 7), abort=st.booleans(),
           rel_tol=st.sampled_from([1e-5, 1e-7]),
           gn_scale=st.sampled_from([1.0, 10.0, 1e3]))
    def test_random_runs(self, c_kernels, designed, seed, sigma, v1, v2, il,
                         t_transient, stride, abort, rel_tol, gn_scale):
        p = designed.params
        params = replace(p, device=m.perturb(p.device, sigma, seed),
                         g_n=p.g_n * gn_scale)
        self.run_both(c_kernels, params, (v1, v2, il), 0.005, t_transient,
                      stride, (1e-9, rel_tol), abort)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.0, 0.5),
           init=DOPRI_STARTS, t_end=log_uniform(1e-6, 5e-3),
           transient=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           stride=st.integers(1, 10),
           abs_tol=log_uniform(1e-12, 1e-4),
           rel_tol=log_uniform(1e-10, 1e-2), abort=st.booleans(),
           max_steps=st.one_of(st.just(20_000_000), st.integers(1, 300)),
           half_width=st.one_of(st.none(), st.floats(0.01, 1.0)),
           ev_cap=st.sampled_from([1, 2, 4096]))
    def test_any_run(self, c_kernels, designed, seed, sigma, init, t_end,
                     transient, stride, abs_tol, rel_tol, abort, max_steps,
                     half_width, ev_cap):
        """Both builds agree on times, states, events, status and dropped
        events for any start, tolerances, stride, horizon, window, event
        cap and window policy."""
        p = designed.params
        params = replace(p, device=m.perturb(p.device, sigma, seed))
        if half_width is not None:
            params = self.windowed(params, half_width)
        with mock.patch.object(kernels, "_EV_CAP", ev_cap):
            self.run_both(c_kernels, params, init, t_end, transient * t_end,
                          stride, (abs_tol, rel_tol), abort, max_steps)

    @pytest.mark.parametrize("init", SIGNED_ZERO_STARTS)
    def test_signed_zero_starts(self, c_kernels, designed, init):
        self.run_both(c_kernels, designed.params, init=init)

    def test_record_grows_past_first_buffer(self, c_kernels, designed):
        out = self.run_both(c_kernels, designed.params, t_end=0.06)
        assert len(out.times) > 1024 and out.status == kernels.STATUS_OK

    def test_abort_at_window_crossing(self, c_kernels, designed):
        out = self.run_both(c_kernels, self.windowed(designed.params, 0.5),
                            abort=True)
        assert out.status == kernels.STATUS_SOA_ABORT and len(out.ev_t) == 1

    def test_divergence(self, c_kernels, designed):
        # a device whose current pushes v1 outward blows up in finite time;
        # a 100x ceiling catches it before the step size underflows
        p = designed.params
        d = p.device
        outward = replace(p, device=m.DevicePoly(
            -d.p1, -d.p2, -d.p3, -d.p4, -d.p5, v_min=d.v_min, v_max=d.v_max))
        out = self.run_both(c_kernels, outward, div_factor=100.0)
        assert out.status == kernels.STATUS_DIVERGED
        assert out.ev_k[-1] == kernels.KIND_DIVERGED

    def test_step_underflow(self, c_kernels, designed):
        out = self.run_both(c_kernels, designed.params, tol=(1e-300, 1e-300))
        assert out.status == kernels.STATUS_STEP_UNDERFLOW

    def test_step_limit(self, c_kernels, designed):
        out = self.run_both(c_kernels, designed.params, max_steps=300)
        assert out.status == kernels.STATUS_STEP_LIMIT

    @pytest.mark.parametrize("init, abort, status, kinds", [
        ((3000.0, 0.0, 0.0), False, kernels.STATUS_DIVERGED,
         [kernels.KIND_SOA_HIGH, kernels.KIND_DIVERGED]),
        ((3000.0, 0.0, 0.0), True, kernels.STATUS_SOA_ABORT,
         [kernels.KIND_SOA_HIGH]),
        ((0.1, 0.0, 1e3), False, kernels.STATUS_DIVERGED,
         [kernels.KIND_DIVERGED]),
        ((0.1, math.nan, 0.0), False, kernels.STATUS_DIVERGED,
         [kernels.KIND_DIVERGED]),
    ], ids=["v1-warn", "v1-abort", "il", "nan"])
    def test_start_past_divergence_bounds(self, c_kernels, designed, init,
                                          abort, status, kinds):
        # 3 kV and 1 kA are past the design's 1000x ceilings: the start
        # diverges at t=0, unrecorded, unless its window check aborted
        out = self.run_both(c_kernels, designed.params, init=init,
                            abort=abort)
        assert out.status == status and len(out.times) == 0
        assert list(out.ev_k) == kinds and not out.ev_t.any()

    def test_events_past_cap(self, c_kernels, designed, monkeypatch):
        # a +-50 mV window that the double scroll crosses on every swing
        params = self.windowed(designed.params, 0.05)
        monkeypatch.setattr(kernels, "_EV_CAP", 3)
        out = self.run_both(c_kernels, params)
        assert len(out.ev_t) == 3 and out.events_dropped > 0
        d = params.device
        call = kernels.Rk4Call(*params.kernel_args, 0.1, 0.0, 0.0, 1e-6,
                               20000, 0, 10, d.v_min, d.v_max,
                               1e3 * params.voltage_scale,
                               1e3 * params.current_scale, False)
        got = one_call(c_kernels["rk4_trajectories"])(call)
        assert_identical(
            got, one_call(kernels.PURE_KERNELS["rk4_trajectories"])(call))
        assert len(got.ev_t) == 3 and got.events_dropped > 0


def c_struct_members(name):
    """[(member, C type)] of the struct `name` in _kernels.c, in order."""
    source = re.sub(r"/\*.*?\*/", "", kernels._C_SOURCE.read_text(),
                    flags=re.S)
    body = re.search(r"typedef struct\s*\{([^}]*)\}\s*" + name + ";",
                     source).group(1)
    members = []
    for decl in filter(str.strip, body.split(";")):
        c_type, names = decl.split(None, 1)
        members += [(n.strip(), c_type) for n in names.split(",")]
    return members


class TestKernelNames:
    """The C struct Rk4Call against kernels.Rk4Call: its rows of double
    and of int64_t members, and every field declared once, in order."""

    @pytest.mark.parametrize("c_type, is_int", [
        ("double", False), ("int64_t", True)], ids=["reals", "ints"])
    def test_rows_match_enums(self, c_type, is_int):
        declared = [n for n, t in c_struct_members("Rk4Call") if t == c_type]
        assert declared == [n for n in kernels.Rk4Call._fields
                            if (n in kernels._C_INTS) == is_int]

    def test_every_rk4_field_in_one_row(self):
        members = c_struct_members("Rk4Call")
        assert [n for n, _ in members] == list(kernels.Rk4Call._fields)
        assert {t for _, t in members} <= {"double", "int64_t"}


class TestKernelCalls:
    """How a named kernel call reaches the C build: the C struct DopriCall
    against kernels.DopriCall and _C_INTS, and the int64 check that ctypes
    does not make."""

    @pytest.mark.parametrize("call_type", [kernels.DopriCall],
                             ids=["dopri"])
    def test_struct_matches_call(self, call_type):
        assert c_struct_members(call_type.__name__) == [
            (name, "int64_t" if name in kernels._C_INTS else "double")
            for name in call_type._fields]

    @staticmethod
    def calls(params):
        """An Rk4Call and a DopriCall that the C build runs as they are."""
        d = params.device
        ceilings = (d.v_min, d.v_max, 1e3 * params.voltage_scale,
                    1e3 * params.current_scale)
        return {
            kernels.Rk4Call: kernels.Rk4Call(
                *params.kernel_args, 0.1, 0.0, 0.0, 1e-6, 100, 0, 1,
                *ceilings, False),
            kernels.DopriCall: kernels.DopriCall(
                *params.kernel_args, 0.1, 0.0, 0.0, 1e-4, 0.0, 1, 1e-9,
                1e-7, 1e-8, 2e-6, *ceilings, False, 1000)}

    @pytest.mark.parametrize("call_type, field", [
        (t, name) for t in (kernels.Rk4Call, kernels.DopriCall)
        for name in t._fields if name in kernels._C_INTS])
    def test_int64_overflow_raises_before_the_kernel(self, designed,
                                                     call_type, field):
        lib = SimpleNamespace(memchua_rk4_trajectory=mock.Mock(),
                              memchua_dopri_trajectory=mock.Mock(),
                              memchua_free=mock.Mock())
        bound = kernels._bind(lib)
        call = self.calls(designed.params)[call_type]._replace(
            **{field: 2**63})
        with pytest.raises(OverflowError, match=field):
            if call_type is kernels.Rk4Call:
                bound["rk4_trajectories"]([call])
            else:
                bound["dopri_trajectory"](call)
        assert not lib.memchua_rk4_trajectory.called
        assert not lib.memchua_dopri_trajectory.called


class TestCsvExport:
    def test_trajectory_and_events_files(self, designed, tmp_path):
        runaway = replace(designed.params, g_n=designed.params.g_n * 10)
        cfg = m.IntegrationConfig(t_end=0.005, t_transient=0.0,
                                  soa_policy="warn")
        traj = m.integrate(runaway, (0.1, 0.0, 0.0), cfg)
        tpath = tmp_path / "traj.csv"
        epath = tmp_path / "events.csv"
        m.write_trajectory_csv(tpath, traj)
        m.write_events_csv(epath, traj)
        lines = tpath.read_text().splitlines()
        assert lines[0] == "t_s,v1_V,v2_V,iL_A"
        assert len(lines) == len(traj.times) + 1
        elines = epath.read_text().splitlines()
        assert elines[0] == "t_s,kind,value"
        assert len(elines) == len(traj.events) + 1


class TestSampleCap:
    def test_oversized_record_raises_before_allocating(self, designed,
                                                       monkeypatch):
        def never(*args):
            raise AssertionError("kernel reached past the sample cap")

        monkeypatch.setattr(kernels, "rk4_trajectories", never)
        cfg = m.IntegrationConfig(t_end=1000.0, record_stride=1)
        cap = str(integrate_mod.MAX_RECORDED_ROWS)
        with pytest.raises(IntegrationError, match="999900001") as info:
            m.integrate(designed.params, (0.1, 0.0, 0.0), cfg)
        assert cap in str(info.value)
        with pytest.raises(IntegrationError, match="999900001"):
            m.trajectory_and_lyapunov(designed.params, (0.1, 0.0, 0.0), cfg)

    def test_cap_is_inclusive(self, designed, monkeypatch):
        cfg = m.IntegrationConfig(t_end=1e-3, t_transient=0.0,
                                  record_stride=1)
        monkeypatch.setattr(integrate_mod, "MAX_RECORDED_ROWS", 1001)
        assert len(m.integrate(designed.params, (0.1, 0.0, 0.0),
                               cfg).times) == 1001
        monkeypatch.setattr(integrate_mod, "MAX_RECORDED_ROWS", 1000)
        with pytest.raises(IntegrationError, match="1001 samples"):
            m.integrate(designed.params, (0.1, 0.0, 0.0), cfg)


class TestStepCap:
    """A fixed-step run of more than max_steps steps is refused before the
    kernel runs, with the recorder on or off."""

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        def never(calls):
            raise AssertionError("kernel ran past the step cap")

        monkeypatch.setattr(kernels, "rk4_trajectories", never)

    @pytest.mark.parametrize("run", [m.integrate, m.largest_lyapunov,
                                     m.trajectory_and_lyapunov],
                             ids=["record", "shadow", "both"])
    def test_cap_is_inclusive(self, designed, monkeypatch, run):
        cfg = m.IntegrationConfig(t_end=1e-3, t_transient=0.0,
                                  record_stride=100, max_steps=1000)
        run(designed.params, (0.1, 0.0, 0.0), cfg)
        with pytest.raises(IntegrationError,
                           match=r"1000 RK4 steps, above the cap of 999 "):
            run(designed.params, (0.1, 0.0, 0.0), replace(cfg, max_steps=999))

    @pytest.mark.parametrize("dt, steps, runs", [
        (1e-20, "2000000000000000256", (m.integrate, m.largest_lyapunov)),
        (1e-30, "19999999999999999166", (m.largest_lyapunov,)),
        (1e-320, "inf", (m.integrate, m.largest_lyapunov))],
        ids=["1e-20", "1e-30", "1e-320"])
    def test_huge_counts_refused(self, designed, no_kernel, dt, steps, runs):
        # past int64 (1e-30), and past any float: t_end / dt overflows
        # (1e-320); a recorded 1e-30 run meets the row cap first
        cfg = m.IntegrationConfig(dt=dt, t_end=0.02, t_transient=0.0,
                                  record_stride=10**18)
        for run in runs:
            with pytest.raises(IntegrationError,
                               match=f"would take {steps}"):
                run(designed.params, (0.1, 0.0, 0.0), cfg)


class TestDroppedEvents:
    def test_events_past_cap_are_counted(self, designed, monkeypatch):
        # a +-50 mV window that the double scroll crosses on every swing
        d = designed.params.device
        params = replace(designed.params, device=m.DevicePoly(
            d.p1, d.p2, d.p3, d.p4, d.p5, v_min=-0.05, v_max=0.05))
        cfg = m.IntegrationConfig(t_end=0.02, t_transient=0.0)
        full = m.integrate(params, (0.1, 0.0, 0.0), cfg)
        assert len(full.events) > 3 and full.events_dropped == 0

        monkeypatch.setattr(kernels, "rk4_trajectories",
                            kernels.PURE_KERNELS["rk4_trajectories"])
        monkeypatch.setattr(kernels, "_EV_CAP", 3)
        capped = m.integrate(params, (0.1, 0.0, 0.0), cfg)
        assert capped.events == full.events[:3]
        assert capped.events_dropped == len(full.events) - 3
        assert np.array_equal(capped.states, full.states)
