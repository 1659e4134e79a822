import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memchua as m
from memchua import analysis, kernels
from memchua.errors import LyapunovError
from memchua.integrate import rk4_call

import extrema_oracle as _extrema_oracle


def extrema_oracle(t, x):
    """tests/extrema_oracle.py's extrema as local_extrema's three arrays,
    under the errstate that local_extrema runs in: a degenerate parabola
    may overflow or divide 0 by 0 in its vertex, which is then rejected."""
    with np.errstate(all="ignore"):
        ex = _extrema_oracle.local_extrema(t, x)
    return (np.array([e.time for e in ex], dtype=float),
            np.array([e.value for e in ex], dtype=float),
            np.array([e.kind == "max" for e in ex], dtype=bool))


@pytest.fixture(scope="module")
def designed_run(designed):
    cfg = m.IntegrationConfig()
    traj = m.integrate(designed.params, (0.1, 0.0, 0.0), cfg)
    lam = m.largest_lyapunov(designed.params, (0.1, 0.0, 0.0), cfg)
    eqs = m.find_equilibria(designed.params)
    return traj, lam, eqs


def synthetic_orbit(designed, amplitude=0.05, periods=3.25, n=2048):
    """Harmonic oscillation around the positive equilibrium, injected as a
    trajectory (final sample at peak phase so it cannot read as a fixed
    point)."""
    g = designed.params.g
    f = 1300.0
    t = np.linspace(0.0, periods / f, n)
    v1 = 0.9 + amplitude * np.sin(2 * np.pi * f * t)
    states = np.column_stack([v1, np.zeros(n), np.full(n, -g * 0.9)])
    return m.Trajectory(times=t, states=states, events=(), status=0)


class TestLocalExtrema:
    def test_sampled_sine(self):
        t = np.linspace(0.0, 3.0, 1000)
        x = np.sin(2 * np.pi * t)
        _, values, is_max = m.local_extrema(t, x)
        assert is_max.sum() == 3 and (~is_max).sum() == 3
        assert (np.abs(values[is_max] - 1.0) < 1e-4).all()
        assert (np.abs(values[~is_max] + 1.0) < 1e-4).all()

    def test_kinds_alternate(self):
        t = np.linspace(0.0, 3.0, 1000)
        is_max = m.local_extrema(t, np.sin(2 * np.pi * t))[2]
        assert (is_max[1:] != is_max[:-1]).all()

    def test_refinement_error_scales_at_least_quadratically(self):
        def err(n):
            t = np.linspace(0.0, 3.0, n)
            values = m.local_extrema(t, np.sin(2 * np.pi * t))[1]
            return np.abs(np.abs(values) - 1.0).max()

        assert err(500) / err(1000) > 3.0

    def test_constant_signal(self):
        t = np.linspace(0, 1, 100)
        assert [a.size for a in m.local_extrema(t, np.ones(100))] == [0, 0, 0]

    def test_plateau_resolved_to_midpoint(self):
        t = np.arange(7.0)
        x = np.array([0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0])
        times, values, is_max = m.local_extrema(t, x)
        assert (times.tolist(), values.tolist(), is_max.tolist()) == (
            [3.0], [2.0], [True])

    def test_designed_circuit_has_extrema_of_both_signs(self, designed_run):
        traj, _, _ = designed_run
        values = m.local_extrema(traj.times, traj.v1)[1]
        assert (values > 0.2).any() and (values < -0.2).any()

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            m.local_extrema([0.0, 1.0], [0.0, 1.0])


def as_bytes(extrema):
    """The bytes of local_extrema's (times, values, is-max) arrays."""
    times, values, is_max = extrema
    assert (times.dtype, values.dtype, is_max.dtype) == (
        np.float64, np.float64, np.bool_)
    return times.tobytes(), values.tobytes(), is_max.tobytes()


@st.composite
def plateau_signals(draw, values):
    """(times, samples): runs of 1 to 4 equal samples, at strictly
    increasing times or at arbitrary finite ones."""
    runs = draw(st.lists(st.tuples(values, st.integers(1, 4)), min_size=1,
                         max_size=40))
    x = [v for v, n in runs for _ in range(n)]
    if len(x) < 3:
        x += [x[-1]] * (3 - len(x))
    if draw(st.booleans()):
        steps = draw(st.lists(st.floats(1e-6, 10.0), min_size=len(x),
                              max_size=len(x)))
        t = np.cumsum(steps)
    else:
        t = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(x),
                          max_size=len(x)))
    return t, x


class TestLocalExtremaOracle:
    """local_extrema against the per-sample loop kept in
    tests/extrema_oracle.py: the same extrema, times and values byte for
    byte."""

    @settings(max_examples=300, deadline=None)
    @given(signal=plateau_signals(st.floats(-1e3, 1e3, allow_nan=False)))
    def test_random_plateaus(self, signal):
        t, x = signal
        assert as_bytes(m.local_extrema(t, x)) == as_bytes(
            extrema_oracle(t, x))

    @settings(max_examples=300, deadline=None)
    @given(signal=plateau_signals(st.integers(-3, 3)))
    def test_integer_samples(self, signal):
        t, x = signal
        assert as_bytes(m.local_extrema(t, x)) == as_bytes(
            extrema_oracle(t, x))

    @pytest.mark.parametrize("x", [[1, 1, 1], [1, 1, 2, 2], [0, 5, 5, 5],
                                   [2, 1, 1, 2]],
                             ids=["one-run", "two-runs", "two-runs-long",
                                  "three-runs"])
    def test_short_compressed_runs(self, x):
        t = np.arange(float(len(x)))
        assert as_bytes(m.local_extrema(t, x)) == as_bytes(
            extrema_oracle(t, x))

    def test_non_finite_samples(self):
        # NaN and infinite samples and times, and repeated times; the first
        # maximum's parabola has h1 = nan and h3 = 0
        t = [math.nan, 1.0, 1.0, 2.0, math.inf, 3.0, 4.0, 5.0, 5.0, 6.0]
        x = [0.0, 2.0, 1.0, math.nan, 3.0, -math.inf, 1.0, 4.0, 0.0, 1.0]
        with np.errstate(all="ignore"):
            assert as_bytes(m.local_extrema(t, x)) == as_bytes(
                extrema_oracle(t, x))

    @pytest.mark.parametrize("t, x", [
        ([0.0, 1e-200, 2e-200], [0.0, 2.0, 1.0]),
        ([-math.inf, 1.0, 1.0], [0.0, 2.0, 1.0]),
        ([0.0, 2.0, 1.0], [0.0, 2.0, 1.0]),
        ([2.0, 1.0, 0.0], [0.0, 2.0, 1.0])],
        ids=["denom-underflows", "h3-zero", "a-zero", "vertex-outside"])
    def test_degenerate_parabolas(self, t, x):
        # one maximum whose parabola the refinement rejects, so it keeps
        # its sample: denom = h1 * h3 * (h1 - h3) underflows to 0; h3 = 0
        # beside an infinite h1 (denom NaN); a = 0; the vertex outside
        # [h1, h3], which are reversed here
        with np.errstate(all="ignore"):
            ex = m.local_extrema(t, x)
            assert as_bytes(ex) == as_bytes(extrema_oracle(t, x))
        assert (ex[0].tolist(), ex[1].tolist()) == ([t[1]], [2.0])

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.0, 0.3),
           stride=st.integers(1, 20))
    def test_kernel_trajectories(self, designed, seed, sigma, stride):
        p = designed.params
        params = replace(p, device=m.perturb(p.device, sigma, seed))
        cfg = m.IntegrationConfig(t_end=0.01, t_transient=0.002,
                                  record_stride=stride)
        traj = m.integrate(params, (0.1, 0.0, 0.0), cfg)
        ex = m.local_extrema(traj.times, traj.v1)
        assert ex[0].size and as_bytes(ex) == as_bytes(
            extrema_oracle(traj.times, traj.v1))


class TestClusterCount:
    def test_empty(self):
        assert m.cluster_count([], 0.1) == 0

    def test_two_groups(self):
        assert m.cluster_count([1.0, 1.01, 2.0, 2.02], 0.05) == 2

    def test_all_one_group(self):
        assert m.cluster_count([1.0, 1.01, 1.02], 0.05) == 1

    def test_one_value(self):
        assert m.cluster_count([1.0], 0.05) == 1


class TestClassify:
    def test_designed_circuit_is_double_scroll(self, designed, designed_run):
        traj, lam, eqs = designed_run
        verdict = m.classify(traj, eqs, lam)
        assert verdict.label == "double_scroll"
        assert verdict.scroll_side == "both"

    def test_stable_variant_reaches_fixed_point(self, designed):
        """Nudging the converter weaker stabilizes the origin; the
        eigenvalue oracle (numpy) confirms stability before simulating."""
        stable_params = None
        for s in (0.95, 0.9, 0.85):
            cand = replace(designed.params, g_n=designed.params.g_n * s)
            eigs = np.linalg.eigvals(m.jacobian(cand, (0.0, 0.0, 0.0)))
            if eigs.real.max() < 0:
                stable_params = cand
                break
        assert stable_params is not None, "no stable variant found"
        eqs = m.find_equilibria(stable_params)
        assert all(e.stable for e in eqs if e.label == "P0")
        cfg = m.IntegrationConfig(t_end=0.2, t_transient=0.05)
        traj = m.integrate(stable_params, (0.95, 0.0, -stable_params.g * 0.9),
                           cfg)
        verdict = m.classify(traj, eqs)
        assert verdict.label == "fixed_point"

    def test_synthetic_limit_cycle_is_periodic_positive(self, designed):
        traj = synthetic_orbit(designed)
        eqs = m.find_equilibria(designed.params)
        verdict = m.classify(traj, eqs)
        assert verdict.label == "periodic"
        assert verdict.scroll_side == "positive"
        assert verdict.n_extrema_clusters <= 8

    def test_short_trajectory_is_inconclusive(self, designed):
        traj = synthetic_orbit(designed, n=16)
        eqs = m.find_equilibria(designed.params)
        verdict = m.classify(traj, eqs)
        assert verdict.label == "inconclusive"

    def test_diverged_event_wins(self):
        # bare negative resistance: no quintic to confine the growth
        poly = m.DevicePoly(0, 0, 0, 0, 0, v_min=-10, v_max=10)
        runaway = m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=1e-6,
                                  g_n=1.46e-4, device=poly)
        cfg = m.IntegrationConfig(t_end=0.05, t_transient=0.0)
        traj = m.integrate(runaway, (0.1, 0.0, 0.0), cfg)
        eqs = m.find_equilibria(runaway)
        assert m.classify(traj, eqs).label == "diverged"

    def test_double_scroll_implies_extrema_on_both_sides(self, designed_run):
        traj, lam, eqs = designed_run
        values = m.local_extrema(traj.times, traj.v1)[1]
        r_vis = 0.3 * 0.9
        assert (values > r_vis).any() and (values < -r_vis).any()


class TestLargestLyapunov:
    def test_designed_circuit_exponent_is_positive(self, designed, designed_run):
        _, lam, _ = designed_run
        assert lam.dimensionless > 0.01
        assert lam.time_unit == pytest.approx(
            designed.params.c2 / designed.params.g, rel=1e-12)

    def test_periodic_regime_point_has_small_exponent(self, designed,
                                                      ref_state):
        table = m.StateTable((ref_state,))
        state = m.state_at(table, 0.22 * ref_state.r_prog)
        params = replace(designed.params, device=state.poly)
        cfg = m.IntegrationConfig()
        lam = m.largest_lyapunov(params, (0.1, 0.0, 0.0), cfg)
        assert abs(lam.dimensionless) < 0.01
        traj = m.integrate(params, (0.1, 0.0, 0.0), cfg)
        verdict = m.classify(traj, m.find_equilibria(params), lam)
        assert verdict.label == "periodic"

    def test_linear_system_matches_eigenvalue(self, linear_params):
        eig = np.linalg.eigvals(
            m.jacobian(linear_params, (0.0, 0.0, 0.0))).real.max()
        cfg = m.IntegrationConfig(dt=1e-6, t_end=0.5, t_transient=0.05)
        lam = m.largest_lyapunov(linear_params, (0.05, 0.02, 0.0), cfg)
        assert lam.lambda1 == pytest.approx(eig, rel=0.05)

    def test_diverging_reference_raises(self):
        poly = m.DevicePoly(0, 0, 0, 0, 0, v_min=-10, v_max=10)
        runaway = m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=1e-6,
                                  g_n=1.46e-4, device=poly)
        cfg = m.IntegrationConfig(t_end=0.05, t_transient=0.0)
        with pytest.raises(LyapunovError):
            m.largest_lyapunov(runaway, (0.1, 0.0, 0.0), cfg)

    @pytest.mark.parametrize("interval", [1e300, math.inf])
    def test_interval_past_the_run_completes_none(self, designed, backend,
                                                  interval):
        # R*C2 of 1e300 s is 1e306 steps, past the C kernels' int64: an
        # interval longer than the run stands in as n_steps + 1 steps
        params = replace(designed.params, c2=interval * designed.params.g)
        assert params.time_unit == interval
        cfg = m.IntegrationConfig(t_end=0.002, t_transient=0.0005)
        call = rk4_call(params, (0.1, 0.0, 0.0), cfg, shadow=True)
        assert call.renorm_every == call.n_steps + 1
        message = (
            "no complete renormalization interval after the transient (the "
            f"interval is R*C2 = {interval:.4g} s); extend t_end or shorten "
            "t_transient")
        with pytest.raises(LyapunovError) as raised:
            m.largest_lyapunov(params, (0.1, 0.0, 0.0), cfg)
        assert str(raised.value) == message
        traj, lam, error = m.trajectory_and_lyapunov(params, (0.1, 0.0, 0.0),
                                                     cfg)
        assert lam is None and len(traj.times) > 0
        assert str(error) == message


class TestTrajectoryAndLyapunov:
    @settings(max_examples=12, deadline=None)
    @given(v_lim=st.floats(0.05, 2.0), v0=st.floats(-0.2, 0.2))
    def test_abort_record_is_prefix_of_warn_record(self, designed, v_lim,
                                                   v0):
        d = designed.params.device
        params = replace(designed.params, device=m.DevicePoly(
            d.p1, d.p2, d.p3, d.p4, d.p5, v_min=-v_lim, v_max=v_lim))
        init = (v0, 0.0, 0.0)
        warn_cfg = m.IntegrationConfig(t_end=0.01, t_transient=0.0,
                                       record_stride=5)
        abort_cfg = replace(warn_cfg, soa_policy="abort")
        warn, lam_warn, _ = m.trajectory_and_lyapunov(params, init, warn_cfg)
        abort, lam_abort, _ = m.trajectory_and_lyapunov(params, init,
                                                        abort_cfg)

        n = len(abort.times)
        assert np.array_equal(abort.times, warn.times[:n])
        assert np.array_equal(abort.states, warn.states[:n])
        assert abort.events == warn.events[:len(abort.events)]
        crossed = any(ev.kind != "diverged" for ev in warn.events)
        assert abort.aborted_on_soa == crossed
        if crossed:
            assert len(abort.events) == 1
        assert lam_abort == lam_warn

        # the fused pass reproduces the two separate calls bit for bit
        alone = m.integrate(params, init, abort_cfg)
        assert np.array_equal(alone.states, abort.states)
        assert alone.events == abort.events
        assert lam_abort == m.largest_lyapunov(params, init, abort_cfg)

    def test_diverged_reference_has_no_exponent(self):
        poly = m.DevicePoly(0, 0, 0, 0, 0, v_min=-10, v_max=10)
        runaway = m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=1e-6,
                                  g_n=1.46e-4, device=poly)
        cfg = m.IntegrationConfig(t_end=0.05, t_transient=0.0)
        traj, lam, error = m.trajectory_and_lyapunov(runaway, (0.1, 0.0, 0.0),
                                                     cfg)
        assert traj.diverged and lam is None
        assert str(error) == "reference trajectory diverged; no exponent"
        assert traj.events[-1].kind == "diverged"

    def test_sweep_point_makes_one_kernel_and_one_extrema_call(
            self, ref_state, spec, monkeypatch):
        # a 2-point sweep: one kernel call steps both points, and each
        # point finds its extrema once
        calls = {"kernel": 0, "extrema": 0}
        kernel, extrema = kernels.rk4_trajectories, analysis.local_extrema

        def counted_kernel(*args):
            calls["kernel"] += 1
            return kernel(*args)

        def counted_extrema(*args):
            calls["extrema"] += 1
            return extrema(*args)

        monkeypatch.setattr(kernels, "rk4_trajectories", counted_kernel)
        monkeypatch.setattr(analysis, "local_extrema", counted_extrema)
        icfg = m.IntegrationConfig(t_end=0.02, t_transient=0.005)
        pts = m.sweep(m.StateTable((ref_state,)), spec, icfg,
                      ref_state.r_prog, ref_state.r_prog, 2, sigma=0.1,
                      seed=4)
        assert [p.verdict.label for p in pts] == ["double_scroll"] * 2
        assert calls == {"kernel": 1, "extrema": 2}


class TestPythonFloatCoefficients:
    @staticmethod
    def two_row_table(ref_state):
        poly = m.DevicePoly(*(0.5 * ref_state.poly.coefficients),
                            v_min=-1.1, v_max=2.5)
        upper = m.DeviceState(2.0 * ref_state.r_prog, poly)
        return m.StateTable.from_states([ref_state, upper])

    @settings(max_examples=60, deadline=None)
    @given(frac=st.one_of(st.sampled_from([1.0, 2.0]),
                          st.floats(0.1, 5.0)),
           sigma=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_kernel_args_are_python_floats(self, ref_state, spec, frac,
                                           sigma, seed):
        table = self.two_row_table(ref_state)
        r = frac * ref_state.r_prog
        state = m.state_at(table, r)
        poly = m.perturb(state.poly, sigma, seed)
        assert all(type(x) is float for x in
                   (*state.poly.coefficients.tolist(), poly.p1, poly.p2,
                    poly.p3, poly.p4, poly.p5, poly.v_min, poly.v_max))

        # fixed mode: the reference design with the perturbed device
        ref = m.design_circuit(table.states[-1], spec).require_ok().params
        fixed = replace(ref, device=poly)
        assert all(type(x) is float for x in fixed.kernel_args)

        # redesign mode: the components sized around the perturbed device
        try:
            report = m.design_circuit(m.DeviceState(r, poly), spec)
        except m.DesignError:
            return
        assert all(type(x) is float for x in report.params.kernel_args)

    def test_numpy_inputs_are_stored_as_float(self):
        poly = m.DevicePoly(*np.arange(1.0, 6.0), v_min=np.float64(-1.0),
                            v_max=np.float32(2.0))
        assert all(type(x) is float for x in
                   (poly.p1, poly.p2, poly.p3, poly.p4, poly.p5, poly.v_min,
                    poly.v_max))
        assert type(poly.scaled(np.float64(0.5)).p3) is float


class TestPerturb:
    def test_sigma_zero_is_identity(self, ref_state):
        assert m.perturb(ref_state.poly, 0.0, seed=5) is ref_state.poly

    def test_fixed_seed_reproducible(self, ref_state):
        a = m.perturb(ref_state.poly, 0.05, seed=123)
        b = m.perturb(ref_state.poly, 0.05, seed=123)
        assert np.array_equal(a.coefficients, b.coefficients)
        c = m.perturb(ref_state.poly, 0.05, seed=124)
        assert not np.array_equal(a.coefficients, c.coefficients)

    def test_median_factor_is_one(self, ref_state):
        p3 = ref_state.poly.p3
        factors = [m.perturb(ref_state.poly, 0.05, seed=k).p3 / p3
                   for k in range(1000)]
        assert np.median(factors) == pytest.approx(1.0, abs=0.02)

    def test_window_preserved(self, ref_state):
        out = m.perturb(ref_state.poly, 0.05, seed=1)
        assert out.v_min == ref_state.poly.v_min
        assert out.v_max == ref_state.poly.v_max

    def test_negative_sigma_rejected(self, ref_state):
        with pytest.raises(ValueError):
            m.perturb(ref_state.poly, -0.1, seed=0)


def small_icfg():
    return m.IntegrationConfig(t_end=0.1, t_transient=0.02)


class TestSweep:
    def test_single_point_matches_direct_pipeline(self, designed, ref_state,
                                                  spec):
        table = m.StateTable((ref_state,))
        icfg = small_icfg()
        pts = m.sweep(table, spec, icfg, ref_state.r_prog,
                      ref_state.r_prog, 1, sigma=0.0, seed=9)
        assert len(pts) == 1
        traj = m.integrate(designed.params, (0.1, 0.0, 0.0), icfg)
        lam = m.largest_lyapunov(designed.params, (0.1, 0.0, 0.0), icfg)
        direct = m.classify(traj, m.find_equilibria(designed.params), lam)
        assert pts[0].verdict.label == direct.label
        values = m.local_extrema(traj.times, traj.v1)[1]
        assert np.array_equal(pts[0].extrema, values)

    def test_rerun_is_bit_identical(self, ref_state, spec):
        table = m.StateTable((ref_state,))
        icfg = small_icfg()
        kw = dict(mode="fixed", sigma=0.1, seed=77)
        a = m.sweep(table, spec, icfg, 0.4 * ref_state.r_prog,
                    1.2 * ref_state.r_prog, 4, **kw)
        b = m.sweep(table, spec, icfg, 0.4 * ref_state.r_prog,
                    1.2 * ref_state.r_prog, 4, **kw)
        for pa, pb in zip(a, b):
            assert pa.r_prog == pb.r_prog
            assert pa.verdict == pb.verdict
            assert np.array_equal(pa.extrema, pb.extrema)

    @pytest.mark.parametrize("lanes, batches", [(1, [1] * 5),
                                                (2, [2, 2, 1])])
    def test_batches_follow_the_lane_width(self, ref_state, spec,
                                           monkeypatch, lanes, batches):
        # the sweep hands the kernels kernels.LANES points at a time, and
        # each point is the same at any width
        table = m.StateTable((ref_state,))
        icfg = small_icfg()

        def run():
            pts = m.sweep(table, spec, icfg, 0.4 * ref_state.r_prog,
                          1.2 * ref_state.r_prog, 5, sigma=0.1, seed=5)
            return [(p.r_prog, p.extrema.tobytes(), p.verdict, p.reason)
                    for p in pts]

        expected = run()
        seen = []
        sweep_points = analysis._sweep_points
        monkeypatch.setattr(kernels, "LANES", lanes)
        monkeypatch.setattr(analysis, "_sweep_points", lambda r, points: (
            seen.append(len(points)) or sweep_points(r, points)))
        assert run() == expected
        assert seen == batches

    @pytest.mark.parametrize("workers", [2, 3, None])
    def test_parallel_matches_serial(self, ref_state, spec, tmp_path,
                                     monkeypatch, backend, workers):
        # three pairs, the last a lone point, on up to three threads;
        # None takes every CPU
        monkeypatch.setattr(analysis, "_cpus", lambda: 4)
        table = m.StateTable((ref_state,))
        icfg = m.IntegrationConfig(t_end=0.01, t_transient=0.005)
        kw = dict(mode="fixed", sigma=0.05, seed=3)
        runs = []
        for w in (1, workers):
            pts = m.sweep(table, spec, icfg, 0.5 * ref_state.r_prog,
                          1.1 * ref_state.r_prog, 5, workers=w, **kw)
            m.write_bifurcation_csv(tmp_path / "bif.csv", pts)
            runs.append(((tmp_path / "bif.csv").read_bytes(),
                         [(p.verdict, p.seed, p.soa, p.reason) for p in pts]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("workers, n_points, cpus, started", [
        (5000, 5, 2, 2), (5000, 5, 64, 3), (2, 5, 64, 2), (5000, 2, 64, None),
        (5000, 5, None, None), (1, 5, 64, None), (None, 5, 2, 2),
        (None, 5, 64, 3), (None, 2, 64, None), (None, 5, 1, None)])
    def test_pool_size_is_bounded(self, ref_state, spec, monkeypatch,
                                  workers, n_points, cpus, started):
        # no more threads than pairs of points or CPUs, and no pool for
        # one; workers=None asks for every CPU
        pools = self.fake_pools(monkeypatch)
        monkeypatch.setattr(analysis, "_cpus", lambda: cpus)
        monkeypatch.setattr(kernels, "BACKEND", "c")
        pts = self.small_sweep(ref_state, spec, n_points, workers)
        assert len(pts) == n_points
        assert pools == ([] if started is None else [started])

    @staticmethod
    def fake_pools(monkeypatch):
        """The max_workers of each pool that analysis starts, which runs
        its tasks on the calling thread."""
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(analysis, "ThreadPoolExecutor", FakePool)
        return pools

    @staticmethod
    def small_sweep(ref_state, spec, n_points, workers):
        table = m.StateTable((ref_state,))
        icfg = m.IntegrationConfig(t_end=0.01, t_transient=0.005)
        return m.sweep(table, spec, icfg, 0.5 * ref_state.r_prog,
                       1.1 * ref_state.r_prog, n_points, sigma=0.05, seed=3,
                       workers=workers)

    def test_auto_workers_on_the_python_backend_is_one(
            self, ref_state, spec, monkeypatch):
        # its threads would take turns on the GIL
        pools = self.fake_pools(monkeypatch)
        monkeypatch.setattr(analysis, "_cpus", lambda: 64)
        monkeypatch.setattr(kernels, "BACKEND", "python")
        assert len(self.small_sweep(ref_state, spec, 5, None)) == 5
        assert pools == []

    def test_cpus_are_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 7)
        monkeypatch.setattr(analysis.os, "sched_getaffinity",
                            lambda pid: {0, 3, 5}, raising=False)
        assert analysis._cpus() == 3
        monkeypatch.delattr(analysis.os, "sched_getaffinity")
        assert analysis._cpus() == 7

    def test_import_loads_no_process_pool(self):
        # the sweep's workers are threads: a fresh interpreter's import
        # starts no multiprocessing machinery
        code = ("import sys, memchua; print(sorted(n for n in sys.modules if "
                "n.startswith(('multiprocessing', 'concurrent.futures.process'))"
                "))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, encoding="utf-8", check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("mode", ["fixed", "redesign"])
    def test_paired_points_match_lone_runs(self, ref_state, spec, tmp_path,
                                           mode):
        # the kernels step the points two at a time; each point must be
        # what a run of its own gives, at any worker count
        table = m.StateTable((ref_state,))
        icfg = m.IntegrationConfig(t_end=0.02, t_transient=0.005)
        csvs = []
        for workers in (1, 2):
            pts = m.sweep(table, spec, icfg, 0.4 * ref_state.r_prog,
                          1.4 * ref_state.r_prog, 5, mode=mode, sigma=0.1,
                          seed=11, workers=workers)
            m.write_bifurcation_csv(tmp_path / "bif.csv", pts)
            csvs.append((tmp_path / "bif.csv").read_bytes())
        assert csvs[0] == csvs[1]

        ref = m.design_circuit(ref_state, spec).require_ok().params
        for k, pt in enumerate(pts):
            state = m.state_at(table, pt.r_prog)
            poly = m.perturb(state.poly, 0.1, 11 + k)
            if mode == "fixed":
                params = replace(ref, device=poly)
            else:
                params = m.design_circuit(m.DeviceState(pt.r_prog, poly),
                                          spec).require_ok().params
            traj, lam, _ = m.trajectory_and_lyapunov(params, (0.1, 0.0, 0.0),
                                                     icfg)
            values = m.local_extrema(traj.times, traj.v1)[1]
            assert pt.extrema.tobytes() == values.tobytes()
            assert pt.verdict == m.classify(
                traj, m.find_equilibria(params), lam)
            assert pt.reason is None

    def test_points_ordered_by_resistance(self, ref_state, spec):
        table = m.StateTable((ref_state,))
        icfg = small_icfg()
        pts = m.sweep(table, spec, icfg, 0.4 * ref_state.r_prog,
                      1.2 * ref_state.r_prog, 4, sigma=0.0)
        rs = [p.r_prog for p in pts]
        assert rs == sorted(rs)

    def test_per_point_seeds_recorded(self, ref_state, spec):
        table = m.StateTable((ref_state,))
        icfg = small_icfg()
        pts = m.sweep(table, spec, icfg, 0.4 * ref_state.r_prog,
                      1.2 * ref_state.r_prog, 3, sigma=0.1, seed=100)
        assert [p.seed for p in pts] == [100, 101, 102]

    def test_redesign_mode_records_infeasible_points(self, ref_state, spec):
        linear = m.DeviceState(
            r_prog=ref_state.r_prog / 100,
            poly=m.DevicePoly(1e-4, 0, 0, 0, 0, v_min=-1.2, v_max=2.6))
        table = m.StateTable.from_states([linear, ref_state])
        icfg = small_icfg()
        pts = m.sweep(table, spec, icfg, linear.r_prog,
                      ref_state.r_prog, 3, mode="redesign", sigma=0.0)
        labels = [p.verdict.label for p in pts]
        assert labels[0] == "inconclusive"
        assert len(pts) == 3

    def test_redesign_failure_keeps_reason(self, ref_state, spec):
        linear = m.DeviceState(
            r_prog=ref_state.r_prog / 100,
            poly=m.DevicePoly(1e-4, 0, 0, 0, 0, v_min=-1.2, v_max=2.6))
        table = m.StateTable.from_states([linear, ref_state])
        icfg = m.IntegrationConfig(t_end=0.02, t_transient=0.005)
        pts = m.sweep(table, spec, icfg, linear.r_prog, ref_state.r_prog, 2,
                      mode="redesign", sigma=0.0)
        assert pts[0].verdict.label == "inconclusive"
        assert pts[0].reason.startswith("design failure: infeasible-G")
        assert pts[1].verdict.label != "inconclusive"
        assert pts[1].reason is None

    def test_redesign_without_converter_resistance_keeps_reason(self, spec):
        # the converter conductance sizes to exactly 0 at the table's row
        poly = m.DevicePoly(-1.0, 100.0, 0.0, 0.0, -99.5, v_min=-1.2,
                            v_max=2.6)
        state = m.DeviceState(m.resistance_at_low_bias(poly), poly)
        icfg = m.IntegrationConfig(t_end=0.002, t_transient=0.0005)
        (pt,) = m.sweep(m.StateTable((state,)),
                        replace(spec, v_eq=1.0, alpha=1.0), icfg,
                        state.r_prog, state.r_prog, 1, mode="redesign")
        assert pt.verdict.label == "inconclusive"
        assert pt.reason == (
            "design failure: component-range: the converter conductance "
            "g_n=0.0 S has no finite resistance 1/g_n")

    def test_point_without_spectrum_keeps_reason(self, ref_state, designed):
        # a fixed-mode point whose Jacobian overflows is recorded, not raised
        icfg = m.IntegrationConfig(t_end=0.002, t_transient=0.0005)
        tiny_l = replace(designed.params, l=1e-310)
        run = analysis._SweepRun(m.StateTable((ref_state,)), None, icfg,
                                 "fixed", 0.0, (0.1, 0.0, 0.0), tiny_l)
        (pt,) = analysis._sweep_points(run, [(ref_state.r_prog, 7)])
        assert (pt.verdict.label, pt.seed) == ("inconclusive", 7)
        assert pt.reason.startswith("equilibria: the Jacobian at v1=0.0 V")

    def test_non_soa_extrema_inside_window(self, ref_state, spec):
        table = m.StateTable((ref_state,))
        icfg = small_icfg()
        pts = m.sweep(table, spec, icfg, 0.4 * ref_state.r_prog,
                      1.4 * ref_state.r_prog, 5, sigma=0.0)
        for p in pts:
            if not p.soa and p.extrema.size:
                assert p.extrema.min() >= ref_state.poly.v_min
                assert p.extrema.max() <= ref_state.poly.v_max


class TestBifurcationCsv:
    def test_format_and_roundtrip(self, tmp_path, ref_state, spec):
        table = m.StateTable((ref_state,))
        icfg = small_icfg()
        pts = m.sweep(table, spec, icfg, 0.8 * ref_state.r_prog,
                      1.2 * ref_state.r_prog, 2, sigma=0.0)
        path = tmp_path / "bif.csv"
        m.write_bifurcation_csv(path, pts)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "r_prog_ohm,extremum_v1_V,class"
        n_rows = sum(p.extrema.size for p in pts)
        assert len(lines) == n_rows + 1
        first = lines[1].split(",")
        assert float(first[0]) == pts[0].r_prog
        assert first[2] == pts[0].verdict.label
