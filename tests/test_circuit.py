import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import memchua as m
from memchua import circuit

import equilibria_oracle
from conftest import bisect_equilibrium


def odd_cubic_params(g, g_n, p3=1e-5):
    poly = m.DevicePoly(0.0, 0.0, p3, 0.0, 0.0, v_min=-1.2, v_max=2.6)
    return m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=g, g_n=g_n, device=poly)


class TestCircuitParams:
    @pytest.mark.parametrize("g, g_n", [
        (math.nan, 1e-4), (math.inf, 1e-4), (1e-4, math.nan),
        (1e-4, math.inf), (-1e-4, 1e-4)])
    def test_rejects_conductances_not_finite_and_nonnegative(self, g, g_n):
        # a NaN or infinite conductance once reached np.roots
        with pytest.raises(ValueError) as err:
            odd_cubic_params(g, g_n)
        assert str(err.value) == (
            "g and g_n must be finite and nonnegative, got "
            f"g={g!r} S, g_n={g_n!r} S")


class TestNonlinearCurrent:
    def test_zero_at_origin(self, designed):
        assert m.nonlinear_current(designed.params, 0.0) == 0.0

    def test_reference_block_current_balances_load_line(self, designed):
        """With the nominal converter 1/6856 S the block current at 0.9 V
        sits on the load line -g*v to within 0.5%."""
        from dataclasses import replace
        params = replace(designed.params, g_n=1.0 / 6856.0)
        i_r = m.nonlinear_current(params, 0.9)
        assert i_r == pytest.approx(-1.1775e-4, rel=5e-4)
        assert i_r == pytest.approx(-(1.0 / 7643.0) * 0.9, rel=5e-3)

    def test_slope_at_origin_is_p1_minus_gn(self, designed):
        p = designed.params
        assert m.nonlinear_slope(p, 0.0) == pytest.approx(
            p.device.p1 - p.g_n, rel=1e-15)
        h = 1e-7
        fd = (m.nonlinear_current(p, h) - m.nonlinear_current(p, -h)) / (2 * h)
        assert fd == pytest.approx(p.device.p1 - p.g_n, rel=1e-5)


class TestExistenceCondition:
    def test_reference_design_satisfies_it(self, designed):
        assert m.existence_condition(designed.params) is True

    def test_without_negative_converter(self, ref_state):
        params = m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=1e-4, g_n=0.0,
                                 device=ref_state.poly)
        assert m.existence_condition(params) is False

    def test_boundary_is_strict(self, ref_state):
        g = 1e-4
        g_n = g + ref_state.poly.p1
        params = m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=g, g_n=g_n,
                                 device=ref_state.poly)
        assert m.existence_condition(params) is False


class TestVectorField:
    def test_origin_is_equilibrium(self, designed):
        assert np.all(m.vector_field(designed.params, (0.0, 0.0, 0.0)) == 0.0)

    def test_direct_substitution(self, designed):
        p = designed.params
        f = m.vector_field(p, (0.0, 1.0, 0.0))
        assert f[0] == pytest.approx(p.g / p.c1, rel=1e-15)
        assert f[1] == pytest.approx(-p.g / p.c2, rel=1e-15)
        assert f[2] == pytest.approx(-1.0 / p.l, rel=1e-15)

    def test_residual_at_designed_equilibrium(self, designed):
        p = designed.params
        root = bisect_equilibrium(p, 0.5, 1.2)
        f = m.vector_field(p, (root, 0.0, -p.g * root))
        scale = p.g * abs(root)
        assert abs(f[0]) < 1e-6 * scale / p.c1
        assert abs(f[1]) < 1e-6 * scale / p.c2
        assert abs(f[2]) < 1e-6 * abs(root) / p.l

    def test_vanishes_at_every_found_equilibrium(self, designed):
        p = designed.params
        for eq in m.find_equilibria(p):
            f = m.vector_field(p, eq.state)
            v_ref = max(abs(eq.state.v1), 0.9)
            assert abs(f[0]) < 1e-9 * p.g * v_ref / p.c1
            assert abs(f[1]) < 1e-9 * p.g * v_ref / p.c2
            assert abs(f[2]) < 1e-9 * v_ref / p.l


class TestJacobian:
    def test_only_corner_entry_depends_on_state(self, designed):
        p = designed.params
        j_a = m.jacobian(p, (0.3, 5.0, 1.0))
        j_b = m.jacobian(p, (-0.8, -2.0, 0.5))
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 0] = False
        assert np.array_equal(j_a[mask], j_b[mask])
        assert j_a[0, 0] != j_b[0, 0]

    def test_trace_zero_at_origin_for_designed_circuit(self, designed):
        p = designed.params
        assert abs(m.jacobian_trace(p, 0.0)) < 1e-12 * (p.g / p.c1)

    def test_matches_finite_differences(self, designed):
        rng = np.random.default_rng(11)
        p = designed.params
        for _ in range(10):
            s = np.array([rng.uniform(-1.2, 2.0), rng.uniform(-2, 2),
                          rng.uniform(-5e-4, 5e-4)])
            jac = m.jacobian(p, s)
            fd = np.empty((3, 3))
            for k in range(3):
                e = np.zeros(3)
                e[k] = 1e-6
                fd[:, k] = (m.vector_field(p, s + e)
                            - m.vector_field(p, s - e)) / 2e-6
            nz = np.abs(jac) > 0
            assert np.allclose(fd[nz], jac[nz], rtol=1e-5)
            assert np.allclose(fd[~nz], 0.0, atol=1e-5 * np.abs(jac).max())


class TestFindEquilibria:
    def test_designed_circuit_roots(self, designed):
        eqs = m.find_equilibria(designed.params)
        assert [e.label for e in eqs] == ["P-", "P0", "P+"]
        by_label = {e.label: e for e in eqs}
        assert by_label["P0"].state.v1 == 0.0
        assert by_label["P+"].state.v1 == pytest.approx(0.900, abs=0.005)
        # oracle value from test-side bisection on the residual
        oracle = bisect_equilibrium(designed.params, -1.1, -0.3)
        assert by_label["P-"].state.v1 == pytest.approx(oracle, abs=1e-9)
        assert by_label["P-"].state.v1 == pytest.approx(-0.741, abs=0.015)
        for e in eqs:
            assert e.residual < 1e-12
            assert e.in_window
            assert e.state.v2 == 0.0
            assert e.state.i_l == pytest.approx(
                -designed.params.g * e.state.v1, rel=1e-15, abs=1e-30)

    def test_odd_cubic_closed_form(self):
        g = 1e-4
        params = odd_cubic_params(g, g_n=g + 8.1e-6)
        eqs = m.find_equilibria(params)
        v1s = sorted(e.state.v1 for e in eqs)
        assert v1s[0] == pytest.approx(-0.9, abs=1e-9)
        assert v1s[1] == 0.0
        assert v1s[2] == pytest.approx(0.9, abs=1e-9)

    def test_odd_cubic_without_existence(self):
        g = 1e-4
        params = odd_cubic_params(g, g_n=g - 1e-6)
        eqs = m.find_equilibria(params)
        assert [e.label for e in eqs] == ["P0"]

    def test_asymmetry_from_even_terms(self, designed):
        eqs = {e.label: e for e in m.find_equilibria(designed.params)}
        assert abs(eqs["P+"].state.v1) != pytest.approx(
            abs(eqs["P-"].state.v1), rel=1e-3)

    def test_lossless_lc_has_only_the_origin(self, lc_params):
        """An identically zero deflated quartic has no off-origin roots."""
        assert [e.label for e in m.find_equilibria(lc_params)] == ["P0"]

    def test_rounding_split_double_root_is_one_point(self):
        # deflated quartic 1e-5 (v - 0.7)^2, a saddle-node: rounding in
        # g - g_n makes np.roots return two real roots about 3e-8 V apart
        poly = m.DevicePoly(1e-6, -1.4e-5, 1e-5, 0.0, 0.0,
                            v_min=-1.2, v_max=2.6)
        params = m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=1e-4,
                                 g_n=1e-4 - 3.9e-6, device=poly)
        eqs = m.find_equilibria(params)
        assert [e.label for e in eqs] == ["P0", "P+"]
        assert eqs[1].state.v1 == pytest.approx(0.7, abs=1e-7)

    def test_distinct_same_sign_roots_both_kept(self):
        # 1e-5 (v - 0.7)(v - 0.72): two real equilibria 20 mV apart
        poly = m.DevicePoly(1e-6, -1.42e-5, 1e-5, 0.0, 0.0,
                            v_min=-1.2, v_max=2.6)
        params = m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=1e-4,
                                 g_n=1e-4 - 4.04e-6, device=poly)
        v1s = [e.state.v1 for e in m.find_equilibria(params)]
        assert v1s[0] == 0.0
        assert v1s[1:] == pytest.approx([0.7, 0.72], abs=1e-9)

    def test_same_sign_roots_numbered_outward(self):
        # 1e-3 (v + 1.5)(v + 0.7)(v - 0.5)(v - 1.0): two equilibria on
        # each side of the origin, inside the +-2 V window
        g, g_n = 1e-4, 1e-3
        poly = m.DevicePoly(1e-3 * 0.525 - g + g_n, 1e-3 * -0.475,
                            1e-3 * -1.75, 1e-3 * 0.7, 1e-3,
                            v_min=-2.0, v_max=2.0)
        params = m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=g, g_n=g_n,
                                 device=poly)
        eqs = m.find_equilibria(params)
        assert [e.label for e in eqs] == ["P-2", "P-", "P0", "P+", "P+2"]
        assert [e.state.v1 for e in eqs] == pytest.approx(
            [-1.5, -0.7, 0.0, 0.5, 1.0], abs=1e-9)

    def test_odd_cubic_mirror_symmetry(self):
        g = 1e-4
        params = odd_cubic_params(g, g_n=g + 8.1e-6)
        eqs = {e.label: e for e in m.find_equilibria(params)}
        assert eqs["P+"].state.v1 == pytest.approx(-eqs["P-"].state.v1,
                                                   rel=1e-12)


class TestStability:
    def test_designed_equilibria_all_unstable(self, designed):
        for eq in m.find_equilibria(designed.params):
            assert eq.verdict.unstable, eq.label
            # the reported spectrum belongs to the Jacobian at the point
            ref = np.sort_complex(np.linalg.eigvals(
                m.jacobian(designed.params, eq.state)))
            mine = np.sort_complex(np.array(eq.eigenvalues))
            assert np.abs(mine - ref).max() < 1e-7 * np.abs(ref).max()

    def test_designed_off_origin_points_are_saddle_foci(self, designed):
        for eq in m.find_equilibria(designed.params):
            if eq.label != "P0":
                assert eq.verdict.saddle_focus

    def test_stable_linear_network(self, linear_params):
        """Analytic characteristic polynomial of the damped RLC network
        confirms all eigenvalues sit in the left half plane."""
        p = linear_params
        a2 = p.g / p.c1 + p.g / p.c2
        a1 = 1.0 / (p.l * p.c2)
        a0 = p.g / (p.c1 * p.c2 * p.l)
        ref = np.roots([1.0, a2, a1, a0])
        assert ref.real.max() < 0
        eqs = m.find_equilibria(p)
        assert [e.label for e in eqs] == ["P0"]
        eigs = np.array(eqs[0].eigenvalues)
        assert np.abs(np.sort_complex(eigs) - np.sort_complex(ref)).max() \
            < 1e-9 * np.abs(ref).max()
        (verdict,) = circuit._stability_verdicts(eigs[None])
        assert verdict == eqs[0].verdict
        assert not verdict.unstable
        assert verdict.max_real_part < 0

    def test_saddle_focus_of_huge_spectrum(self):
        # the real parts' product overflows; their signs decide
        (verdict,) = circuit._stability_verdicts(
            [(-1e200, 1e200 + 1e200j, 1e200 - 1e200j)])
        assert verdict.unstable and verdict.saddle_focus

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(st.sampled_from(
               [0.0, -0.0, 1e-300, -1e-12, 1.0, -1.0, 1e200, -1e200,
                math.inf, math.nan]), min_size=6, max_size=30)
           .map(lambda xs: xs[:len(xs) // 6 * 6]),
           real=st.booleans())
    @example(parts=[0.0, -0.0, -1.0, 2.0, 1.0, 0.0], real=False)
    def test_batch_verdicts_match_classify_stability(self, parts, real):
        # ties, signed zeros, infinities and NaNs among the spectra; a
        # verdict's max_real_part compared by its bits. The max of 0.0 and
        # -0.0 is the later of the two, so the example's max is -0.0 in
        # the spectrum's order and 0.0 sorted by |imag|
        x = np.array(parts).reshape(-1, 2, 3)
        eigs = x[:, 0].copy()
        if not real:
            eigs = eigs.astype(complex)
            eigs.imag = x[:, 1]

        def bits(v):
            return (v.unstable, v.saddle_focus,
                    np.float64(v.max_real_part).tobytes())

        got = circuit._stability_verdicts(eigs)
        want = [equilibria_oracle.classify_stability(row) for row in eigs]
        assert [bits(v) for v in got] == [bits(v) for v in want]

    def test_overflowing_rate_raises(self, designed):
        # 1/l overflows, so the Jacobian has no spectrum
        tiny_l = m.CircuitParams(c1=1e-8, c2=1e-7, l=1e-310,
                                 g=designed.params.g,
                                 g_n=designed.params.g_n,
                                 device=designed.params.device)
        with pytest.raises(ValueError, match="Jacobian at v1=0.0 V is not "
                                             "finite"):
            m.find_equilibria(tiny_l)


class TestEquilibriumProperties:
    """Invariants of find_equilibria over designed circuits whose device
    coefficients are the reference ones times random lognormal factors."""

    @settings(max_examples=50, deadline=None)
    @given(sigma=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_roots_residuals_and_spectra(self, ref_state, spec, sigma, seed):
        poly = m.perturb(ref_state.poly, sigma, seed)
        try:
            report = m.design_circuit(
                m.DeviceState(ref_state.r_prog, poly), spec)
        except m.DesignError:
            assume(False)
        p = report.params
        for eq in m.find_equilibria(p):
            v = eq.state.v1
            assert eq.residual <= 1e-12
            if eq.label != "P0":
                oracle = bisect_equilibrium(p, v - 1e-3, v + 1e-3)
                assert abs(v - oracle) <= 1e-12
            # sum and product of the spectrum against trace and determinant,
            # relative to the eigenvalue magnitudes (the origin's trace is
            # zero by design)
            eigs = np.array(eq.eigenvalues)
            jac = m.jacobian(p, eq.state)
            mags = np.abs(eigs)
            assert abs(eigs.sum() - np.trace(jac)) <= 1e-9 * mags.sum()
            assert abs(eigs.prod() - np.linalg.det(jac)) <= 1e-9 * mags.prod()


def point_bits(eq):
    """Everything find_equilibria reports of a point, floats as their bits."""
    return (eq.label, np.array(eq.state).tobytes(),
            np.array(eq.eigenvalues, dtype=complex).tobytes(), eq.stable,
            eq.in_window, np.float64(eq.residual).tobytes())


def check_bits(checks):
    return [(name, passed, np.float64(value).tobytes())
            for name, passed, value in checks]


def assert_matches_oracle(params):
    points = m.find_equilibria(params)
    oracle = equilibria_oracle.find_equilibria(params)
    assert [point_bits(e) for e in points] == [point_bits(e) for e in oracle]
    # each point carries the verdict the oracle's classify_stability gives
    # its spectrum
    for e in points:
        assert e.verdict == equilibria_oracle.classify_stability(e)
    return points


def quartic_circuit(real_roots, pair, p5, l):
    """A circuit whose deflated quartic is p5 times the product of
    (v - r) over `real_roots` and, for each missing pair of them, the
    complex pair pair[0] +- 1j*pair[1]."""
    roots = list(real_roots)
    while len(roots) < 4:
        roots += [complex(*pair), complex(pair[0], -pair[1])]
    _, p4, p3, p2, c0 = p5 * np.real(np.poly(roots))
    g, g_n = 1e-4, 1.1e-4
    poly = m.DevicePoly(c0 - g + g_n, p2, p3, p4, p5, v_min=-1.2, v_max=2.6)
    return m.CircuitParams(c1=1e-8, c2=1e-7, l=l, g=g, g_n=g_n, device=poly)


class TestEquilibriaOracle:
    """find_equilibria's stacked spectra and verdicts against the per-point
    loop kept in tests/equilibria_oracle.py: the same points, eigenvalues
    and residuals bit for bit, and design_circuit's checks against the
    checks as that loop's points gave them."""

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.floats(0.0, 0.6), seed=st.integers(0, 2**32 - 1),
           v_eq=st.floats(0.05, 1.19), c1=st.floats(1e-10, 1e-6),
           alpha=st.floats(0.5, 30.0), beta=st.floats(0.5, 50.0))
    def test_designs(self, ref_state, sigma, seed, v_eq, c1, alpha, beta):
        poly = m.perturb(ref_state.poly, sigma, seed)
        state = m.DeviceState(ref_state.r_prog, poly)
        spec = m.DesignSpec(v_eq=v_eq, c1=c1, alpha=alpha, beta=beta)
        try:
            report = m.design_circuit(state, spec)
        except m.DesignError:
            assume(False)
        points = assert_matches_oracle(report.params)
        assert list(report.equilibria) == points
        expected = equilibria_oracle.design_checks(
            report.params, spec,
            equilibria_oracle.find_equilibria(report.params))
        assert check_bits((c.name, c.passed, c.value)
                          for c in report.checks) == check_bits(expected)

    @settings(max_examples=100, deadline=None)
    @given(real_roots=st.sampled_from([0, 2, 4]).flatmap(
               lambda n: st.lists(st.floats(-1.6, 3.0), min_size=n,
                                  max_size=n)),
           pair=st.tuples(st.floats(-2.0, 2.0), st.floats(1e-3, 2.0)),
           p5=st.floats(1e-7, 1e-4) | st.floats(-1e-4, -1e-7),
           log_l=st.floats(-3.0, 6.0))
    def test_circuits(self, real_roots, pair, p5, log_l):
        # up to two equilibria on each side, inside and outside the window,
        # with complex and with all-real spectra (a large l decouples the
        # inductor)
        assert_matches_oracle(quartic_circuit(real_roots, pair, p5,
                                              0.41 * 10.0 ** log_l))

    @pytest.mark.parametrize("l, kinds", [(2.0, ["C", "R", "C"]),
                                          (6.0, ["R", "R", "R"])],
                             ids=["mixed", "all-real"])
    def test_real_spectra(self, l, kinds):
        # one stacked call returns a real array only when every spectrum is
        # real; a real spectrum among complex ones keeps +0.0 imaginary parts
        params = odd_cubic_params(1e-4, g_n=1e-4 + 8.1e-6)
        params = m.CircuitParams(c1=params.c1, c2=params.c2, l=l, g=params.g,
                                 g_n=params.g_n, device=params.device)
        points = assert_matches_oracle(params)
        assert ["R" if all(z.imag == 0.0 for z in e.eigenvalues) else "C"
                for e in points] == kinds

    def test_lossless_lc(self, lc_params):
        # zero real parts, whose signs the verdicts' max must keep
        assert_matches_oracle(lc_params)

    @pytest.mark.parametrize("p3, c1, l, g_n, v1", [
        (1e-5, 1e-8, 1e-310, 1.1e-4, "0.0"),  # 1/l overflows at every point
        # equilibria at +-1 V, where the slope overflows its rate
        (1e300, 6e-9, 0.41, 1e300, "-1.0"),
    ], ids=["origin", "off-origin"])
    def test_overflowing_jacobian(self, p3, c1, l, g_n, v1):
        poly = m.DevicePoly(0.0, 0.0, p3, 0.0, 0.0, v_min=-1.2, v_max=2.6)
        params = m.CircuitParams(c1=c1, c2=1e-7, l=l, g=1e-4, g_n=g_n,
                                 device=poly)
        with pytest.raises(ValueError) as oracle:
            equilibria_oracle.find_equilibria(params)
        with pytest.raises(ValueError) as got:
            m.find_equilibria(params)
        assert str(got.value) == str(oracle.value)
        assert str(got.value).startswith(f"the Jacobian at v1={v1} V ")

    def test_one_eigvals_call_and_no_stability_pass_in_design(
            self, ref_state, spec, monkeypatch):
        # the reference design: one eigvals call and one stability pass for
        # its three equilibria, and design_circuit reads their verdicts
        # instead of classifying them again
        calls = {"eigvals": 0, "verdicts": 0}
        eigvals, verdicts = np.linalg.eigvals, circuit._stability_verdicts

        def counted_eigvals(*args):
            calls["eigvals"] += 1
            return eigvals(*args)

        def counted_verdicts(*args):
            calls["verdicts"] += 1
            return verdicts(*args)

        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        monkeypatch.setattr(circuit, "_stability_verdicts", counted_verdicts)
        report = m.design_circuit(ref_state, spec)
        assert len(report.equilibria) == 3
        assert calls == {"eigvals": 1, "verdicts": 1}
