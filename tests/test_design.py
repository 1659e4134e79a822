from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import memchua as m
from memchua.errors import DesignError

from conftest import bisect_equilibrium

# nominal component values the reference characterization should reproduce
NOMINAL_R = 7643.0
NOMINAL_RN = 6856.0
NOMINAL_L = 0.410


def cubic_state(p3):
    """A device state whose current is p3 * v**3 on [-1.2, 2.6] V."""
    poly = m.DevicePoly(0, 0, p3, 0, 0, v_min=-1.2, v_max=2.6)
    return m.DeviceState(1e6, poly)


class TestDesignG:
    def test_reference_value_within_one_percent(self, designed):
        g = designed.params.g
        assert g == pytest.approx(1.312e-4, rel=1e-3)
        assert 1.0 / g == pytest.approx(NOMINAL_R, rel=0.01)

    def test_linear_device_is_infeasible(self, spec):
        poly = m.DevicePoly(1e-6, 0, 0, 0, 0, v_min=-1.2, v_max=2.6)
        with pytest.raises(DesignError) as err:
            m.design_circuit(m.DeviceState(1e6, poly), spec)
        assert err.value.check == "infeasible-G"
        assert str(err.value).endswith("at v_eq=0.9 V is nonpositive")

    def test_odd_cubic_closed_form(self, spec):
        p3 = 1e-5
        g = m.design_circuit(cubic_state(p3), spec).params.g
        assert g == pytest.approx(spec.alpha * p3 * spec.v_eq**2, rel=1e-12)


class TestDesignGn:
    def test_reference_value(self, designed):
        assert designed.params.g_n == pytest.approx(1.4625e-4, rel=1e-3)
        assert designed.r_n == pytest.approx(NOMINAL_RN, rel=0.01)

    def test_equal_capacitors_without_device(self):
        # g = 2e-4 S and p1 = 0
        spec = m.DesignSpec(v_eq=1.0, c1=1e-8, alpha=1.0, beta=14.22)
        report = m.design_circuit(cubic_state(2e-4), spec)
        assert report.params.g == 2e-4
        assert report.params.g_n == pytest.approx(4e-4)


class TestDesignReactive:
    def test_reference_values(self, designed):
        assert designed.params.c2 == 1e-7
        assert designed.params.l == pytest.approx(0.4085, abs=1e-3)
        assert designed.params.l == pytest.approx(NOMINAL_L, rel=0.01)

    def test_alpha_one(self, ref_state):
        spec = m.DesignSpec(v_eq=0.9, c1=3e-9, alpha=1.0, beta=14.22)
        assert m.design_circuit(ref_state, spec).params.c2 == 3e-9

    def test_unit_values(self):
        # g = 1 S
        spec = m.DesignSpec(v_eq=1.0, c1=1.0, alpha=1.0, beta=1.0)
        assert m.design_circuit(cubic_state(1.0), spec).params.l == 1.0


class TestSizingFormulas:
    @settings(max_examples=100, deadline=None)
    @given(sigma=st.floats(0.0, 0.6), seed=st.integers(0, 2**32 - 1),
           v_eq=st.floats(0.05, 1.19), c1=st.floats(1e-10, 1e-6),
           alpha=st.floats(0.5, 30.0), beta=st.floats(0.5, 50.0))
    def test_components_are_the_docstring_formulas(
            self, ref_state, sigma, seed, v_eq, c1, alpha, beta):
        # bit for bit, each formula evaluated in the module docstring's
        # order
        poly = m.perturb(ref_state.poly, sigma, seed)
        spec = m.DesignSpec(v_eq=v_eq, c1=c1, alpha=alpha, beta=beta)
        try:
            p = m.design_circuit(m.DeviceState(ref_state.r_prog, poly),
                                 spec).params
        except DesignError:
            assume(False)
        g = alpha * (m.eval_current(poly, v_eq) / v_eq - poly.p1)
        c2 = alpha * c1
        l = c2 / (beta * g * g)
        g_n = g + (c1 / c2) * g + poly.p1
        assert np.array([p.g, p.c2, p.l, p.g_n]).tobytes() == \
            np.array([g, c2, l, g_n]).tobytes()


class TestDesignCircuit:
    def test_reference_regression(self, designed):
        assert designed.ok
        assert designed.r == pytest.approx(NOMINAL_R, rel=0.01)
        assert designed.r_n == pytest.approx(NOMINAL_RN, rel=0.01)
        assert designed.params.l == pytest.approx(NOMINAL_L, rel=0.01)
        assert designed.params.c2 == 1e-7

    def test_all_named_checks_present_and_passing(self, designed):
        names = [c.name for c in designed.checks]
        assert names == ["existence", "trace-zero", "three-equilibria",
                         "all-unstable", "window"]
        assert all(c.passed for c in designed.checks)

    def test_safe_window_precondition(self, ref_state):
        spec = m.DesignSpec(v_eq=1.5, c1=1e-8, alpha=10.0, beta=14.22)
        with pytest.raises(DesignError, match="safe-window"):
            m.design_circuit(ref_state, spec)

    def test_linear_device_propagates_infeasible(self, spec):
        poly = m.DevicePoly(1e-6, 0, 0, 0, 0, v_min=-1.2, v_max=2.6)
        state = m.DeviceState(1e6, poly)
        with pytest.raises(DesignError, match="infeasible-G"):
            m.design_circuit(state, spec)

    @pytest.mark.parametrize("r_prog, spec_kw", [
        (1e308, {}),  # g * g underflows to 0
        (4.7e5, {"c1": 1e-300, "alpha": 1e-30}),  # alpha * c1 does
        (4.7e5, {"c1": 1e-20, "beta": 1e300}),  # 1/l overflows
    ], ids=["tiny-g", "tiny-c2", "tiny-l"])
    def test_out_of_range_components(self, ref_state, spec, r_prog, spec_kw):
        state = m.state_at(m.StateTable((ref_state,)), r_prog)
        with pytest.raises(DesignError, match="component-range"):
            m.design_circuit(state, replace(spec, **spec_kw))

    def test_zero_converter_conductance(self, spec):
        # g = 0.5 S and g_n = g + g / alpha + p1 = 0.5 + 0.5 - 1.0 = 0,
        # which once raised ZeroDivisionError
        poly = m.DevicePoly(-1.0, 100.0, 0.0, 0.0, -99.5, v_min=-1.2,
                            v_max=2.6)
        state = m.DeviceState(m.resistance_at_low_bias(poly), poly)
        with pytest.raises(DesignError) as err:
            m.design_circuit(state, replace(spec, v_eq=1.0, alpha=1.0))
        assert err.value.check == "component-range"
        assert "g_n=0.0 S" in str(err.value)

    def test_positive_equilibrium_lands_on_target(self, designed, spec):
        eqs = {e.label: e for e in m.find_equilibria(designed.params)}
        assert eqs["P+"].state.v1 == pytest.approx(spec.v_eq, abs=1e-6)
        oracle = bisect_equilibrium(designed.params, 0.5, 1.2)
        assert oracle == pytest.approx(spec.v_eq, abs=1e-6)

    def test_trace_zero_construction(self, designed):
        p = designed.params
        assert abs(m.jacobian_trace(p, 0.0)) < 1e-9 * (p.g / p.c1)

    def test_alpha_beta_roundtrip(self, designed, spec):
        p = designed.params
        assert p.c2 / p.c1 == pytest.approx(spec.alpha, rel=1e-12)
        assert p.c2 / (p.l * p.g * p.g) == pytest.approx(spec.beta, rel=1e-12)

    def test_scale_consistency_in_c1(self, ref_state, spec):
        doubled = m.DesignSpec(v_eq=spec.v_eq, c1=2 * spec.c1,
                               alpha=spec.alpha, beta=spec.beta)
        a = m.design_circuit(ref_state, spec)
        b = m.design_circuit(ref_state, doubled)
        assert b.params.g == pytest.approx(a.params.g, rel=1e-15)
        assert b.params.c2 == pytest.approx(2 * a.params.c2, rel=1e-15)
        assert b.params.l == pytest.approx(2 * a.params.l, rel=1e-12)

    def test_existence_implied_by_trace_construction(self, ref_state, spec):
        """The converter sizing rule always implies the existence
        inequality, whatever the device scale."""
        rng = np.random.default_rng(5)
        table = m.StateTable((ref_state,))
        for _ in range(20):
            r = ref_state.r_prog * rng.uniform(0.2, 5.0)
            state = m.state_at(table, r)
            try:
                report = m.design_circuit(state, spec)
            except DesignError:
                continue
            assert m.existence_condition(report.params)

    def test_failed_validation_reports_check(self, designed):
        """A tampered circuit must fail a named check, not raise."""
        report = designed
        bad = replace(report.params, g_n=report.params.g_n * 0.5)
        # rebuild the validations by reusing the public surface
        assert not m.existence_condition(bad) or \
            abs(m.jacobian_trace(bad, 0.0)) > 1e-9 * (bad.g / bad.c1)
