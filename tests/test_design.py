from dataclasses import replace

import numpy as np
import pytest

import memchua as m
from memchua.errors import DesignError

from conftest import bisect_equilibrium

# nominal component values the reference characterization should reproduce
NOMINAL_R = 7643.0
NOMINAL_RN = 6856.0
NOMINAL_L = 0.410


class TestDesignG:
    def test_reference_value_within_one_percent(self, ref_state, spec):
        g = m.design_g(ref_state.poly, spec)
        assert g == pytest.approx(1.312e-4, rel=1e-3)
        assert 1.0 / g == pytest.approx(NOMINAL_R, rel=0.01)

    def test_linear_device_is_infeasible(self, spec):
        poly = m.DevicePoly(1e-6, 0, 0, 0, 0, v_min=-1.2, v_max=2.6)
        with pytest.raises(DesignError, match="infeasible-G"):
            m.design_g(poly, spec)

    def test_odd_cubic_closed_form(self, spec):
        p3 = 1e-5
        poly = m.DevicePoly(0, 0, p3, 0, 0, v_min=-1.2, v_max=2.6)
        g = m.design_g(poly, spec)
        assert g == pytest.approx(spec.alpha * p3 * spec.v_eq**2, rel=1e-12)


class TestDesignGn:
    def test_reference_value(self):
        g_n = m.design_gn(1.0 / NOMINAL_R, 1e-8, 1e-7, 1.91e-6)
        assert g_n == pytest.approx(1.4585e-4, rel=1e-3)
        assert 1.0 / g_n == pytest.approx(NOMINAL_RN, rel=1e-3)

    def test_equal_capacitors_without_device(self):
        assert m.design_gn(2e-4, 1e-8, 1e-8, 0.0) == pytest.approx(4e-4)

    def test_zero_load(self):
        assert m.design_gn(0.0, 1e-8, 1e-7, 1.91e-6) == 1.91e-6


class TestDesignReactive:
    def test_reference_values(self, spec):
        c2, l = m.design_reactive(1e-8, 1.0 / NOMINAL_R, spec)
        assert c2 == 1e-7
        assert l == pytest.approx(0.411, abs=1e-3)
        assert l == pytest.approx(NOMINAL_L, rel=0.01)

    def test_alpha_one(self):
        spec = m.DesignSpec(v_eq=0.9, c1=3e-9, alpha=1.0, beta=14.22)
        c2, _ = m.design_reactive(3e-9, 1e-4, spec)
        assert c2 == 3e-9

    def test_unit_values(self):
        spec = m.DesignSpec(v_eq=0.9, c1=1.0, alpha=1.0, beta=1.0)
        _, l = m.design_reactive(1.0, 1.0, spec)
        assert l == 1.0


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
