import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import memchua as m
from memchua.errors import FitError, InputFormatError

from conftest import (REF_COEFFS, bisect_equilibrium, eval_current_oracle,
                      make_samples)


class TestEvalCurrent:
    def test_zero_bias_gives_zero_current(self, ref_state):
        assert m.eval_current(ref_state.poly, 0.0) == 0.0

    def test_reference_at_plus_0p9(self, ref_state):
        oracle = eval_current_oracle(REF_COEFFS, 0.9)
        got = m.eval_current(ref_state.poly, 0.9)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(1.35283e-5, abs=1e-9)

    def test_reference_at_minus_0p9(self, ref_state):
        oracle = eval_current_oracle(REF_COEFFS, -0.9)
        got = m.eval_current(ref_state.poly, -0.9)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(-1.98479e-5, abs=1e-9)

    def test_linear_in_coefficients(self, ref_state):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = rng.uniform(-3, 3)
            v = rng.uniform(-1.2, 2.6)
            assert m.eval_current(ref_state.poly.scaled(s), v) == pytest.approx(
                s * m.eval_current(ref_state.poly, v), rel=1e-12, abs=1e-30)

    def test_differential_conductance_matches_finite_differences(self, ref_state):
        h = 1e-7
        for v in (-0.9, -0.2, 0.0, 0.5, 1.7, 2.5):
            fd = (m.eval_current(ref_state.poly, v + h)
                  - m.eval_current(ref_state.poly, v - h)) / (2 * h)
            assert m.eval_differential_conductance(ref_state.poly, v) == \
                pytest.approx(fd, rel=1e-6, abs=1e-12)


class TestFitPoly:
    def test_roundtrip_recovers_reference_coefficients(self):
        voltages = np.linspace(-0.9, 2.6, 50)
        voltages = voltages[voltages != 0.0]
        result = m.fit_poly(make_samples(REF_COEFFS, voltages), (-0.9, 2.6))
        rel = np.abs(result.poly.coefficients - np.array(REF_COEFFS)) \
            / np.abs(REF_COEFFS)
        assert rel.max() < 1e-8
        assert result.rms_residual < 1e-18

    def test_zero_currents_fit_to_zero(self):
        v = np.linspace(-0.5, 1.5, 20)
        v = v[v != 0]
        result = m.fit_poly(np.column_stack([v, np.zeros_like(v)]),
                            (-0.5, 1.5))
        assert np.all(result.poly.coefficients == 0.0)
        assert result.rms_residual == 0.0

    def test_three_samples_rejected(self):
        samples = make_samples(REF_COEFFS, [0.5, 1.0, 1.5])
        with pytest.raises(FitError, match="underdetermined"):
            m.fit_poly(samples, (-1.0, 2.0))

    def test_repeated_voltages_do_not_count_as_distinct(self):
        samples = make_samples(REF_COEFFS, [0.5, 0.5, 0.5, 1.0, 1.5, 2.0])
        with pytest.raises(FitError, match="underdetermined"):
            m.fit_poly(samples, (-1.0, 2.5))

    def test_rows_of_three_are_refused(self, tmp_path):
        samples = make_samples(REF_COEFFS, np.linspace(0.1, 2.0, 10))
        rows = np.column_stack([samples, samples[:, 1]])
        with pytest.raises(ValueError, match=r"got shape \(10, 3\)"):
            m.fit_poly(rows, (-1.0, 2.5))
        with pytest.raises(ValueError):
            m.save_iv_csv(tmp_path / "iv.csv", rows)
        assert not (tmp_path / "iv.csv").exists()

    def test_samples_outside_window_ignored(self):
        voltages = np.concatenate([np.linspace(0.1, 2.0, 10), [5.0, -3.0]])
        result = m.fit_poly(make_samples(REF_COEFFS, voltages), (-1.0, 2.5))
        assert result.n_samples == 10

    def test_noisy_fit_recovers_cubic_coefficient(self):
        rng = np.random.default_rng(0)
        voltages = np.linspace(-1.08, 2.6, 200)
        voltages = voltages[voltages != 0.0]
        clean = np.array([eval_current_oracle(REF_COEFFS, v) for v in voltages])
        noisy = clean * (1.0 + 0.01 * rng.standard_normal(clean.size))
        result = m.fit_poly(list(zip(voltages, noisy)), (-1.08, 2.6))
        assert result.poly.p3 == pytest.approx(REF_COEFFS[2], rel=0.05)


class TestStateAt:
    def test_exact_row_returned_unchanged(self, ref_state):
        table = m.StateTable((ref_state,))
        assert m.state_at(table, ref_state.r_prog) is ref_state

    def test_half_resistance_doubles_coefficients(self, ref_state):
        table = m.StateTable((ref_state,))
        got = m.state_at(table, ref_state.r_prog / 2)
        assert np.allclose(got.poly.coefficients,
                           2.0 * ref_state.poly.coefficients, rtol=1e-15)
        assert got.v_set_mag == ref_state.v_set_mag
        assert got.v_stop == ref_state.v_stop

    def test_log_linear_interpolation_between_rows(self, ref_state):
        low = m.DeviceState(
            r_prog=1e5,
            poly=m.DevicePoly(1e-5, 0, 2e-5, 0, 1e-6, v_min=-1.0, v_max=2.0))
        high = m.DeviceState(
            r_prog=1e6,
            poly=m.DevicePoly(1e-6, 0, 1e-5, 0, 3e-6, v_min=-1.4, v_max=2.6))
        table = m.StateTable((low, high))
        mid = m.state_at(table, 10 ** 5.5)
        assert mid.poly.p1 == pytest.approx(0.5 * (1e-5 + 1e-6))
        assert mid.v_set_mag == pytest.approx(1.2)
        assert mid.v_stop == pytest.approx(2.3)

    def test_rejects_nonpositive_resistance(self, ref_state):
        table = m.StateTable((ref_state,))
        with pytest.raises(ValueError):
            m.state_at(table, 0.0)
        with pytest.raises(ValueError):
            m.state_at(table, -1e5)

    def test_lower_resistance_pulls_equilibrium_inward(self, designed, ref_state):
        """Halving r_prog must shrink the positive equilibrium voltage."""
        from dataclasses import replace
        table = m.StateTable((ref_state,))
        half = m.state_at(table, ref_state.r_prog / 2)
        params_half = replace(designed.params, device=half.poly)
        root = bisect_equilibrium(params_half, 0.05, 1.5)
        assert root < 0.9

    def test_positive_root_monotone_in_r_prog(self, designed, ref_state):
        from dataclasses import replace
        table = m.StateTable((ref_state,))
        roots = []
        for frac in np.geomspace(0.3, 1.5, 9):
            state = m.state_at(table, frac * ref_state.r_prog)
            params = replace(designed.params, device=state.poly)
            roots.append(bisect_equilibrium(params, 0.01, 2.0))
        assert np.all(np.diff(roots) > 0)


class TestCsvIO:
    def test_iv_roundtrip(self, tmp_path):
        path = tmp_path / "iv.csv"
        samples = make_samples(REF_COEFFS, np.linspace(-0.9, 2.5, 12))
        m.save_iv_csv(path, samples)
        back = m.load_iv_csv(path)
        assert np.array_equal(back, samples)

    def test_iv_bad_header_reports_line(self, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("volts,amps\n0.1,1e-7\n", encoding="utf-8")
        with pytest.raises(InputFormatError) as err:
            m.load_iv_csv(path)
        assert err.value.line == 1

    def test_iv_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "iv.csv"
        path.write_text("voltage_V,current_A\n0.1,1e-7\n0.2,oops\n",
                        encoding="utf-8")
        with pytest.raises(InputFormatError) as err:
            m.load_iv_csv(path)
        assert err.value.line == 3

    def test_byte_order_mark_is_skipped(self, tmp_path, ref_state):
        # Excel's "CSV UTF-8" export starts the file with one
        bom = b"\xef\xbb\xbf"
        iv, states = tmp_path / "iv.csv", tmp_path / "states.csv"
        samples = make_samples(REF_COEFFS, np.linspace(-0.9, 2.5, 12))
        m.save_iv_csv(iv, samples)
        m.save_state_table(states, [ref_state])
        for path in (iv, states):
            path.write_bytes(bom + path.read_bytes())
        assert np.array_equal(m.load_iv_csv(iv), samples)
        assert m.load_state_table(states).states == (ref_state,)

    def test_state_table_roundtrip(self, tmp_path, ref_state):
        path = tmp_path / "states.csv"
        m.save_state_table(path, [ref_state])
        table = m.load_state_table(path)
        assert len(table) == 1
        assert table.states[0] == ref_state

    def test_state_table_sorts_rows(self, tmp_path, ref_state):
        other = m.DeviceState(
            r_prog=ref_state.r_prog / 3,
            poly=m.DevicePoly(1e-5, 0, 1e-5, 0, 1e-6, v_min=-1.0, v_max=2.0))
        path = tmp_path / "states.csv"
        m.save_state_table(path, [ref_state, other])
        table = m.load_state_table(path)
        assert [s.r_prog for s in table.states] == sorted(
            [ref_state.r_prog, other.r_prog])


class TestValidation:
    def test_window_must_straddle_zero(self):
        with pytest.raises(ValueError):
            m.DevicePoly(1e-6, 0, 0, 0, 0, v_min=0.1, v_max=2.0)

    def test_table_rejects_duplicate_resistance(self, ref_state):
        with pytest.raises(ValueError):
            m.StateTable((ref_state, ref_state))

    def test_table_rejects_empty(self):
        with pytest.raises(ValueError):
            m.StateTable(())


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(1e-3, 1e3)


@st.composite
def quintics(draw):
    """Coefficients of one sign pattern each, within two decades of one
    another, so the fit is well conditioned on any sub-volt window."""
    coeffs = []
    for _ in range(5):
        mantissa = draw(st.floats(1.0, 9.99))
        exponent = draw(st.integers(-7, -5))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        coeffs.append(sign * mantissa * 10.0 ** exponent)
    return coeffs


@st.composite
def state_tables(draw, coeff=st.floats(-1e3, 1e3), min_rows=1):
    """min_rows-4 rows with distinct r_prog; the default coefficient range
    keeps 1/R scaling by up to 1e3 finite."""
    states = []
    for r in draw(st.lists(st.floats(1e3, 1e8), min_size=min_rows,
                           max_size=4, unique=True)):
        v_set, v_stop = draw(positive), draw(positive)
        poly = m.DevicePoly(*draw(st.lists(coeff, min_size=5, max_size=5)),
                            v_min=-v_set, v_max=v_stop)
        states.append(m.DeviceState(r, poly))
    return m.StateTable.from_states(states)


def state_bytes(state):
    return np.array([state.r_prog, state.v_set_mag, state.v_stop,
                     *state.poly.coefficients]).tobytes()


class TestDeviceProperties:
    @settings(max_examples=100, deadline=None)
    @given(coeffs=quintics(), v_lo=st.floats(0.5, 2.0),
           v_hi=st.floats(0.5, 3.0), n=st.integers(20, 80))
    def test_fit_recovers_quintic(self, coeffs, v_lo, v_hi, n):
        voltages = np.linspace(-v_lo, v_hi, n)
        voltages = voltages[voltages != 0.0]
        result = m.fit_poly(make_samples(coeffs, voltages), (-v_lo, v_hi))
        rel = np.abs(result.poly.coefficients - coeffs) / np.abs(coeffs)
        assert rel.max() < 1e-9
        assert result.n_samples == voltages.size

    @settings(max_examples=100, deadline=None)
    @given(table=state_tables(), k=st.integers(0, 3))
    def test_state_at_returns_rows_unchanged(self, table, k):
        row = table.states[k % len(table)]
        assert m.state_at(table, row.r_prog) is row

    @settings(max_examples=100, deadline=None)
    @given(table=state_tables(), frac=st.floats(1e-3, 0.999),
           below=st.booleans())
    def test_state_at_follows_inverse_r_outside_table(self, table, frac,
                                                      below):
        ref = table.states[0] if below else table.states[-1]
        r = ref.r_prog * frac if below else ref.r_prog / frac
        got = m.state_at(table, r)
        assert got.r_prog == r
        assert (got.v_set_mag, got.v_stop) == (ref.v_set_mag, ref.v_stop)
        want = ref.poly.coefficients * (ref.r_prog / r)
        assert got.poly.coefficients.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(table=state_tables(min_rows=2), k=st.integers(0, 2),
           frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_state_at_interpolates_every_field_between_rows(self, table, k,
                                                            frac):
        """Each of the seven polynomial fields, window included, is the
        per-field (1-w)*a + w*b bit for bit, and so are v_set_mag and
        v_stop."""
        k %= len(table) - 1
        a, b = table.states[k], table.states[k + 1]
        r = math.exp(math.log(a.r_prog)
                     + frac * (math.log(b.r_prog) - math.log(a.r_prog)))
        assume(a.r_prog < r < b.r_prog)
        w = (math.log(r) - math.log(a.r_prog)) / \
            (math.log(b.r_prog) - math.log(a.r_prog))
        got = m.state_at(table, r)
        want = [(1.0 - w) * x + w * y
                for x, y in zip(astuple(a.poly), astuple(b.poly))]
        assert got.r_prog == r
        assert (np.array(astuple(got.poly)).tobytes()
                == np.array(want).tobytes())
        window = [(1.0 - w) * a.v_set_mag + w * b.v_set_mag,
                  (1.0 - w) * a.v_stop + w * b.v_stop]
        assert (np.array([got.v_set_mag, got.v_stop]).tobytes()
                == np.array(window).tobytes())

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(finite, finite), max_size=30))
    def test_iv_csv_roundtrip_is_bit_exact(self, tmp_path_factory, pairs):
        path = tmp_path_factory.mktemp("iv") / "iv.csv"
        samples = np.array(pairs, dtype=float).reshape(-1, 2)
        m.save_iv_csv(path, samples)
        back = m.load_iv_csv(path)
        assert back.dtype == np.float64 and back.shape == (len(pairs), 2)
        assert back.tobytes() == samples.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(table=state_tables(coeff=finite))
    def test_state_table_csv_roundtrip_is_bit_exact(self, tmp_path_factory,
                                                    table):
        path = tmp_path_factory.mktemp("states") / "states.csv"
        m.save_state_table(path, table)
        back = m.load_state_table(path)
        assert back == table
        assert ([state_bytes(s) for s in back.states]
                == [state_bytes(s) for s in table.states])
