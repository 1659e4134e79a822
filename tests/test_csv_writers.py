"""The CSV writers against their csv.writer versions in tests/csv_oracle.py:
the same bytes for any rows, values and labels the package can write."""

import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memchua as m
from memchua import analysis, device
from memchua.integrate import _KIND_NAMES

import csv_oracle

# where repr switches between fixed and scientific notation (exponents 16
# and -5), the extremes of the double range, and the values without digits
EDGES = [1e16, 1e-4, 1e-5, 5e-324, -5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, 0.0, -0.0, math.inf, -math.inf, math.nan]
EDGES += [float(np.nextafter(x, d)) for x in (1e16, 1e-4, 1e-5)
          for d in (0.0, math.inf)]
EDGES += [-x for x in EDGES]

# any 64-bit pattern: subnormals, both zeros, both infinities and NaNs with
# any sign and payload turn up as often as their share of the patterns
bit_doubles = st.integers(0, 2**64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
doubles = st.one_of(bit_doubles, st.sampled_from(EDGES), st.floats())
finite_doubles = doubles.filter(math.isfinite)
positive_doubles = finite_doubles.map(abs).filter(lambda x: x > 0)
# integers, which the writers write as the floats they convert to
int64s = st.integers(-2**63, 2**63 - 1)
# a numpy scalar of either width, a Python float or a Python int
scalars = st.one_of(
    doubles, doubles.map(np.float64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.integers(-2**70, 2**70))


@st.composite
def arrays(draw, n=None):
    """A float64 array of any doubles, or an int64 array, of n values or
    of 0 to 8."""
    size = {"max_size": 8} if n is None else {"min_size": n, "max_size": n}
    if draw(st.booleans()):
        return np.array(draw(st.lists(int64s, **size)), dtype=np.int64)
    return np.array(draw(st.lists(doubles, **size)), dtype=float)

KINDS = sorted(_KIND_NAMES.values())
LABELS = [analysis.Label.FIXED_POINT, analysis.Label.PERIODIC,
          analysis.Label.SINGLE_SCROLL, analysis.Label.DOUBLE_SCROLL,
          analysis.Label.DIVERGED, analysis.Label.INCONCLUSIVE]


def same_bytes(tmp_path_factory, new, old, obj):
    """Write `obj` with the package's writer and the oracle's, and return
    whether the two files hold the same bytes."""
    d = tmp_path_factory.mktemp("csv")
    new(d / "new.csv", obj)
    old(d / "old.csv", obj)
    return (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


@st.composite
def trajectories(draw, max_rows=40):
    """0 to max_rows samples of arbitrary doubles or integers, and 0 to 6
    events of every kind."""
    n = draw(st.integers(0, max_rows))
    values = draw(arrays(4 * n))
    events = tuple(
        m.Event(t, kind, v)
        for t, kind, v in draw(st.lists(
            st.tuples(doubles, st.sampled_from(KINDS), doubles),
            max_size=6)))
    return m.Trajectory(times=values[:n], states=values[n:].reshape(n, 3),
                        events=events, status=0)


@st.composite
def sweep_points(draw):
    """0 to 5 points, each with 0 to 8 extrema, doubles or integers, and
    any label."""
    points = []
    for _ in range(draw(st.integers(0, 5))):
        extrema = draw(arrays())
        verdict = analysis.TrajectoryClass(
            draw(st.sampled_from(LABELS)), analysis.Side.NONE, None, 0)
        points.append(analysis.SweepPoint(
            draw(scalars), extrema, verdict, seed=0, soa=False))
    return points


@st.composite
def state_lists(draw):
    """0 to 4 states of any finite values the device types accept."""
    states = []
    for _ in range(draw(st.integers(0, 4))):
        r = draw(st.one_of(
            positive_doubles, positive_doubles.map(np.float64),
            st.floats(2.0**-100, 2.0**100, width=32).map(np.float32)))
        v_set, v_stop = draw(positive_doubles), draw(positive_doubles)
        coeffs = draw(st.lists(finite_doubles, min_size=5, max_size=5))
        poly = m.DevicePoly(*coeffs, v_min=-v_set, v_max=v_stop)
        states.append(m.DeviceState(r, poly))
    return states


class TestWritersMatchCsvModule:
    @settings(max_examples=100, deadline=None)
    @given(traj=trajectories())
    def test_trajectory(self, tmp_path_factory, traj):
        assert same_bytes(tmp_path_factory, m.write_trajectory_csv,
                          csv_oracle.write_trajectory_csv, traj)

    @settings(max_examples=100, deadline=None)
    @given(traj=trajectories(max_rows=0))
    def test_events(self, tmp_path_factory, traj):
        assert same_bytes(tmp_path_factory, m.write_events_csv,
                          csv_oracle.write_events_csv, traj)

    @settings(max_examples=100, deadline=None)
    @given(points=sweep_points())
    def test_bifurcation(self, tmp_path_factory, points):
        assert same_bytes(tmp_path_factory, m.write_bifurcation_csv,
                          csv_oracle.write_bifurcation_csv, points)

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(st.tuples(scalars, scalars), max_size=30))
    def test_iv(self, tmp_path_factory, samples):
        samples = [m.IVSample(v, i) for v, i in samples]
        assert same_bytes(tmp_path_factory, m.save_iv_csv,
                          csv_oracle.save_iv_csv, samples)

    @settings(max_examples=100, deadline=None)
    @given(states=state_lists())
    def test_state_table(self, tmp_path_factory, states):
        assert same_bytes(tmp_path_factory, m.save_state_table,
                          csv_oracle.save_state_table, states)

    def test_kernel_trajectory_and_sweep(self, tmp_path_factory, ref_state,
                                         spec):
        """Many rows of real output: an rk45 run that crosses the window,
        and a short sweep with its extrema."""
        params = m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=1.0 / 7643.0,
                                 g_n=1.0 / 685.6, device=ref_state.poly)
        icfg = m.IntegrationConfig(t_end=0.01, t_transient=0.0,
                                   record_stride=1)
        traj = m.integrate_adaptive(params, (0.1, 0.0, 0.0), icfg)
        assert len(traj.times) > 100 and traj.events
        assert same_bytes(tmp_path_factory, m.write_trajectory_csv,
                          csv_oracle.write_trajectory_csv, traj)
        assert same_bytes(tmp_path_factory, m.write_events_csv,
                          csv_oracle.write_events_csv, traj)

        points = m.sweep(m.StateTable((ref_state,)), spec,
                         m.IntegrationConfig(t_end=0.02, t_transient=0.005),
                         0.5 * ref_state.r_prog, 1.2 * ref_state.r_prog, 3,
                         sigma=0.1, seed=3)
        assert sum(p.extrema.size for p in points) > 10
        assert same_bytes(tmp_path_factory, m.write_bifurcation_csv,
                          csv_oracle.write_bifurcation_csv, points)


def random_trajectory(n, seed=0):
    """n samples of random 64-bit patterns."""
    bits = np.random.default_rng(seed).integers(
        0, 2**64, size=4 * n, dtype=np.uint64)
    values = bits.view(np.float64)
    return m.Trajectory(times=values[:n], states=values[n:].reshape(n, 3),
                        events=(), status=0)


class TestChunkedWrites:
    """write_csv formats and writes _CSV_CHUNK_ROWS rows at a time."""

    def test_rows_across_chunk_boundaries(self, tmp_path_factory):
        n = 5 * device._CSV_CHUNK_ROWS // 2
        assert same_bytes(tmp_path_factory, m.write_trajectory_csv,
                          csv_oracle.write_trajectory_csv,
                          random_trajectory(n))

    @settings(max_examples=50, deadline=None)
    @given(traj=trajectories(), points=sweep_points(),
           chunk=st.integers(1, 4))
    def test_any_chunk_size(self, tmp_path_factory, traj, points, chunk):
        with mock.patch.object(device, "_CSV_CHUNK_ROWS", chunk):
            assert same_bytes(tmp_path_factory, m.write_trajectory_csv,
                              csv_oracle.write_trajectory_csv, traj)
            assert same_bytes(tmp_path_factory, m.write_bifurcation_csv,
                              csv_oracle.write_bifurcation_csv, points)

    def test_memory_does_not_grow_with_rows(self, tmp_path, monkeypatch):
        """Writing eight chunks of rows takes no more memory than writing
        one: a writer that formats the whole file before writing it would
        take about eight times as much."""
        monkeypatch.setattr(device, "_CSV_CHUNK_ROWS", 2000)

        def peak_bytes(n):
            traj = random_trajectory(n)
            tracemalloc.start()
            try:
                m.write_trajectory_csv(tmp_path / f"{n}.csv", traj)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, eight = peak_bytes(2000), peak_bytes(16000)
        assert eight < 1.5 * one, (one, eight)


def test_unequal_columns_are_refused(tmp_path):
    # 5 times and 3 state rows once wrote 3 rows and no error
    traj = random_trajectory(5)
    short = m.Trajectory(times=traj.times, states=traj.states[:3], events=(),
                         status=0)
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError,
                       match=r"columns differ in length: \[5, 3, 3, 3\]"):
        m.write_trajectory_csv(path, short)
    assert not path.exists()
