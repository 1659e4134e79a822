"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Criterion 5 exercises the bundled 1/R state family with the
default cycle-to-cycle variability model (sigma=0.1, default seed) that
the sweep configuration documents; without programming variability the low
end of this family stays weakly chaotic rather than periodic.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import memchua as m
from memchua import cli
from memchua.errors import LyapunovError

from conftest import lc_period

SPEC = m.DesignSpec(v_eq=0.9, c1=1e-8, alpha=10.0, beta=14.22)
NOMINAL = {"r": 7643.0, "r_n": 6856.0, "l": 0.410, "c2": 1e-7}
SWEEP_SIGMA = cli.CONFIG_TABLE["sweep"]["sigma"].default
SWEEP_SEED = cli.CONFIG_TABLE["sweep"]["seed"].default


def report(num, name, passed, detail):
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Compile the integration kernels outside the timed criteria."""
    state = m.reference_state()
    params = m.design_circuit(state, SPEC).params
    cfg = m.IntegrationConfig(t_end=1e-4, t_transient=0.0)
    m.integrate(params, (0.1, 0.0, 0.0), cfg)
    m.integrate_adaptive(params, (0.1, 0.0, 0.0), cfg)
    try:
        m.largest_lyapunov(params, (0.1, 0.0, 0.0), cfg)
    except LyapunovError:
        pass  # the horizon is shorter than one renormalization interval


@pytest.fixture(scope="module")
def designed():
    return m.design_circuit(m.reference_state(), SPEC)


def test_criterion_1_design_regression():
    t0 = time.perf_counter()
    rep = m.design_circuit(m.reference_state(), SPEC)
    elapsed = time.perf_counter() - t0
    ok = (abs(rep.r - NOMINAL["r"]) / NOMINAL["r"] < 0.01
          and abs(rep.r_n - NOMINAL["r_n"]) / NOMINAL["r_n"] < 0.01
          and abs(rep.params.l - NOMINAL["l"]) / NOMINAL["l"] < 0.01
          and rep.params.c2 == NOMINAL["c2"]
          and elapsed < 1.0)
    report(1, "design-regression", ok,
           f"R={rep.r:.1f} R_N={rep.r_n:.1f} L={rep.params.l:.4f} "
           f"C2={rep.params.c2:.1e}, {elapsed:.3f}s")


def test_criterion_2_equilibrium_reproduction(designed):
    t0 = time.perf_counter()
    eqs = {e.label: e for e in m.find_equilibria(designed.params)}
    elapsed = time.perf_counter() - t0
    v0 = eqs["P0"].state.v1
    vp = eqs["P+"].state.v1
    vn = eqs["P-"].state.v1
    ok = (abs(v0) <= 1e-9 and abs(vp - 0.900) <= 0.005
          and abs(vn - (-0.741)) <= 0.015 and elapsed < 1.0)
    report(2, "equilibria", ok,
           f"v1={{ {v0:.2e}, {vp:+.4f}, {vn:+.4f} }} V, {elapsed:.3f}s")


def test_criterion_3_instability_construction(designed):
    t0 = time.perf_counter()
    p = designed.params
    tr = m.jacobian_trace(p, 0.0)
    eqs = m.find_equilibria(p)
    unstable = all(e.verdict.unstable for e in eqs)
    elapsed = time.perf_counter() - t0
    ok = (abs(tr) < 1e-9 * (p.g / p.c1) and len(eqs) == 3 and unstable
          and elapsed < 1.0)
    report(3, "instability", ok,
           f"|trace|={abs(tr):.2e} vs {1e-9 * p.g / p.c1:.2e}, "
           f"{len(eqs)} equilibria all unstable={unstable}, {elapsed:.3f}s")


def test_criterion_4_double_scroll_property(designed):
    t0 = time.perf_counter()
    p = designed.params
    cfg = m.IntegrationConfig()  # 0.5 s horizon, 0.1 s transient
    traj = m.integrate(p, (0.1, 0.0, 0.0), cfg)
    lam = m.largest_lyapunov(p, (0.1, 0.0, 0.0), cfg)
    eqs = {e.label: e for e in m.find_equilibria(p)}

    radius = 0.27
    visits = {}
    for label in ("P+", "P-"):
        eq = eqs[label]
        dv1 = np.abs(traj.states[:, 0] - eq.state.v1)
        dv2 = np.abs(traj.states[:, 1])
        dil = np.abs(traj.states[:, 2] - eq.state.i_l) / p.g
        visits[label] = bool(np.any(np.maximum(dv1, np.maximum(dv2, dil))
                                    < radius))
    elapsed = time.perf_counter() - t0
    ok = (visits["P+"] and visits["P-"] and traj.events == ()
          and lam.dimensionless > 0.01 and elapsed < 30.0)
    report(4, "double-scroll", ok,
           f"visits={visits}, events={len(traj.events)}, "
           f"lambda1*tau={lam.dimensionless:.3f}, {elapsed:.1f}s")


def test_criterion_5_bifurcation_sweep():
    t0 = time.perf_counter()
    table = m.reference_table()
    ref_r = table.states[-1].r_prog
    points = m.sweep(table, SPEC, m.IntegrationConfig(), r_lo=0.3 * ref_r,
                     r_hi=1.5 * ref_r, n_points=32, mode="fixed",
                     sigma=SWEEP_SIGMA, seed=SWEEP_SEED)
    elapsed = time.perf_counter() - t0

    labels = [p.verdict.label for p in points]
    spans = [p.span for p in points]
    third = len(points) // 3
    low, high = labels[:third], labels[-third:]
    med_low = float(np.median(spans[:third]))
    med_high = float(np.median(spans[-third:]))
    ok = ("periodic" in low and "double_scroll" in high
          and med_low < med_high and elapsed < 600.0)
    report(5, "bifurcation-sweep", ok,
           f"low tercile: {low.count('periodic')} periodic, high tercile: "
           f"{high.count('double_scroll')} double-scroll, median span "
           f"{med_low:.2f}->{med_high:.2f} V, sigma={SWEEP_SIGMA}, "
           f"seed={SWEEP_SEED}, {elapsed:.1f}s")


def test_criterion_6_integrator_order():
    t0 = time.perf_counter()
    poly = m.DevicePoly(0, 0, 0, 0, 0, v_min=-10, v_max=10)
    lc = m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=0.0, g_n=0.0,
                         device=poly)
    T = lc_period(lc)
    w = 2.0 * math.pi / T

    def linf(n_per):
        cfg = m.IntegrationConfig(dt=T / n_per, t_end=T, t_transient=0.0,
                                  record_stride=1)
        traj = m.integrate(lc, (0.0, 1.0, 0.0), cfg)
        return np.abs(traj.states[:, 1] - np.cos(w * traj.times)).max()

    ratio = linf(200) / linf(400)

    cfg = m.IntegrationConfig(dt=T / 1000, t_end=100 * T, t_transient=0.0,
                              record_stride=10)
    traj = m.integrate(lc, (0.0, 1.0, 0.0), cfg)
    energy = 0.5 * lc.c2 * traj.states[:, 1] ** 2 \
        + 0.5 * lc.l * traj.states[:, 2] ** 2
    drift = np.abs(energy - 0.5 * lc.c2).max() / (0.5 * lc.c2)
    elapsed = time.perf_counter() - t0
    ok = 12.0 <= ratio <= 20.0 and drift < 1e-6 and elapsed < 10.0
    report(6, "integrator-order", ok,
           f"halving ratio={ratio:.2f}, energy drift={drift:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_7_lyapunov_oracle():
    t0 = time.perf_counter()
    poly = m.DevicePoly(0, 0, 0, 0, 0, v_min=-10, v_max=10)
    lin = m.CircuitParams(c1=1e-8, c2=1e-7, l=0.41, g=1.0 / 7643.0, g_n=0.0,
                          device=poly)
    eig = np.linalg.eigvals(m.jacobian(lin, (0.0, 0.0, 0.0))).real.max()
    cfg = m.IntegrationConfig(dt=1e-6, t_end=0.5, t_transient=0.05)
    lam = m.largest_lyapunov(lin, (0.05, 0.02, 0.0), cfg)
    elapsed = time.perf_counter() - t0
    rel = abs(lam.lambda1 - eig) / abs(eig)
    ok = rel < 0.05 and elapsed < 10.0
    report(7, "lyapunov-oracle", ok,
           f"lambda1={lam.lambda1:.2f} vs max Re eig={eig:.2f} "
           f"(rel err {rel:.3f}), {elapsed:.1f}s")


def test_criterion_8_fit_roundtrip():
    t0 = time.perf_counter()
    coeffs = np.array(m.REFERENCE_COEFFICIENTS)

    def current(v):
        return v * (coeffs[0] + v * (coeffs[1] + v * (coeffs[2]
                    + v * (coeffs[3] + v * coeffs[4]))))

    v50 = np.linspace(-0.9, 2.6, 50)
    v50 = v50[v50 != 0]
    clean = m.fit_poly(list(zip(v50, current(v50))), (-0.9, 2.6))
    rel_clean = float(np.max(np.abs(clean.poly.coefficients - coeffs)
                             / np.abs(coeffs)))

    rng = np.random.default_rng(0)
    v200 = np.linspace(-1.08, 2.6, 200)
    v200 = v200[v200 != 0]
    noisy_i = current(v200) * (1 + 0.01 * rng.standard_normal(v200.size))
    noisy = m.fit_poly(list(zip(v200, noisy_i)), (-1.08, 2.6))
    rel_p3 = abs(noisy.poly.p3 - coeffs[2]) / coeffs[2]
    elapsed = time.perf_counter() - t0
    ok = rel_clean < 1e-8 and rel_p3 < 0.05 and elapsed < 1.0
    report(8, "fit-roundtrip", ok,
           f"noiseless max rel err={rel_clean:.1e}, noisy p3 rel "
           f"err={rel_p3:.3f}, {elapsed:.3f}s")


def test_criterion_9_sweep_determinism(tmp_path):
    import yaml
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "schema": 1,
        "integration": {"t_end": 0.2, "t_transient": 0.05},
        "sweep": {"n_points": 8, "workers": 1},
    }), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    t0 = time.perf_counter()
    rc_a = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out_a)])
    rc_b = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out_b)])
    elapsed = time.perf_counter() - t0
    bytes_a = (out_a / "bifurcation.csv").read_bytes()
    bytes_b = (out_b / "bifurcation.csv").read_bytes()
    ok = rc_a == 0 and rc_b == 0 and bytes_a == bytes_b and len(bytes_a) > 100
    report(9, "sweep-determinism", ok,
           f"{len(bytes_a)} bytes, identical={bytes_a == bytes_b}, "
           f"{elapsed:.1f}s")
