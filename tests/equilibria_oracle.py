"""Reference copy of ``circuit.find_equilibria`` as it stood before every
equilibrium's spectrum came from one stacked ``np.linalg.eigvals`` call: one
Jacobian, one ``eigvals`` call and one ``classify_stability`` call per point.
``design_checks`` keeps ``design_circuit``'s validation checks as they stood
then, with a second ``classify_stability`` call per point. The tests compare
``memchua.find_equilibria`` and ``memchua.design_circuit`` with them. Do not
edit the function bodies; they are the oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from memchua.circuit import (_ORIGIN_MERGE, _RESIDUAL_TOL, _ROOT_MERGE,
                             StateVector, _equilibrium_residual,
                             classify_stability, existence_condition,
                             jacobian, jacobian_trace, nonlinear_slope)


@dataclass(frozen=True)
class EquilibriumPoint:
    """An equilibrium with its spectrum. v2 is 0 and iL = -g*v1 exactly."""

    state: StateVector
    label: str
    eigenvalues: tuple
    stable: bool
    in_window: bool
    residual: float


def find_equilibria(params) -> list:
    d = params.device
    width = d.v_max - d.v_min
    lo = d.v_min - 0.1 * width
    hi = d.v_max + 0.1 * width
    quartic = [d.p5, d.p4, d.p3, d.p2, d.p1 + params.g - params.g_n]
    roots = [float(z.real) for z in np.roots(quartic)
             if z.imag == 0.0 and lo <= z.real <= hi]

    polished = []
    for v in roots:
        for _ in range(3):
            h = _equilibrium_residual(params, v)
            if abs(h) <= _RESIDUAL_TOL:
                break
            hp = nonlinear_slope(params, v) + params.g
            if hp == 0.0:
                break
            v = v - h / hp
        if abs(v) >= _ORIGIN_MERGE:
            polished.append(v)

    groups = []
    for v in sorted(polished):
        if (groups and (v > 0) == (groups[-1][-1] > 0)
                and v - groups[-1][-1] < _ROOT_MERGE * width):
            groups[-1].append(v)
        else:
            groups.append([v])

    def make_point(v, label):
        v = float(v)
        jac = jacobian(params, (v, 0.0, 0.0))
        if not np.isfinite(jac).all():
            raise ValueError(f"the Jacobian at v1={v!r} V is not finite: "
                             "the circuit's rates overflow")
        eigs = np.linalg.eigvals(jac)
        return EquilibriumPoint(
            state=StateVector(v, 0.0, -params.g * v),
            label=label,
            eigenvalues=tuple(complex(x) for x in eigs),
            stable=not classify_stability(eigs).unstable,
            in_window=bool(d.v_min <= v <= d.v_max),
            residual=float(abs(_equilibrium_residual(params, v))),
        )

    # min keeps the first of equal residuals, the lowest v1
    picked = [min(group, key=lambda u: abs(_equilibrium_residual(params, u)))
              for group in groups]
    points = [make_point(0.0, "P0")]
    for sign, side in (("-", [v for v in reversed(picked) if v < 0]),
                       ("+", [v for v in picked if v > 0])):
        for k, v in enumerate(side, 1):  # nearest the origin first
            points.append(make_point(v, f"P{sign}{k if k > 1 else ''}"))
    points.sort(key=lambda p: p.state.v1)
    return points


def design_checks(params, spec, eqs) -> list:
    """(name, passed, value) of each check design_circuit makes on the
    sized params and their equilibria `eqs`."""
    poly = params.device
    g, g_n = params.g, params.g_n
    checks = []
    checks.append(("existence", existence_condition(params),
                   poly.p1 - g_n + g))

    tr = jacobian_trace(params, 0.0)
    tr_tol = 1e-9 * (g / spec.c1)
    checks.append(("trace-zero", abs(tr) < tr_tol, tr))

    checks.append(("three-equilibria", len(eqs) == 3, float(len(eqs))))

    stabilities = [classify_stability(e) for e in eqs]
    checks.append((
        "all-unstable",
        bool(stabilities) and all(s.unstable for s in stabilities),
        min((s.max_real_part for s in stabilities), default=math.nan)))

    off = [e for e in eqs if e.label != "P0"]
    in_window = bool(off) and all(e.in_window for e in off)
    checks.append((
        "window", in_window,
        max((abs(e.state.v1) for e in off), default=math.nan)))
    return checks
