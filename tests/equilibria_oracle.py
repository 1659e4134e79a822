"""Reference copy of ``circuit.find_equilibria`` as it stood before every
equilibrium's spectrum came from one stacked ``np.linalg.eigvals`` call: one
Jacobian, one ``eigvals`` call and one ``classify_stability`` call per point.
``classify_stability`` is the per-spectrum verdict that the batch
``circuit._stability_verdicts`` replaced. ``design_checks`` keeps
``design_circuit``'s validation checks as they stood then, with a second
``classify_stability`` call per point. The tests compare
``memchua.find_equilibria``, its verdicts and ``memchua.design_circuit``
with them. Do not edit the function bodies; they are the oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from memchua.circuit import (_ORIGIN_MERGE, _RESIDUAL_TOL, _ROOT_MERGE,
                             StabilityVerdict, StateVector,
                             _equilibrium_residual, existence_condition,
                             jacobian, jacobian_trace, nonlinear_slope)


def classify_stability(eq_or_eigs) -> StabilityVerdict:
    """Instability check with tolerance 1e-9 relative to the spectral radius.

    Also flags the saddle-focus pattern: one real eigenvalue and a complex
    pair whose real parts have opposite signs.
    """
    eigs = np.asarray(getattr(eq_or_eigs, "eigenvalues", eq_or_eigs),
                      dtype=complex)
    radius = float(np.max(np.abs(eigs)))
    tol = 1e-9 * radius
    unstable = bool(np.any(eigs.real > tol))

    order = np.argsort(np.abs(eigs.imag))
    real_eig, pair_a, pair_b = eigs[order[0]], eigs[order[1]], eigs[order[2]]
    saddle_focus = (abs(real_eig.imag) <= tol
                    and abs(pair_a.imag) > tol
                    and abs(pair_b.imag) > tol
                    and abs(real_eig.real) > tol
                    and abs(pair_a.real) > tol
                    and (real_eig.real < 0) != (pair_a.real < 0))
    return StabilityVerdict(unstable=unstable, saddle_focus=saddle_focus,
                            max_real_part=float(np.max(eigs.real)))


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
