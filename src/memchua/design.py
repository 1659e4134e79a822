"""Component sizing from a programmed device state.

Given a target equilibrium voltage v_eq, the seed capacitance c1 and the
dimensionless pair (alpha, beta), the procedure fixes

    g   = alpha * (i_dev(v_eq)/v_eq - p1)          # places P+/- at +-v_eq
    c2  = alpha * c1
    l   = c2 / (beta * g^2)
    g_n = g + (c1/c2) * g + p1                     # zeroes the trace at P0

and then validates the result: existence of the off-origin equilibria,
zero Jacobian trace at the origin, three equilibria found, all unstable,
and both off-origin voltages inside the device safe window.
"""

import math
from dataclasses import dataclass, field

from .circuit import (CircuitParams, classify_stability, existence_condition,
                      find_equilibria, jacobian_trace)
from .device import DevicePoly, DeviceState, eval_current
from .errors import DesignError


@dataclass(frozen=True)
class DesignSpec:
    """Target equilibrium voltage (V), seed capacitance (F) and the
    dimensionless regime parameters."""

    v_eq: float
    c1: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.v_eq > 0 and self.c1 > 0 and self.alpha > 0 and self.beta > 0):
            raise ValueError("v_eq, c1, alpha and beta must all be positive")


@dataclass(frozen=True)
class DesignCheck:
    name: str
    passed: bool
    value: float
    note: str = ""


@dataclass(frozen=True)
class DesignReport:
    """The sized circuit, its validation checks, and the equilibria that
    the checks were computed from (find_equilibria's points, kept so no
    caller solves for them again; left out of ==)."""

    params: CircuitParams
    r: float
    r_n: float
    checks: tuple
    equilibria: tuple = field(compare=False)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self):
        return [c for c in self.checks if not c.passed]

    def require_ok(self) -> "DesignReport":
        """This report, or DesignError naming every failed check."""
        if not self.ok:
            raise DesignError(", ".join(c.name for c in self.failing()),
                              "the design fails its validation checks")
        return self


def design_g(poly: DevicePoly, spec: DesignSpec) -> float:
    """Load conductance from the equilibrium placement rule.

    Uses the device current at v_eq; the excess of its mean slope over p1
    must be positive, otherwise the device is effectively linear there and
    no load can place the equilibria.
    """
    excess = eval_current(poly, spec.v_eq) / spec.v_eq - poly.p1
    g = spec.alpha * excess
    if g <= 0:
        raise DesignError(
            "infeasible-G",
            f"device mean slope excess {excess:.3e} S at v_eq={spec.v_eq} V "
            "is nonpositive")
    return g


def design_gn(g: float, c1: float, c2: float, p1: float) -> float:
    """Negative-converter conductance that zeroes the origin trace."""
    return g + (c1 / c2) * g + p1


def design_reactive(c1: float, g: float, spec: DesignSpec):
    """(c2, l) from the dimensionless regime parameters."""
    c2 = spec.alpha * c1
    l = c2 / (spec.beta * g * g)
    return c2, l


def design_circuit(state: DeviceState, spec: DesignSpec) -> DesignReport:
    """Full sizing chain plus validation checks.

    Raises DesignError for the two hard preconditions (v_eq outside the
    safe window; linear device) and for sized components that no circuit
    can have. Validation failures do not raise: they are
    returned as failed checks so callers can report which one broke.
    """
    if spec.v_eq >= state.v_set_mag:
        raise DesignError(
            "safe-window",
            f"v_eq={spec.v_eq} V must stay below the switching threshold "
            f"magnitude {state.v_set_mag} V")

    poly = state.poly
    g = design_g(poly, spec)
    c2, l = design_reactive(spec.c1, g, spec)
    g_n = design_gn(g, spec.c1, c2, poly.p1)
    try:
        params = CircuitParams(c1=spec.c1, c2=c2, l=l, g=g, g_n=g_n,
                               device=poly)
    except ValueError as exc:
        # a huge coefficient overflows g * g and leaves l = 0
        raise DesignError("component-range", str(exc)) from exc

    checks = []
    checks.append(DesignCheck(
        "existence", existence_condition(params),
        value=poly.p1 - g_n + g,
        note="p1 - g_n < -g"))

    tr = jacobian_trace(params, 0.0)
    tr_tol = 1e-9 * (g / spec.c1)
    checks.append(DesignCheck(
        "trace-zero", abs(tr) < tr_tol, value=tr,
        note=f"|trace at origin| < {tr_tol:.3e}"))

    eqs = find_equilibria(params)
    checks.append(DesignCheck(
        "three-equilibria", len(eqs) == 3, value=float(len(eqs)),
        note="origin plus both off-origin points"))

    stabilities = [classify_stability(e) for e in eqs]
    checks.append(DesignCheck(
        "all-unstable",
        bool(stabilities) and all(s.unstable for s in stabilities),
        value=min((s.max_real_part for s in stabilities), default=math.nan),
        note="min over equilibria of max Re(eigenvalue)"))

    off = [e for e in eqs if e.label != "P0"]
    in_window = bool(off) and all(e.in_window for e in off)
    checks.append(DesignCheck(
        "window", in_window,
        value=max((abs(e.state.v1) for e in off), default=math.nan),
        note=f"off-origin equilibria inside [{poly.v_min}, {poly.v_max}] V"))

    return DesignReport(params=params, r=1.0 / g, r_n=1.0 / g_n,
                        checks=tuple(checks), equilibria=tuple(eqs))
