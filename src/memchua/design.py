"""Component sizing from a programmed device state.

Given a target equilibrium voltage v_eq, the seed capacitance c1 and the
dimensionless pair (alpha, beta), the procedure fixes

    g   = alpha * (i_dev(v_eq)/v_eq - p1)          # places P+/- at +-v_eq
    c2  = alpha * c1
    l   = c2 / (beta * g * g)
    g_n = g + (c1/c2) * g + p1                     # zeroes the trace at P0

and then validates the result: existence of the off-origin equilibria,
zero Jacobian trace at the origin, three equilibria found, all unstable,
and both off-origin voltages inside the device safe window.
"""

import math
from dataclasses import dataclass, field

from .circuit import (CircuitParams, existence_condition, find_equilibria,
                      jacobian_trace)
from .device import DeviceState, eval_current
from .errors import DesignError


@dataclass(frozen=True)
class DesignSpec:
    """Target equilibrium voltage (V), seed capacitance (F) and the
    dimensionless regime parameters; the defaults size the reference
    double-scroll design."""

    v_eq: float = 0.9
    c1: float = 1e-8
    alpha: float = 10.0
    beta: float = 14.22

    def __post_init__(self):
        if not all(0 < v < math.inf
                   for v in (self.v_eq, self.c1, self.alpha, self.beta)):
            raise ValueError(
                "v_eq, c1, alpha and beta must all be finite and positive")


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
    caller solves for them again; left out of ==). The resistances r and
    r_n (ohms) are read from the conductances of `params`."""

    params: CircuitParams
    checks: tuple
    equilibria: tuple = field(compare=False)

    @property
    def r(self) -> float:
        return 1.0 / self.params.g

    @property
    def r_n(self) -> float:
        return 1.0 / self.params.g_n

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


def design_circuit(state: DeviceState, spec: DesignSpec) -> DesignReport:
    """Full sizing chain plus validation checks.

    Raises DesignError for the two hard preconditions (v_eq outside the
    safe window; a device linear at v_eq, whose mean slope there does not
    exceed p1, so that no load places the equilibria) and for sized
    components that no circuit can have, a converter conductance g_n
    without a finite 1/g_n among them. Validation failures do not raise: they are returned as failed
    checks so callers can report which one broke.
    """
    if spec.v_eq >= state.v_set_mag:
        raise DesignError(
            "safe-window",
            f"v_eq={spec.v_eq} V must stay below the switching threshold "
            f"magnitude {state.v_set_mag} V")

    poly = state.poly
    excess = eval_current(poly, spec.v_eq) / spec.v_eq - poly.p1
    g = spec.alpha * excess
    if g <= 0:
        raise DesignError(
            "infeasible-G",
            f"device mean slope excess {excess:.3e} S at v_eq={spec.v_eq} V "
            "is nonpositive")
    try:
        c2 = spec.alpha * spec.c1
        l = c2 / (spec.beta * g * g)
        g_n = g + (spec.c1 / c2) * g + poly.p1
        if g_n == 0.0 or not math.isfinite(1.0 / g_n):
            raise DesignError("component-range",
                              f"the converter conductance g_n={g_n!r} S has "
                              "no finite resistance 1/g_n")
        params = CircuitParams(c1=spec.c1, c2=c2, l=l, g=g, g_n=g_n,
                               device=poly)
        eqs = find_equilibria(params)
    except ZeroDivisionError as exc:
        # a tiny g underflows g * g to 0, or a tiny alpha * c1 c2
        raise DesignError("component-range",
                          f"a sized component underflows to 0 (g={g!r} S, "
                          f"c1={spec.c1!r} F)") from exc
    except ValueError as exc:
        # a huge coefficient overflows g * g and leaves l = 0; a tiny l or
        # c1 overflows a rate of the Jacobian
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

    checks.append(DesignCheck(
        "three-equilibria", len(eqs) == 3, value=float(len(eqs)),
        note="origin plus both off-origin points"))

    checks.append(DesignCheck(
        "all-unstable",
        bool(eqs) and all(e.verdict.unstable for e in eqs),
        value=min((e.verdict.max_real_part for e in eqs), default=math.nan),
        note="min over equilibria of max Re(eigenvalue)"))

    off = [e for e in eqs if e.label != "P0"]
    in_window = bool(off) and all(e.in_window for e in off)
    checks.append(DesignCheck(
        "window", in_window,
        value=max((abs(e.state.v1) for e in off), default=math.nan),
        note=f"off-origin equilibria inside [{poly.v_min}, {poly.v_max}] V"))

    return DesignReport(params=params, checks=tuple(checks),
                        equilibria=tuple(eqs))
