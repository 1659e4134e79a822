"""Static memristor model: quintic I-V characteristic, fitting, state family.

The device is modeled as a polynomial current i(v) = p1*v + ... + p5*v^5
with no constant term (a passive two-terminal device carries no current at
zero bias), valid on a voltage window bounded below by the negative-polarity
switching threshold and above by the programming sweep maximum. A family of
programmed high-resistance states is represented by a table of such
polynomials indexed by the low-voltage resistance r_prog; between table rows
coefficients interpolate linearly in log(r_prog), outside the table they
follow the single-reference 1/R scaling law.
"""

import csv
import math
from dataclasses import astuple, dataclass, fields
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FitError, InputFormatError

IV_HEADER = ["voltage_V", "current_A"]
STATE_HEADER = ["r_prog_ohm", "v_set_V", "v_stop_V", "p1", "p2", "p3", "p4", "p5"]
R_PROBE_V = 0.1  # V; a state's r_prog is v/i at this voltage

# rows formatted per write in write_csv: about 6 MB of strings for four
# float columns, whatever the row count
_CSV_CHUNK_ROWS = 16384


class IVSample(NamedTuple):
    """One measured point of the static I-V curve (volts, amps)."""

    v: float
    i: float


@dataclass(frozen=True)
class DevicePoly:
    """Quintic current polynomial plus its validity window.

    p1 is a conductance (S); p2..p5 carry A/V^2 .. A/V^5. The window is
    [v_min, v_max] with v_min < 0 < v_max; evaluation outside the window is
    permitted (window enforcement is the integrator's job). Every field is
    stored as a Python float: numpy scalars would reach the pure-Python
    kernels and slow each of their operations several-fold.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    p5: float
    v_min: float
    v_max: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        vals = (self.p1, self.p2, self.p3, self.p4, self.p5,
                self.v_min, self.v_max)
        if not all(math.isfinite(x) for x in vals):
            raise ValueError("DevicePoly fields must be finite")
        if not (self.v_min < 0.0 < self.v_max):
            raise ValueError(
                f"window must straddle zero: v_min={self.v_min}, v_max={self.v_max}")

    @property
    def coefficients(self):
        return np.array([self.p1, self.p2, self.p3, self.p4, self.p5])

    def scaled(self, factor):
        """New polynomial with every coefficient multiplied by `factor`."""
        return DevicePoly(self.p1 * factor, self.p2 * factor, self.p3 * factor,
                          self.p4 * factor, self.p5 * factor,
                          self.v_min, self.v_max)


@dataclass(frozen=True)
class DeviceState:
    """A programmed high-resistance state.

    r_prog is the resistance v/i at R_PROBE_V, 0.1 V (ohms). The state's
    window is its polynomial's, [-v_set_mag, v_stop]: v_set_mag is the
    magnitude of the negative switching threshold, v_stop the maximum
    programming sweep voltage.
    """

    r_prog: float
    poly: DevicePoly

    def __post_init__(self):
        if not 0 < self.r_prog < math.inf:
            raise ValueError(f"r_prog must be finite and > 0, got {self.r_prog}")

    @property
    def v_set_mag(self) -> float:
        return -self.poly.v_min

    @property
    def v_stop(self) -> float:
        return self.poly.v_max


@dataclass(frozen=True)
class StateTable:
    """Programmed states sorted by strictly increasing r_prog."""

    states: tuple

    def __post_init__(self):
        if len(self.states) == 0:
            raise ValueError("state table must hold at least one entry")
        r = [s.r_prog for s in self.states]
        if any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError("r_prog values must be strictly increasing")

    @classmethod
    def from_states(cls, states: Sequence[DeviceState]):
        return cls(tuple(sorted(states, key=lambda s: s.r_prog)))

    def __len__(self):
        return len(self.states)


@dataclass(frozen=True)
class FitResult:
    """Fitted polynomial plus residual statistics."""

    poly: DevicePoly
    rms_residual: float
    max_residual: float
    condition: float
    n_samples: int


def eval_current(poly: DevicePoly, v):
    """Device current at voltage v (Horner form; accepts scalars or arrays)."""
    return v * (poly.p1 + v * (poly.p2 + v * (poly.p3 + v * (poly.p4 + v * poly.p5))))


def eval_differential_conductance(poly: DevicePoly, v):
    """di/dv at voltage v."""
    return (poly.p1 + v * (2.0 * poly.p2 + v * (3.0 * poly.p3
            + v * (4.0 * poly.p4 + v * 5.0 * poly.p5))))


def fit_poly(samples: Sequence[IVSample], window) -> FitResult:
    """Least-squares quintic fit without intercept over the given window.

    Only samples with v inside [window[0], window[1]] participate. Requires
    at least five distinct nonzero voltages among them; raises FitError
    otherwise, when the design matrix is numerically rank deficient or
    past the float range, or when a residual overflows.
    """
    v_lo, v_hi = float(window[0]), float(window[1])
    arr = np.fromiter(chain.from_iterable(map(itemgetter(0, 1), samples)),
                      dtype=float, count=2 * len(samples)).reshape(-1, 2)
    if arr.size == 0:
        raise FitError("no samples supplied")
    if not np.isfinite(arr).all():
        raise FitError("samples contain non-finite values")
    mask = (arr[:, 0] >= v_lo) & (arr[:, 0] <= v_hi)
    v = arr[mask, 0]
    i = arr[mask, 1]
    distinct = np.unique(v[v != 0.0])
    if distinct.size < 5:
        raise FitError(
            f"underdetermined: {distinct.size} distinct nonzero voltages in "
            f"window, need at least 5")

    with np.errstate(over="ignore"):
        basis = np.column_stack([v, v**2, v**3, v**4, v**5])
    if not np.isfinite(basis).all():
        raise FitError(f"voltages up to {float(np.max(np.abs(v)))!r} V "
                       "overflow the quintic basis")
    try:
        coef, _, rank, sv = np.linalg.lstsq(basis, i, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"least squares failed: {exc}") from exc
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if rank < 5:
        raise FitError(
            f"singular normal system: rank {rank} < 5, condition {condition:.3e}")

    with np.errstate(over="ignore", invalid="ignore"):
        res = i - basis @ coef
        rms = float(np.sqrt(np.mean(res**2)))
        worst = float(np.max(np.abs(res))) if res.size else 0.0
    if not (math.isfinite(rms) and math.isfinite(worst)):
        raise FitError(f"residuals overflow: rms {rms!r} A, max {worst!r} A")
    poly = DevicePoly(*coef, v_min=v_lo, v_max=v_hi)
    return FitResult(poly=poly, rms_residual=rms, max_residual=worst,
                     condition=condition, n_samples=int(v.size))


def resistance_at_low_bias(poly: DevicePoly) -> float:
    """Resistance v/i at R_PROBE_V, the r_prog measurement convention;
    FitError unless it is positive and finite."""
    i = eval_current(poly, R_PROBE_V)
    if i <= 0:
        raise FitError(f"nonpositive current {i:.3e} A at {R_PROBE_V} V probe")
    if R_PROBE_V / i == math.inf:
        raise FitError(f"v/i overflows: {i:.3e} A at {R_PROBE_V} V probe")
    return R_PROBE_V / i


def state_at(table: StateTable, r_prog: float) -> DeviceState:
    """Programmed state at the requested resistance.

    Exact table rows are returned unchanged. Between rows, the seven
    fields of the polynomial (coefficients and window) interpolate
    linearly in log(r_prog). Outside the table range the single nearest
    row is scaled by r_ref/r_prog (the 1/R law) and keeps that row's
    window.
    """
    if not (r_prog > 0 and math.isfinite(r_prog)):
        raise ValueError(f"r_prog must be positive and finite, got {r_prog}")
    states = table.states
    for s in states:
        if s.r_prog == r_prog:
            return s

    if states[0].r_prog < r_prog < states[-1].r_prog:
        hi = next(k for k, s in enumerate(states) if s.r_prog > r_prog)
        a, b = states[hi - 1], states[hi]
        w = (math.log(r_prog) - math.log(a.r_prog)) / \
            (math.log(b.r_prog) - math.log(a.r_prog))
        fa, fb = (np.array(astuple(s.poly)) for s in (a, b))
        return DeviceState(r_prog, DevicePoly(*((1.0 - w) * fa + w * fb)))

    ref = states[0] if r_prog < states[0].r_prog else states[-1]
    return DeviceState(r_prog, ref.poly.scaled(ref.r_prog / r_prog))


# Bundled characterization of the high-resistance state used by the default
# design: fitted quintic coefficients, switching threshold magnitude and
# programming sweep maximum.
REFERENCE_COEFFICIENTS = (1.91e-6, 3.11e-7, 1.91e-5, -5.20e-6, 1.77e-6)
REFERENCE_V_SET = 1.2
REFERENCE_V_STOP = 2.6


def reference_state() -> DeviceState:
    """The bundled reference device state (anchor of the default 1/R family)."""
    poly = DevicePoly(*REFERENCE_COEFFICIENTS,
                      v_min=-REFERENCE_V_SET, v_max=REFERENCE_V_STOP)
    return DeviceState(resistance_at_low_bias(poly), poly)


def reference_table() -> StateTable:
    """Single-row table anchored at the reference state."""
    return StateTable((reference_state(),))


def _csv_rows(path, header):
    """(line number, row) for each non-blank row of the UTF-8 CSV at
    `path`, whose first line must be `header` and whose every row has one
    cell per header column; anything else raises InputFormatError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found is None or [h.strip() for h in found] != header:
                raise InputFormatError(
                    f"expected header {','.join(header)}", line=1)
            for ln, row in enumerate(reader, start=2):
                if not "".join(row).strip():
                    continue
                if len(row) != len(header):
                    raise InputFormatError(
                        f"expected {len(header)} columns, got {len(row)}",
                        line=ln)
                yield ln, row
    except UnicodeDecodeError as exc:
        raise InputFormatError(
            f"{path} is not UTF-8 text ({exc.reason})") from exc


def load_iv_csv(path) -> list:
    """Read I-V samples from a `voltage_V,current_A` CSV."""
    samples = []
    for ln, row in _csv_rows(path, IV_HEADER):
        try:
            samples.append(IVSample(float(row[0]), float(row[1])))
        except ValueError as exc:
            raise InputFormatError(str(exc), line=ln) from exc
    return samples


def write_csv(path, header, columns):
    """Write `columns`, sequences of equal length, under `header` as a CSV.

    The bytes are the ones csv.writer writes for the same rows: a column
    of numbers is written as the `repr` of Python floats (the shortest
    string that reads back bit for bit; nan, inf and -0.0 included, an
    integer as 3.0), a column of strings as it is, and lines end with
    \\r\\n. Nothing is quoted, which holds because a float's repr never
    holds a comma, a quote or a line break, and the string columns hold
    fixed identifiers without any. Rows are formatted and written
    _CSV_CHUNK_ROWS at a time, so memory use does not grow with the file.
    Columns of unequal length raise ValueError before the file is opened.
    """
    cols = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in cols]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    n = lengths[0] if lengths else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, n, _CSV_CHUNK_ROWS):
            chunk = [c[i:i + _CSV_CHUNK_ROWS] for c in cols]
            fields = [c.tolist() if c.dtype.kind == "U"
                      else map(repr, c.astype(float, copy=False).tolist())
                      for c in chunk]
            fh.write("".join([",".join(row) + "\r\n"
                              for row in zip(*fields)]))


def save_iv_csv(path, samples):
    """Write I-V samples as a `voltage_V,current_A` CSV, in write_csv's
    bytes, so each value reads back bit for bit."""
    values = np.array([(s[0], s[1]) for s in samples], dtype=float)
    write_csv(path, IV_HEADER, values.reshape(-1, 2).T)


def load_state_table(path) -> StateTable:
    """Read a state table from its CSV schema (rows sorted on load)."""
    states = []
    for ln, row in _csv_rows(path, STATE_HEADER):
        try:
            r, v_set, v_stop = (float(x) for x in row[:3])
            coef = [float(x) for x in row[3:]]
            states.append(DeviceState(
                r, DevicePoly(*coef, v_min=-v_set, v_max=v_stop)))
        except ValueError as exc:
            raise InputFormatError(str(exc), line=ln) from exc
    if not states:
        raise InputFormatError("state table holds no rows", line=2)
    try:
        return StateTable.from_states(states)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def save_state_table(path, table):
    """Write a StateTable, or a sequence of states, in its CSV schema and
    in write_csv's bytes."""
    states = table.states if isinstance(table, StateTable) else list(table)
    values = np.array([(s.r_prog, s.v_set_mag, s.v_stop, *s.poly.coefficients)
                       for s in states], dtype=float)
    write_csv(path, STATE_HEADER, values.reshape(-1, len(STATE_HEADER)).T)
