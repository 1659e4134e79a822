"""Command-line pipeline: fit, design, equilibria, simulate, sweep.

One YAML configuration file (versioned via its `schema` field) drives
everything; every threshold and default can be overridden there, and a few
common knobs (--out, --seed, --mode, --workers) on the command line. All
outputs are plain CSV/JSON so any plotting tool can consume them.

Exit codes are a stable contract:
    0 success, 2 input parse error, 3 fit failure, 4 design failure,
    5 runtime failure (divergence, window abort, stiffness).
"""

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import yaml

from .analysis import (AnalysisConfig, classify, largest_lyapunov, sweep,
                       trajectory_and_lyapunov, write_bifurcation_csv)
from .circuit import CircuitParams, find_equilibria
from .design import DesignSpec, design_circuit
from .device import (DevicePoly, DeviceState, StateTable, fit_poly,
                     load_iv_csv, load_state_table, reference_table,
                     resistance_at_low_bias, save_state_table, state_at)
from .errors import (DesignError, FitError, InputFormatError,
                     IntegrationError, LyapunovError, MemChuaError)
from .integrate import (IntegrationConfig, integrate_adaptive, rk4_call,
                        write_events_csv, write_trajectory_csv)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FIT = 3
EXIT_DESIGN = 4
EXIT_RUNTIME = 5

CONFIG_ENV_VAR = "MEMCHUA_CONFIG"
SCHEMA_VERSION = 1

# libyaml's loader where PyYAML was built with it; both use the same safe
# constructor and resolver, so they yield the same values
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

REQUIRED = object()  # no default: a block that is given must set the key


class Key(NamedTuple):
    kind: type  # float, int, str, or list: a list of floats
    default: object = REQUIRED  # None: the key may be null, meaning unset
    check: tuple = None  # (predicate, what the value must be), if any


_FINITE_POSITIVE = (lambda v: 0 < v < math.inf, "be finite and > 0")
_FINITE = (math.isfinite, "be finite")
_NONZERO = (lambda v: v != 0, "be nonzero")

# every config key: block -> key -> Key. A check runs on the converted
# value of each key a config gives. A block of REQUIRED keys may be left
# out as a whole, and is then None
CONFIG_TABLE = {
    "schema": Key(int, SCHEMA_VERSION, (lambda v: v == SCHEMA_VERSION,
                                        f"be {SCHEMA_VERSION}")),
    "device": {
        "table_csv": Key(str, None),
        "r_prog": Key(float, None),
        "coefficients": Key(list, None, (lambda v: len(v) == 5,
                                         "have 5 entries")),
        "v_set": Key(float, 1.2),
        "v_stop": Key(float, 2.6),
    },
    "design": {"v_eq": Key(float, 0.9), "c1": Key(float, 1.0e-8),
               "alpha": Key(float, 10.0), "beta": Key(float, 14.22)},
    "components": {"r": Key(float, check=_NONZERO),
                   "r_n": Key(float, check=_NONZERO),
                   "l": Key(float), "c1": Key(float), "c2": Key(float)},
    "integration": {
        "method": Key(str, "rk4", (lambda v: v in ("rk4", "rk45"),
                                   "be rk4|rk45")),
        "dt": Key(float, 1.0e-6),
        "t_end": Key(float, 0.5),
        "t_transient": Key(float, 0.1),
        "record_stride": Key(int, 10, (lambda v: v <= 2**63 - 1,
                                       "be <= 2**63 - 1")),
        "soa_policy": Key(str, "warn"),
        "abs_tol": Key(float, 1.0e-9),
        "rel_tol": Key(float, 1.0e-7),
    },
    "initial_state": Key(list, [0.1, 0.0, 0.0], (
        lambda v: len(v) == 3 and all(map(math.isfinite, v)),
        "be finite and have 3 entries")),
    "analysis": {
        "visit_fraction": Key(float, 0.3),
        "cluster_tol_fraction": Key(float, 0.01),
        "max_periodic_clusters": Key(int, 8),
        "lambda_periodic": Key(float, 0.01),
        "fixed_point_tol": Key(float, 1.0e-4),
        "min_samples": Key(int, 32),
    },
    "lyapunov": {"d0": Key(float, 1.0e-8, _FINITE_POSITIVE)},
    "sweep": {
        "mode": Key(str, "fixed", (lambda v: v in ("fixed", "redesign"),
                                   "be fixed|redesign")),
        "r_lo_frac": Key(float, 0.3, _FINITE_POSITIVE),
        "r_hi_frac": Key(float, 1.5, _FINITE_POSITIVE),
        "r_lo": Key(float, None),  # ohm; unset: r_lo_frac * r_prog
        "r_hi": Key(float, None),
        # each point keeps its extrema until the CSV is written
        "n_points": Key(int, 32, (lambda v: 1 <= v <= 100_000,
                                  "be >= 1 and <= 100000")),
        "sigma": Key(float, 0.1, (lambda v: 0 <= v < math.inf,
                                  "be finite and >= 0")),
        "seed": Key(int, 20220926, (lambda v: v >= 0, "be >= 0")),
        "workers": Key(int, 1, (lambda v: v >= 1, "be >= 1")),
    },
    "out_dir": Key(str, "out"),
}
_NOUN = {float: "a number", int: "an integer", str: "a string",
         list: "a list of numbers"}


def _defaults(table):
    """The defaults of a block, or None for a block of REQUIRED keys."""
    if all(getattr(k, "default", None) is REQUIRED for k in table.values()):
        return None
    return {key: _defaults(k) if isinstance(k, dict) else k.default
            for key, k in table.items()}


_DEFAULTS = _defaults(CONFIG_TABLE)


def _value(k, value, path, key):
    """`value` of the key `path`.`key` converted to its kind and checked.
    Null, booleans, lists and mappings are no float, int or str, and an
    int takes no fraction. The key's dotted name is built only for an
    error."""
    kind, default, check = k
    if value is None and default is None:
        return None
    if kind is list and isinstance(value, list):
        out = [_value(Key(float, 0.0), v, path, f"{key}[{i}]")
               for i, v in enumerate(value)]
    else:
        try:
            if (kind is list or value is None
                    or isinstance(value, (bool, list, dict))
                    or kind is int and isinstance(value, float)
                    and not value.is_integer()):
                raise TypeError
            out = kind(value)
        except (TypeError, ValueError, OverflowError):
            raise InputFormatError(f"{path}.{key}: expected {_NOUN[kind]}, "
                                   f"got {value!r}") from None
    if check is not None and not check[0](out):
        raise InputFormatError(f"{path}.{key} must {check[1]}, got {out!r}")
    return out


def _convert(table, given, base, path="config"):
    """`base`, the converted values of the keys of `table`, with each key
    that `given` sets converted and checked in its place. An unknown key,
    a block that is no mapping, or a missing REQUIRED key raises
    InputFormatError naming it."""
    if given is None:
        return base
    if not isinstance(given, dict):
        raise InputFormatError(f"{path} must be a mapping")
    out = {} if base is None else dict(base)
    for key, value in given.items():
        k = table.get(key)
        if k is None:
            raise InputFormatError(f"unknown key {path}.{key}")
        out[key] = (_convert(k, value, out.get(key), f"{path}.{key}")
                    if isinstance(k, dict) else _value(k, value, path, key))
    if base is None:
        for key in table:
            if key not in out:
                raise InputFormatError(f"{path}.{key} is required")
    return out


@dataclass
class RunConfig:
    table: StateTable
    state: DeviceState
    spec: DesignSpec
    components: dict
    method: str
    integration: IntegrationConfig
    initial_state: tuple
    analysis: AnalysisConfig
    lyap_d0: float
    sweep: dict  # checked, r_lo/r_hi in ohms
    out_dir: str


def _in_block(block, build, *args, **kwargs):
    """build(*args, **kwargs), a ValueError from the library's own checks
    raised as an InputFormatError naming the config block."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise InputFormatError(f"config.{block}: {exc}") from None


def _device(dev):
    """(table, state) of the converted device block."""
    if dev["table_csv"]:
        table = load_state_table(dev["table_csv"])
    elif dev["coefficients"] is not None:
        v_set, v_stop = dev["v_set"], dev["v_stop"]
        poly = DevicePoly(*dev["coefficients"], v_min=-v_set, v_max=v_stop)
        table = StateTable((DeviceState(
            resistance_at_low_bias(poly), v_set, v_stop, poly),))
    else:
        table = reference_table()
    state = (state_at(table, dev["r_prog"]) if dev["r_prog"] is not None
             else table.states[-1])
    return table, state


def load_config(path, overrides=None) -> RunConfig:
    """Read a YAML run configuration, lay `overrides` (block -> key ->
    value, as a config file would give them) over it, and convert and
    check every key against CONFIG_TABLE."""
    raw = None
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = yaml.load(fh, Loader=_YAML_LOADER)
        except FileNotFoundError as exc:
            raise InputFormatError(f"config file not found: {path}") from exc
        except UnicodeDecodeError as exc:
            raise InputFormatError(
                f"{path} is not UTF-8 text ({exc.reason})") from exc
        except yaml.YAMLError as exc:
            raise InputFormatError(f"invalid YAML in {path}: {exc}") from exc
    cfg = _convert(CONFIG_TABLE, raw, _DEFAULTS)
    if overrides:
        cfg = _convert(CONFIG_TABLE, overrides, cfg)

    table, state = _in_block("device", _device, cfg["device"])
    integ = dict(cfg["integration"])
    method = integ.pop("method")
    sw = cfg["sweep"]
    # an unset bound is its fraction of the programmed state
    bounds = {end: sw[f"{end}_frac"] * state.r_prog if sw[end] is None
              else sw[end] for end in ("r_lo", "r_hi")}
    if not 0 < bounds["r_lo"] <= bounds["r_hi"] < math.inf:
        raise InputFormatError(
            f"config.sweep: needs 0 < r_lo <= r_hi < inf, got "
            f"r_lo={bounds['r_lo']} ohm, r_hi={bounds['r_hi']} ohm")
    return RunConfig(
        table=table, state=state,
        spec=_in_block("design", DesignSpec, **cfg["design"]),
        components=cfg["components"], method=method,
        integration=_in_block("integration", IntegrationConfig, **integ),
        initial_state=tuple(cfg["initial_state"]),
        analysis=_in_block("analysis", AnalysisConfig, **cfg["analysis"]),
        lyap_d0=cfg["lyapunov"]["d0"], sweep={**sw, **bounds},
        out_dir=cfg["out_dir"])


def _config_path(args):
    """--config, else $MEMCHUA_CONFIG as set at this call, else None."""
    return (args.config if args.config is not None
            else os.environ.get(CONFIG_ENV_VAR))


def _resolve_circuit(rc: RunConfig):
    """(params, equilibria) from explicit components or the design chain.

    A design that fails its validation checks raises DesignError. The
    design chain has solved for the equilibria already; explicit
    components are solved once here.
    """
    if rc.components:
        comp = rc.components
        params = _in_block("components", CircuitParams, c1=comp["c1"],
                           c2=comp["c2"], l=comp["l"], g=1.0 / comp["r"],
                           g_n=1.0 / comp["r_n"], device=rc.state.poly)
        return params, _in_block("components", find_equilibria, params)
    report = design_circuit(rc.state, rc.spec).require_ok()
    return report.params, report.equilibria


def _out_dir(args, rc) -> Path:
    out = Path(args.out if args.out else rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_default(obj):
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _report_dict(report):
    p = report.params
    lgg = p.l * p.g * p.g  # underflows to 0 for a tiny g: beta is then null
    return {
        "r_ohm": report.r,
        "r_n_ohm": report.r_n,
        "l_H": p.l,
        "c1_F": p.c1,
        "c2_F": p.c2,
        "g_S": p.g,
        "g_n_S": p.g_n,
        "alpha": p.c2 / p.c1,
        "beta": p.c2 / lgg if lgg else None,
        "ok": report.ok,
        "checks": [{"name": c.name, "passed": c.passed, "value": c.value,
                    "note": c.note} for c in report.checks],
    }


def cmd_fit(args) -> int:
    for flag, value, (ok, must) in (
            ("--v-set", args.v_set, _FINITE_POSITIVE),
            ("--v-stop", args.v_stop, _FINITE_POSITIVE),
            ("--window-lo", args.window_lo, _FINITE),
            ("--window-hi", args.window_hi, _FINITE)):
        if value is not None and not ok(value):
            raise InputFormatError(f"{flag} must {must}, got {value!r}")
    v_set = float(args.v_set)
    v_stop = float(args.v_stop)
    lo = args.window_lo if args.window_lo is not None else -0.9 * v_set
    hi = args.window_hi if args.window_hi is not None else v_stop
    if not lo < hi:
        raise InputFormatError(f"--window-lo must be below --window-hi, got "
                               f"{lo!r} and {hi!r}")
    samples = load_iv_csv(args.iv)
    if not samples:
        raise InputFormatError("I-V file holds no samples", line=2)
    result = fit_poly(samples, (lo, hi))
    poly = DevicePoly(*result.poly.coefficients, v_min=-v_set, v_max=v_stop)
    state = DeviceState(resistance_at_low_bias(poly), v_set, v_stop, poly)

    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    card = out / "device_card.csv"
    save_state_table(card, [state])
    _write_json(out / "fit_report.json", {
        "rms_residual_A": result.rms_residual,
        "max_residual_A": result.max_residual,
        "condition": result.condition,
        "n_samples": result.n_samples,
        "r_prog_ohm": state.r_prog,
        "window_V": [lo, hi],
    })
    print(f"fit ok: card {card}, rms residual {result.rms_residual:.3e} A")
    return EXIT_OK


def cmd_design(args) -> int:
    rc = load_config(_config_path(args))
    report = design_circuit(rc.state, rc.spec)
    out = _out_dir(args, rc)
    _write_json(out / "design_report.json", _report_dict(report))
    report.require_ok()
    print(f"design ok: R={report.r:.1f} ohm, R_N={report.r_n:.1f} ohm, "
          f"L={report.params.l:.4f} H, C2={report.params.c2:.3e} F")
    return EXIT_OK


def cmd_equilibria(args) -> int:
    rc = load_config(_config_path(args))
    _, eqs = _resolve_circuit(rc)
    out = _out_dir(args, rc)
    _write_json(out / "equilibria.json", [
        {"label": e.label, "v1_V": e.state.v1, "v2_V": e.state.v2,
         "iL_A": e.state.i_l,
         "eigenvalues": [[ev.real, ev.imag] for ev in e.eigenvalues],
         "stable": e.stable, "in_window": e.in_window,
         "residual_A": e.residual}
        for e in eqs])
    for e in eqs:
        print(f"{e.label}: v1={e.state.v1:+.6f} V "
              f"{'stable' if e.stable else 'unstable'}"
              f"{'' if e.in_window else ' (outside window)'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    rc = load_config(_config_path(args))
    params, eqs = _resolve_circuit(rc)
    if rc.method == "rk45":
        # the RK4 step cap of the exponent pass, checked before either pass
        # starts or a file is written
        rk4_call(params, rc.initial_state, rc.integration, record=False)
    out = _out_dir(args, rc)

    stiff = None
    lam = None
    exponent = None
    # a C kernel call releases the GIL, so under rk45 the exponent pass
    # runs on a second CPU while this thread records the run and writes
    # its CSVs; leaving the block joins the thread, also on an exception
    with ThreadPoolExecutor(max_workers=1) as pool:
        if rc.method == "rk45":
            exponent = pool.submit(largest_lyapunov, params,
                                   rc.initial_state, rc.integration,
                                   d0=rc.lyap_d0)
            try:
                traj = integrate_adaptive(params, rc.initial_state,
                                          rc.integration)
            except IntegrationError as exc:
                traj = getattr(exc, "trajectory", None)
                if traj is None:
                    raise
                stiff = str(exc)
        else:
            traj, lam = trajectory_and_lyapunov(params, rc.initial_state,
                                                rc.integration,
                                                d0=rc.lyap_d0)

        write_trajectory_csv(out / "trajectory.csv", traj)
        write_events_csv(out / "events.csv", traj)
        if exponent is not None and not traj.diverged and stiff is None:
            try:
                lam = exponent.result()
            except LyapunovError:
                lam = None
    if traj.events_dropped:
        print(f"warning: {traj.events_dropped} events past the event buffer "
              "cap are missing from events.csv", file=sys.stderr)

    verdict = classify(traj, eqs, rc.analysis,
                       lambda1=lam.lambda1 if lam else None,
                       time_unit=params.time_unit)
    summary = verdict.as_dict()
    summary["lambda1_dimensionless"] = lam.dimensionless if lam else None
    summary["n_events"] = len(traj.events)
    summary["n_samples"] = len(traj.times)
    if stiff:
        summary["integration_failure"] = stiff
    _write_json(out / "classification.json", summary)

    print(f"class={verdict.label} side={verdict.scroll_side} "
          f"lambda1*tau={summary['lambda1_dimensionless'] if lam else 'n/a'} "
          f"events={len(traj.events)}")
    if traj.diverged or traj.aborted_on_soa or stiff:
        reason = ("diverged" if traj.diverged else
                  "aborted on window crossing" if traj.aborted_on_soa else stiff)
        print(f"runtime failure: {reason}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_sweep(args) -> int:
    flags = {k: v for k, v in vars(args).items() if k in CONFIG_TABLE["sweep"]}
    rc = load_config(_config_path(args), {"sweep": flags})
    sw = rc.sweep
    points = sweep(rc.table, rc.spec, rc.integration, rc.analysis,
                   r_lo=sw["r_lo"], r_hi=sw["r_hi"], n_points=sw["n_points"],
                   mode=sw["mode"], sigma=sw["sigma"], seed=sw["seed"],
                   init=rc.initial_state, reference_r=rc.state.r_prog,
                   d0=rc.lyap_d0, workers=sw["workers"])

    ok_points = [p for p in points if p.verdict.label != "inconclusive"]
    out = _out_dir(args, rc)
    write_bifurcation_csv(out / "bifurcation.csv", points)
    _write_json(out / "sweep_summary.json", [
        {"r_prog_ohm": p.r_prog, "label": p.verdict.label,
         "scroll_side": p.verdict.scroll_side,
         "lambda1_per_s": p.verdict.lambda1,
         "n_extrema": int(p.extrema.size), "span_V": p.span,
         "seed": p.seed, "soa": p.soa}
        for p in points])

    counts = {}
    for p in points:
        counts[p.verdict.label] = counts.get(p.verdict.label, 0) + 1
        if p.reason:
            print(f"sweep point r_prog={p.r_prog!r} ohm inconclusive: "
                  f"{p.reason}", file=sys.stderr)
    print(f"sweep: {len(points)} points, verdicts {counts}")
    return EXIT_OK if ok_points else EXIT_RUNTIME


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later one in the process, since building it costs far more than a
    parse. It holds no per-call state: --config defaults to None and
    $MEMCHUA_CONFIG is read when a command runs."""
    parser = argparse.ArgumentParser(
        prog="memchua",
        description="Memristor-based Chua oscillator: fit, design, simulate, sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None,
                       help="YAML run configuration (default: "
                            f"${CONFIG_ENV_VAR} or built-in defaults)")
        p.add_argument("--out", default=None, help="output directory")

    p_fit = sub.add_parser("fit", help="fit the device polynomial from I-V data")
    p_fit.add_argument("--iv", required=True, help="voltage_V,current_A CSV")
    p_fit.add_argument("--v-set", type=float, required=True, dest="v_set",
                       help="switching threshold magnitude (V)")
    p_fit.add_argument("--v-stop", type=float, required=True, dest="v_stop",
                       help="programming sweep maximum (V)")
    p_fit.add_argument("--window-lo", type=float, default=None, dest="window_lo")
    p_fit.add_argument("--window-hi", type=float, default=None, dest="window_hi")
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_design = sub.add_parser("design", help="size components for the device state")
    add_common(p_design)
    p_design.set_defaults(func=cmd_design)

    p_eq = sub.add_parser("equilibria", help="equilibria and their spectra")
    add_common(p_eq)
    p_eq.set_defaults(func=cmd_equilibria)

    p_sim = sub.add_parser("simulate", help="integrate and classify one run")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="bifurcation sweep over r_prog")
    add_common(p_sweep)
    for key in ("seed", "mode", "workers"):  # converted and checked as config
        p_sweep.add_argument(f"--{key}", default=argparse.SUPPRESS,
                             help=f"overrides sweep.{key} of the config")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FitError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return EXIT_FIT
    except DesignError as exc:
        print(f"design failure: {exc}", file=sys.stderr)
        return EXIT_DESIGN
    except (IntegrationError, LyapunovError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemChuaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
