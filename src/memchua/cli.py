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
from dataclasses import dataclass, field
from pathlib import Path

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
from .integrate import (IntegrationConfig, integrate_adaptive,
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

DEFAULT_CONFIG = {
    "schema": SCHEMA_VERSION,
    "device": {
        "table_csv": None,
        "r_prog": None,
        "coefficients": None,
        "v_set": 1.2,
        "v_stop": 2.6,
    },
    "design": {"v_eq": 0.9, "c1": 1.0e-8, "alpha": 10.0, "beta": 14.22},
    "components": None,
    "integration": {
        "method": "rk4",
        "dt": 1.0e-6,
        "t_end": 0.5,
        "t_transient": 0.1,
        "record_stride": 10,
        "soa_policy": "warn",
        "abs_tol": 1.0e-9,
        "rel_tol": 1.0e-7,
    },
    "initial_state": [0.1, 0.0, 0.0],
    "analysis": {
        "visit_fraction": 0.3,
        "cluster_tol_fraction": 0.01,
        "max_periodic_clusters": 8,
        "lambda_periodic": 0.01,
        "fixed_point_tol": 1.0e-4,
        "min_samples": 32,
    },
    "lyapunov": {"d0": 1.0e-8},
    "sweep": {
        "mode": "fixed",
        "r_lo_frac": 0.3,
        "r_hi_frac": 1.5,
        "r_lo": None,
        "r_hi": None,
        "n_points": 32,
        "sigma": 0.1,
        "seed": 20220926,
        "workers": 1,
    },
    "out_dir": "out",
}


def _merge(defaults, user, path="config"):
    if user is None:
        return defaults
    if not isinstance(user, dict):
        raise InputFormatError(f"{path} must be a mapping")
    out = dict(defaults)
    for key, val in user.items():
        if key not in defaults:
            raise InputFormatError(f"unknown key {path}.{key}")
        if isinstance(defaults[key], dict) and defaults[key] is not None:
            out[key] = _merge(defaults[key], val, f"{path}.{key}")
        else:
            out[key] = val
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
    sweep: dict = field(default_factory=dict)  # checked, r_lo/r_hi in ohms
    out_dir: str = "out"


def _number(value, key, kind=float):
    """The config value of `key` (a dotted path below config) as a float,
    or as an int with kind=int; any other value raises InputFormatError
    naming the key."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise InputFormatError(
            f"config.{key}: expected {noun}, got {value!r}") from None


def _numbers(value, key):
    """The config list of `key` as floats; anything but a list of numbers
    raises InputFormatError naming the key or the entry."""
    if not isinstance(value, (list, tuple)):
        raise InputFormatError(
            f"config.{key}: expected a list of numbers, got {value!r}")
    return [_number(v, f"{key}[{k}]") for k, v in enumerate(value)]


def _sweep_block(sw, ref_r) -> dict:
    """The sweep block converted and checked, with r_lo/r_hi resolved to
    ohms: an unset (or zero) bound is its fraction of ref_r."""
    out = dict(sw)
    out["mode"] = str(sw["mode"])
    if out["mode"] not in ("fixed", "redesign"):
        raise InputFormatError(
            f"sweep.mode must be fixed|redesign, got {out['mode']}")
    out["n_points"] = _number(sw["n_points"], "sweep.n_points", int)
    if out["n_points"] < 1:
        raise InputFormatError(
            f"sweep.n_points must be >= 1, got {out['n_points']}")
    out["sigma"] = _number(sw["sigma"], "sweep.sigma")
    if not (math.isfinite(out["sigma"]) and out["sigma"] >= 0):
        raise InputFormatError(
            f"sweep.sigma must be finite and >= 0, got {out['sigma']}")
    out["seed"] = _number(sw["seed"], "sweep.seed", int)
    out["workers"] = _number(sw["workers"], "sweep.workers", int)
    for end in ("r_lo", "r_hi"):
        frac = f"{end}_frac"
        out[end] = (_number(sw[end], f"sweep.{end}") if sw[end]
                    else _number(sw[frac], f"sweep.{frac}") * ref_r)
    if not 0 < out["r_lo"] <= out["r_hi"] < math.inf:
        raise InputFormatError(
            f"sweep range needs 0 < r_lo <= r_hi < inf, got "
            f"r_lo={out['r_lo']} ohm, r_hi={out['r_hi']} ohm")
    return out


def load_config(path) -> RunConfig:
    """Read, default-fill and validate a YAML run configuration."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = yaml.load(fh, Loader=_YAML_LOADER) or {}
        except FileNotFoundError as exc:
            raise InputFormatError(f"config file not found: {path}") from exc
        except yaml.YAMLError as exc:
            raise InputFormatError(f"invalid YAML in {path}: {exc}") from exc
    cfg = _merge(DEFAULT_CONFIG, raw)
    if cfg["schema"] != SCHEMA_VERSION:
        raise InputFormatError(
            f"unsupported config schema {cfg['schema']!r}, expected {SCHEMA_VERSION}")

    try:
        dev = cfg["device"]
        if dev["table_csv"]:
            table = load_state_table(dev["table_csv"])
        elif dev["coefficients"] is not None:
            coefs = _numbers(dev["coefficients"], "device.coefficients")
            if len(coefs) != 5:
                raise InputFormatError("device.coefficients needs 5 entries")
            v_set = _number(dev["v_set"], "device.v_set")
            v_stop = _number(dev["v_stop"], "device.v_stop")
            poly = DevicePoly(*coefs, v_min=-v_set, v_max=v_stop)
            table = StateTable((DeviceState(
                resistance_at_low_bias(poly), v_set, v_stop, poly),))
        else:
            table = reference_table()
        state = (state_at(table, _number(dev["r_prog"], "device.r_prog"))
                 if dev["r_prog"] is not None else table.states[-1])

        d = cfg["design"]
        spec = DesignSpec(**{k: _number(d[k], f"design.{k}")
                             for k in ("v_eq", "c1", "alpha", "beta")})

        integ = dict(cfg["integration"])
        method = integ.pop("method")
        if method not in ("rk4", "rk45"):
            raise InputFormatError(f"integration.method must be rk4|rk45, got {method}")
        icfg = IntegrationConfig(**{
            k: (str(v) if k == "soa_policy" else _number(
                v, f"integration.{k}", int if k == "record_stride" else float))
            for k, v in integ.items()})
        init = tuple(_numbers(cfg["initial_state"], "initial_state"))
        if len(init) != 3:
            raise InputFormatError("initial_state needs 3 components")
        if not all(map(math.isfinite, init)):
            raise InputFormatError(
                f"initial_state must be finite, got {list(init)}")
        d0 = _number(cfg["lyapunov"]["d0"], "lyapunov.d0")
        if not 0 < d0 < math.inf:
            raise InputFormatError(
                f"lyapunov.d0 must be finite and > 0, got {d0}")

        a = cfg["analysis"]
        acfg = AnalysisConfig(**{
            k: _number(v, f"analysis.{k}",
                       int if k in ("max_periodic_clusters", "min_samples")
                       else float)
            for k, v in a.items()})

        return RunConfig(table=table, state=state, spec=spec,
                         components=cfg["components"], method=method,
                         integration=icfg, initial_state=init, analysis=acfg,
                         lyap_d0=d0,
                         sweep=_sweep_block(cfg["sweep"], state.r_prog),
                         out_dir=str(cfg["out_dir"]))
    except InputFormatError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise InputFormatError(f"bad config value: {exc}") from exc


def _config_path(args):
    """--config, else $MEMCHUA_CONFIG as set at this call, else None."""
    return (args.config if args.config is not None
            else os.environ.get(CONFIG_ENV_VAR))


def _resolve_params(rc: RunConfig) -> CircuitParams:
    """Circuit parameters from explicit components or the design chain.

    A design that fails its validation checks raises DesignError.
    """
    if rc.components:
        comp = rc.components
        try:
            c1, c2, l, r, r_n = (_number(comp[k], f"components.{k}")
                                 for k in ("c1", "c2", "l", "r", "r_n"))
            if r == 0 or r_n == 0:
                raise ValueError("r and r_n must be nonzero")
            return CircuitParams(c1=c1, c2=c2, l=l, g=1.0 / r, g_n=1.0 / r_n,
                                 device=rc.state.poly)
        except (TypeError, ValueError, KeyError) as exc:
            raise InputFormatError(f"bad components block: {exc}") from exc
    return design_circuit(rc.state, rc.spec).require_ok().params


def _out_dir(args, rc) -> Path:
    out = Path(args.out if args.out else rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_default(obj):
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _report_dict(report):
    p = report.params
    return {
        "r_ohm": report.r,
        "r_n_ohm": report.r_n,
        "l_H": p.l,
        "c1_F": p.c1,
        "c2_F": p.c2,
        "g_S": p.g,
        "g_n_S": p.g_n,
        "alpha": p.c2 / p.c1,
        "beta": p.c2 / (p.l * p.g * p.g),
        "ok": report.ok,
        "checks": [{"name": c.name, "passed": c.passed, "value": c.value,
                    "note": c.note} for c in report.checks],
    }


def cmd_fit(args) -> int:
    samples = load_iv_csv(args.iv)
    if not samples:
        raise InputFormatError("I-V file holds no samples", line=2)
    v_set = float(args.v_set)
    v_stop = float(args.v_stop)
    lo = args.window_lo if args.window_lo is not None else -0.9 * v_set
    hi = args.window_hi if args.window_hi is not None else v_stop
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
    params = _resolve_params(rc)
    eqs = find_equilibria(params)
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
    params = _resolve_params(rc)
    out = _out_dir(args, rc)

    stiff = None
    lam = None
    if rc.method == "rk45":
        try:
            traj = integrate_adaptive(params, rc.initial_state, rc.integration)
        except IntegrationError as exc:
            traj = getattr(exc, "trajectory", None)
            if traj is None:
                raise
            stiff = str(exc)
        if not traj.diverged and stiff is None:
            try:
                lam = largest_lyapunov(params, rc.initial_state,
                                       rc.integration, d0=rc.lyap_d0)
            except LyapunovError:
                lam = None
    else:
        traj, lam = trajectory_and_lyapunov(params, rc.initial_state,
                                            rc.integration, d0=rc.lyap_d0)

    write_trajectory_csv(out / "trajectory.csv", traj)
    write_events_csv(out / "events.csv", traj)
    if traj.events_dropped:
        print(f"warning: {traj.events_dropped} events past the event buffer "
              "cap are missing from events.csv", file=sys.stderr)

    verdict = classify(traj, find_equilibria(params), rc.analysis,
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
    rc = load_config(_config_path(args))
    sw = dict(rc.sweep)
    if args.seed is not None:
        sw["seed"] = args.seed
    if args.mode is not None:
        sw["mode"] = args.mode
    if args.workers is not None:
        sw["workers"] = args.workers

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
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--mode", choices=["fixed", "redesign"], default=None)
    p_sweep.add_argument("--workers", type=int, default=None)
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
