"""The three benchmark workloads: inputs from a seed, CLI calls, checks.

Every operation is a ``memchua.cli.main`` call, the code path of the
``memchua`` commands. A workload turns a numpy Generator into an ``Op``: the
input files it wrote, the work items the op completes, and the CLI calls to
make. Each call names its deterministic output files (hashed into the run
record) and a check that returns an error message, or None when the output
holds the workload's invariant.
"""

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np
import yaml

from memchua import REFERENCE_COEFFICIENTS, reference_state

REF_R = reference_state().r_prog
V_SET, V_STOP = 1.2, 2.6
SWEEP_POINTS = 2
GOLDEN_SEED = 20220926


@dataclass
class Call:
    argv: List[str]
    outputs: List[Path]
    check: Callable[[], Optional[str]]


@dataclass
class Op:
    items: int
    calls: List[Call]


def _write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- sweep

def check_sweep(out, n_points):
    summary = json.loads((out / "sweep_summary.json").read_text())
    if len(summary) != n_points:
        return f"{len(summary)} sweep points, expected {n_points}"
    labels = [p["label"] for p in summary]
    if "inconclusive" in labels:
        return f"inconclusive sweep point: {labels}"
    with open(out / "bifurcation.csv", newline="") as fh:
        text = fh.read()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows or rows[0] != ["r_prog_ohm", "extremum_v1_V", "class"]:
        return "bifurcation.csv header mismatch"
    rebuilt = io.StringIO()
    writer = csv.writer(rebuilt)
    writer.writerow(rows[0])
    for r, v, label in rows[1:]:
        writer.writerow([repr(float(r)), repr(float(v)), label])
    if rebuilt.getvalue() != text:
        return "bifurcation.csv does not parse back to the same rows"
    expected = [[repr(float(p["r_prog_ohm"])), p["label"]]
                for p in summary for _ in range(p["n_extrema"])]
    if [[r, label] for r, _, label in rows[1:]] != expected:
        return "bifurcation.csv rows disagree with sweep_summary.json"
    return None


def _sweep_config(work, name, t_end, t_transient, r_lo, r_hi, n_points,
                  workers):
    return _write_yaml(work / name, {
        "schema": 1,
        "integration": {"t_end": t_end, "t_transient": t_transient},
        "sweep": {"mode": "fixed", "sigma": 0.1, "n_points": n_points,
                  "r_lo": float(r_lo), "r_hi": float(r_hi),
                  "workers": workers},
    })


def _sweep_call(cfg, out, seed, n_points):
    return Call(["sweep", "--config", cfg, "--out", str(out),
                 "--seed", str(seed)],
                [out / "bifurcation.csv", out / "sweep_summary.json"],
                lambda: check_sweep(out, n_points))


class Sweep:
    """`memchua sweep`, fixed mode, sigma 0.1, over a seeded r_prog range.

    Each op sweeps SWEEP_POINTS points at a 0.05 s horizon; the items are
    sweep points.
    """

    name = "sweep"

    def op(self, rng, work):
        r_lo = REF_R * rng.uniform(0.3, 1.2)
        r_hi = r_lo * rng.uniform(1.05, 1.25)
        seed = int(rng.integers(2**31))
        cfg = _sweep_config(work, "sweep.yaml", 0.05, 0.02, r_lo, r_hi,
                            SWEEP_POINTS, 1)
        return Op(SWEEP_POINTS, [_sweep_call(cfg, work / "sweep_out", seed,
                                             SWEEP_POINTS)])

    def golden(self, work):
        cfg = _sweep_config(work, "golden.yaml", 0.03, 0.01, REF_R, REF_R,
                            1, 1)
        return Op(1, [_sweep_call(cfg, work / "golden_out", GOLDEN_SEED, 1)])

    def determinism(self, rng, work):
        """The same small seeded sweep at workers=1 and workers=2."""
        seed = int(rng.integers(2**31))
        calls = []
        for workers in (1, 2):
            cfg = _sweep_config(work, f"det{workers}.yaml", 0.02, 0.01,
                                0.3 * REF_R, 1.5 * REF_R, 2, workers)
            out = work / f"det{workers}_out"
            calls.append(Call(["sweep", "--config", cfg, "--out", str(out),
                               "--seed", str(seed)],
                              [out / "bifurcation.csv"], lambda: None))
        return calls


# ------------------------------------------------------------- simulate

def check_simulate(out):
    summary = json.loads((out / "classification.json").read_text())
    if summary["label"] != "double_scroll":
        return f"label {summary['label']}, expected double_scroll"
    lam = summary["lambda1_per_s"]
    if lam is None or not lam > 0:
        return f"lambda1 {lam} is not positive"
    rows = _read_csv(out / "trajectory.csv")[1:]
    times = [float(r[0]) for r in rows]
    if len(times) != summary["n_samples"]:
        return f"{len(times)} trajectory rows, summary says {summary['n_samples']}"
    if any(b <= a for a, b in zip(times, times[1:])):
        return "trajectory times do not strictly increase"
    return None


def _simulate_op(work, name, init, t_end):
    cfg = _write_yaml(work / f"{name}.yaml", {
        "schema": 1,
        "integration": {"method": "rk45", "record_stride": 1,
                        "t_end": t_end, "t_transient": 0.02},
        "initial_state": [float(x) for x in init],
    })
    out = work / f"{name}_out"
    return Op(1, [Call(["simulate", "--config", cfg, "--out", str(out)],
                       [out / "trajectory.csv", out / "events.csv",
                        out / "classification.json"],
                       lambda: check_simulate(out))])


class Simulate:
    """`memchua simulate` with rk45 and record_stride 1 on the reference
    design, from a seeded initial state near (0.1, 0, 0), 0.1 s horizon."""

    name = "simulate"

    def op(self, rng, work):
        init = (0.1 + rng.uniform(-0.01, 0.01), rng.uniform(-1e-3, 1e-3), 0.0)
        return _simulate_op(work, "simulate", init, 0.1)

    def golden(self, work):
        return _simulate_op(work, "golden", (0.1, 0.0, 0.0), 0.05)


# --------------------------------------------------------- characterize

def check_card(out):
    rows = _read_csv(out / "device_card.csv")
    if len(rows) != 2 or len(rows[1]) != 8:
        return "device_card.csv is not one state-table row"
    return None


def check_design(out):
    report = json.loads((out / "design_report.json").read_text())
    if report["ok"] is not True:
        return "design report not ok"
    return None


def check_equilibria(out):
    eqs = {e["label"]: e for e in
           json.loads((out / "equilibria.json").read_text())}
    for label in ("P+", "P-"):
        if label not in eqs or not eqs[label]["in_window"]:
            return f"{label} missing or outside the device window"
    worst = max(e["residual_A"] for e in eqs.values())
    if worst > 1e-12:
        return f"equilibrium residual {worst:.3e} A above 1e-12"
    return None


def _characterize_op(rng, work, name):
    """A synthetic device: the reference quintic scaled by a 1/R factor with
    a small per-coefficient spread, sampled with 1% multiplicative noise."""
    c = (np.asarray(REFERENCE_COEFFICIENTS)
         * np.exp(rng.uniform(-0.3, 0.3))
         * np.exp(0.05 * rng.standard_normal(5)))
    v = np.linspace(-0.9 * V_SET, V_STOP, 200)
    v = v[v != 0]
    i = v * (c[0] + v * (c[1] + v * (c[2] + v * (c[3] + v * c[4]))))
    i = i * (1 + 0.01 * rng.standard_normal(v.size))
    iv = work / f"{name}_iv.csv"
    iv.write_text("voltage_V,current_A\n" + "".join(
        f"{float(a)!r},{float(b)!r}\n" for a, b in zip(v, i)))
    out = work / f"{name}_out"
    cfg = _write_yaml(work / f"{name}.yaml", {
        "schema": 1, "device": {"table_csv": str(out / "device_card.csv")}})
    return Op(1, [
        Call(["fit", "--iv", str(iv), "--v-set", repr(V_SET),
              "--v-stop", repr(V_STOP), "--out", str(out)],
             [out / "device_card.csv", out / "fit_report.json"],
             lambda: check_card(out)),
        Call(["design", "--config", cfg, "--out", str(out)],
             [out / "design_report.json"], lambda: check_design(out)),
        Call(["equilibria", "--config", cfg, "--out", str(out)],
             [out / "equilibria.json"], lambda: check_equilibria(out)),
    ])


class Characterize:
    """`memchua fit`, then `design` and `equilibria` on the fitted card, for
    one seeded synthetic device per op; the items are devices."""

    name = "characterize"

    def op(self, rng, work):
        return _characterize_op(rng, work, "device")

    def golden(self, work):
        return _characterize_op(np.random.default_rng(GOLDEN_SEED), work,
                                "golden")


WORKLOADS = {w.name: w for w in (Sweep(), Simulate(), Characterize())}
