import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import memchua as m
from memchua import analysis, circuit, cli, design, kernels
from memchua.integrate import integrate_adaptive, write_trajectory_csv

from conftest import REF_COEFFS, make_samples


def write_config(path, **overrides):
    cfg = {"schema": 1}
    cfg.update(overrides)
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


SHORT_INTEGRATION = {"t_end": 0.05, "t_transient": 0.01}

# alpha = 1 sizes a circuit whose equilibria are not all unstable
FAILED_DESIGN = {"alpha": 1.0}


class TestFit:
    def make_iv(self, tmp_path, n=50):
        voltages = np.linspace(-1.05, 2.55, n)
        voltages = voltages[voltages != 0]
        path = tmp_path / "iv.csv"
        m.save_iv_csv(path, make_samples(REF_COEFFS, voltages))
        return path

    def test_valid_file_writes_card(self, tmp_path):
        iv = self.make_iv(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["fit", "--iv", str(iv), "--v-set", "1.2",
                       "--v-stop", "2.6", "--out", str(out)])
        assert rc == 0
        table = m.load_state_table(out / "device_card.csv")
        got = table.states[0].poly.coefficients
        assert np.allclose(got, REF_COEFFS, rtol=1e-8)
        report = json.loads((out / "fit_report.json").read_text())
        assert report["rms_residual_A"] < 1e-15
        assert report["r_prog_ohm"] == pytest.approx(4.701e5, rel=1e-3)

    def test_empty_file_is_parse_error(self, tmp_path):
        iv = tmp_path / "iv.csv"
        iv.write_text("voltage_V,current_A\n")
        rc = cli.main(["fit", "--iv", str(iv), "--v-set", "1.2",
                       "--v-stop", "2.6", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_file_is_parse_error(self, tmp_path):
        rc = cli.main(["fit", "--iv", str(tmp_path / "nope.csv"),
                       "--v-set", "1.2", "--v-stop", "2.6"])
        assert rc == 2

    def test_three_rows_is_fit_failure(self, tmp_path):
        iv = self.make_iv(tmp_path, n=4)  # one voltage may hit zero
        samples = m.load_iv_csv(iv)[:3]
        m.save_iv_csv(iv, samples)
        rc = cli.main(["fit", "--iv", str(iv), "--v-set", "1.2",
                       "--v-stop", "2.6", "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_malformed_row_is_parse_error(self, tmp_path, capsys):
        iv = tmp_path / "iv.csv"
        iv.write_text("voltage_V,current_A\n0.5,1e-6\n0.7,abc\n")
        rc = cli.main(["fit", "--iv", str(iv), "--v-set", "1.2",
                       "--v-stop", "2.6"])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys):
        iv = tmp_path / "iv.csv"
        iv.write_bytes(b"voltage_V,current_A\n0.5,1e-6\xff\n")
        rc = cli.main(["fit", "--iv", str(iv), "--v-set", "1.2",
                       "--v-stop", "2.6", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"input error: {iv} is not UTF-8 text (invalid start byte)"]

    @pytest.mark.parametrize("flags, must", [
        (["--v-set", "-1.2"], "--v-set must be finite and > 0, got -1.2"),
        (["--v-set", "nan"], "--v-set must be finite and > 0, got nan"),
        (["--v-stop", "inf"], "--v-stop must be finite and > 0, got inf"),
        (["--v-stop", "0"], "--v-stop must be finite and > 0, got 0.0"),
        (["--window-lo", "nan"], "--window-lo must be finite, got nan"),
        (["--window-hi=-inf"], "--window-hi must be finite, got -inf"),
        # the window must be a range once the defaults (-0.9 * v_set and
        # v_stop) are applied
        (["--window-lo", "2", "--window-hi", "1"],
         "--window-lo must be below --window-hi, got 2.0 and 1.0"),
        (["--window-lo", "1", "--window-hi", "1"],
         "--window-lo must be below --window-hi, got 1.0 and 1.0"),
        (["--window-lo", "3"],
         "--window-lo must be below --window-hi, got 3.0 and 2.6"),
        (["--window-hi=-1.2"],
         "--window-lo must be below --window-hi, got -1.08 and -1.2"),
    ])
    def test_bad_flag_is_parse_error(self, tmp_path, capsys, flags, must):
        out = tmp_path / "out"
        rc = cli.main(["fit", "--iv", str(self.make_iv(tmp_path)),
                       "--v-set", "1.2", "--v-stop", "2.6", "--out", str(out),
                       *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"input error: {must}\n"
        assert not out.exists()


class TestDesign:
    def test_default_reference_design(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["design", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "design_report.json").read_text())
        assert report["ok"] is True
        assert report["r_ohm"] == pytest.approx(7643.0, rel=0.01)
        assert report["r_n_ohm"] == pytest.approx(6856.0, rel=0.01)
        assert report["l_H"] == pytest.approx(0.410, rel=0.01)
        assert report["c2_F"] == 1e-7

    def test_unsafe_target_names_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", design={"v_eq": 1.5})
        rc = cli.main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "safe-window" in capsys.readouterr().err

    def test_linear_device_names_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml",
                           device={"coefficients": [1e-6, 0, 0, 0, 0]})
        rc = cli.main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "infeasible-G" in capsys.readouterr().err

    def test_unknown_config_key_is_parse_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", desing={"v_eq": 0.9})
        rc = cli.main(["design", "--config", cfg])
        assert rc == 2
        assert "desing" in capsys.readouterr().err

    def test_wrong_schema_is_parse_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", schema=99)
        assert cli.main(["design", "--config", cfg]) == 2

    def test_failed_check_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", design=FAILED_DESIGN)
        rc = cli.main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "all-unstable" in capsys.readouterr().err

    def test_env_var_supplies_config(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.yaml", design={"v_eq": 1.5})
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, cfg)
        assert cli.main(["design", "--out", str(tmp_path / "o")]) == 4

    def test_huge_coefficient_names_check(self, tmp_path, capsys):
        # g * g overflows, so the sized inductance would be zero
        cfg = write_config(tmp_path / "c.yaml",
                           device={"coefficients": [1e-6, 0, 1e300, 0, 0]})
        rc = cli.main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "component-range" in capsys.readouterr().err


class TestParserCache:
    def test_parser_is_built_once(self, tmp_path):
        cli.build_parser.cache_clear()
        assert cli.main(["design", "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["equilibria", "--out", str(tmp_path / "b")]) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_import_builds_no_parser(self):
        code = ("import memchua.cli as c; "
                "print(c.build_parser.cache_info().misses)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"

    def test_env_var_read_on_every_call(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        assert cli.main(["design", "--out", str(tmp_path / "a")]) == 0
        cfg = write_config(tmp_path / "c.yaml", design={"v_eq": 1.5})
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, cfg)
        assert cli.main(["design", "--out", str(tmp_path / "b")]) == 4

    def test_config_flag_beats_env_var(self, tmp_path, monkeypatch):
        bad = write_config(tmp_path / "bad.yaml", design={"v_eq": 1.5})
        good = write_config(tmp_path / "good.yaml")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, bad)
        assert cli.main(["design", "--out", str(tmp_path / "a")]) == 4
        assert cli.main(["design", "--config", good,
                         "--out", str(tmp_path / "b")]) == 0


# the pure-Python loader is the fallback on PyYAML builds without libyaml
YAML_LOADERS = [yaml.SafeLoader] + (
    [yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])

# every key of CONFIG_TABLE, written by hand so that both loaders
# resolve the same plain scalars (1e-8 without a dot is a string to both)
EVERY_KEY_YAML = """\
schema: 1
device:
  table_csv: {table}
  r_prog: 3.0e+5
  coefficients: [1.0e-6, 0, -2.0e-7, 0, 3.0e-8]
  v_set: 1.2
  v_stop: 2.6
design: {{v_eq: 0.8, c1: 2e-8, alpha: 9, beta: 14.5}}
components: {{r: 7643.0, r_n: 6856.0, l: 0.41, c1: 1.0e-8, c2: 1.0e-7}}
integration:
  method: rk45
  dt: 2.0e-6
  t_end: 0.25
  t_transient: 0.05
  record_stride: 5
  soa_policy: abort
  abs_tol: 1.0e-10
  rel_tol: 1.0e-8
initial_state: [0.2, -0.0, 1.0e-6]
analysis:
  visit_fraction: 0.25
  cluster_tol_fraction: 0.02
  max_periodic_clusters: 6
  lambda_periodic: 0.02
  fixed_point_tol: 2.0e-4
  min_samples: 40
lyapunov: {{d0: 1.0e-9}}
sweep:
  mode: redesign
  r_lo_frac: 0.5
  r_hi_frac: 1.2
  r_lo: 2.0e+5
  r_hi: ~
  n_points: 8
  sigma: 0.05
  seed: 7
  workers: 2
out_dir: results
"""


def counting(loader, used):
    """loader, recording in `used` each stream it opens."""
    class Counting(loader):
        def __init__(self, stream):
            used.append(loader)
            super().__init__(stream)
    return Counting


class TestYamlLoaders:
    @pytest.fixture(params=YAML_LOADERS, ids=lambda loader: loader.__name__)
    def used(self, request, monkeypatch):
        used = []
        monkeypatch.setattr(cli, "_YAML_LOADER",
                            counting(request.param, used))
        return used

    def test_invalid_yaml_is_parse_error(self, used, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("schema: 1\ndesign: {v_eq: [0.9\n")
        assert cli.main(["design", "--config", str(cfg)]) == 2
        assert "invalid YAML in" in capsys.readouterr().err
        assert len(used) == 1

    def test_non_utf8_config_is_parse_error(self, used, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_bytes(b"schema: 1\n# caf\xe9\n")
        assert cli.main(["design", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"input error: {cfg} is not UTF-8 text (invalid continuation "
            "byte)"]

    def test_unknown_key_is_parse_error(self, used, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", design={"v_eqq": 0.9})
        assert cli.main(["design", "--config", cfg]) == 2
        assert "design.v_eqq" in capsys.readouterr().err
        assert len(used) == 1

    def test_every_key_parses_alike(self, tmp_path, monkeypatch):
        table = tmp_path / "states.csv"
        m.save_state_table(table, m.reference_table().states)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(EVERY_KEY_YAML.format(table=table))
        raw = yaml.safe_load(cfg.read_text())
        assert raw.keys() == cli.CONFIG_TABLE.keys()
        for key, val in cli.CONFIG_TABLE.items():
            if isinstance(val, dict):
                assert raw[key].keys() == val.keys()

        configs = []
        for loader in YAML_LOADERS:
            used = []
            monkeypatch.setattr(cli, "_YAML_LOADER", counting(loader, used))
            configs.append(cli.load_config(str(cfg)))
            assert used == [loader]
        assert all(rc == configs[0] for rc in configs)
        rc = configs[0]
        assert rc.spec.c1 == 2e-8 and rc.integration.soa_policy == "abort"
        assert rc.sweep["r_lo"] == 2e5 and rc.out_dir == "results"


class TestEquilibria:
    def test_reports_three_points(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["equilibria", "--out", str(out)])
        assert rc == 0
        eqs = json.loads((out / "equilibria.json").read_text())
        labels = {e["label"] for e in eqs}
        assert labels == {"P0", "P+", "P-"}
        assert all(e["stable"] is False for e in eqs)

    def test_failed_reference_design_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", design=FAILED_DESIGN)
        out = tmp_path / "out"
        rc = cli.main(["equilibria", "--config", cfg, "--out", str(out)])
        assert rc == 4
        assert "all-unstable" in capsys.readouterr().err
        assert not (out / "equilibria.json").exists()

    def test_components_without_spectrum_are_input_error(self, tmp_path,
                                                         capsys):
        # 1/l overflows, so no equilibrium has a spectrum
        cfg = write_config(tmp_path / "c.yaml", components={
            "r": 7643.0, "r_n": 685.6, "l": 1.0e-310, "c1": 1.0e-8,
            "c2": 1.0e-7})
        out = tmp_path / "out"
        rc = cli.main(["equilibria", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "input error: config.components: the Jacobian at v1=0.0 V is "
            "not finite")
        assert not (out / "equilibria.json").exists()


class TestSimulate:
    def test_default_run_is_double_scroll(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           integration=SHORT_INTEGRATION)
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "classification.json").read_text())
        assert summary["label"] == "double_scroll"
        assert summary["n_events"] == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t_s,v1_V,v2_V,iL_A"
        assert len(lines) == summary["n_samples"] + 1

    def test_equilibrium_start_is_fixed_point(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           integration=SHORT_INTEGRATION,
                           initial_state=[0.0, 0.0, 0.0])
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "classification.json").read_text())
        assert summary["label"] == "fixed_point"

    def test_soa_abort_exits_5_with_events(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml",
            components={"r": 7643.0, "r_n": 685.6, "l": 0.41,
                        "c1": 1e-8, "c2": 1e-7},
            integration={"t_end": 0.01, "t_transient": 0.0,
                         "soa_policy": "abort"})
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 5
        events = (out / "events.csv").read_text().splitlines()
        assert len(events) >= 2
        assert (out / "trajectory.csv").exists()

    def test_failed_reference_design_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", design=FAILED_DESIGN,
                           integration=SHORT_INTEGRATION)
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 4
        assert "all-unstable" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_infinite_horizon_is_parse_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml",
                           integration={"t_end": float("inf")})
        assert ".inf" in (tmp_path / "c.yaml").read_text()
        rc = cli.main(["simulate", "--config", cfg,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "t_end must be finite" in capsys.readouterr().err

    def test_dropped_events_warn_once(self, tmp_path, monkeypatch, capsys):
        # a +-50 mV device window that the double scroll crosses every swing
        cfg = write_config(
            tmp_path / "c.yaml",
            device={"coefficients": list(REF_COEFFS), "v_set": 0.05,
                    "v_stop": 0.05},
            components={"r": 7643.0, "r_n": 6856.0, "l": 0.41,
                        "c1": 1e-8, "c2": 1e-7},
            integration={"t_end": 0.02, "t_transient": 0.0})
        monkeypatch.setattr(kernels, "rk4_trajectories",
                            kernels.PURE_KERNELS["rk4_trajectories"])
        monkeypatch.setattr(kernels, "_EV_CAP", 2)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1 and "events past" in err
        assert len((out / "events.csv").read_text().splitlines()) == 3
        summary = json.loads((out / "classification.json").read_text())
        assert summary["n_events"] == 2
        assert not any("drop" in key for key in summary)

    def test_adaptive_method_runs(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           integration={"method": "rk45", "t_end": 0.05,
                                        "t_transient": 0.01})
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "classification.json").read_text())
        assert summary["label"] == "double_scroll"


SMALL_SWEEP = {"n_points": 4, "sigma": 0.05, "seed": 11, "workers": 1,
               "r_lo_frac": 0.4, "r_hi_frac": 1.3}


class TestSweep:
    def test_single_point_matches_simulate_extrema(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml",
            integration=SHORT_INTEGRATION,
            sweep={"n_points": 1, "sigma": 0.0, "r_lo_frac": 1.0,
                   "r_hi_frac": 1.0})
        sweep_out = tmp_path / "sw"
        sim_out = tmp_path / "sim"
        assert cli.main(["sweep", "--config", cfg, "--out", str(sweep_out)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0

        rows = (sweep_out / "bifurcation.csv").read_text().splitlines()[1:]
        sweep_vals = np.array([float(r.split(",")[1]) for r in rows])
        data = np.genfromtxt(sim_out / "trajectory.csv", delimiter=",",
                             skip_header=1)
        direct = np.array([e.value
                           for e in m.local_extrema(data[:, 0], data[:, 1])])
        assert np.array_equal(sweep_vals, direct)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           integration=SHORT_INTEGRATION, sweep=SMALL_SWEEP)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out_a)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "bifurcation.csv").read_bytes() == \
            (out_b / "bifurcation.csv").read_bytes()
        assert (out_a / "sweep_summary.json").read_bytes() == \
            (out_b / "sweep_summary.json").read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           integration=SHORT_INTEGRATION, sweep=SMALL_SWEEP)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out_a),
                         "--seed", "11"]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(out_b),
                         "--seed", "12"]) == 0
        assert (out_a / "bifurcation.csv").read_bytes() != \
            (out_b / "bifurcation.csv").read_bytes()

    def test_summary_lists_every_point(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           integration=SHORT_INTEGRATION, sweep=SMALL_SWEEP)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert len(summary) == SMALL_SWEEP["n_points"]
        rs = [p["r_prog_ohm"] for p in summary]
        assert rs == sorted(rs)

    def test_redesign_failures_name_the_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", design={"v_eq": 1.5},
                           integration=SHORT_INTEGRATION,
                           sweep={**SMALL_SWEEP, "n_points": 2})
        out = tmp_path / "out"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out),
                       "--mode", "redesign"])
        assert rc == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all("inconclusive: design failure: safe-window" in line
                   for line in err)
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert [sorted(p) for p in summary] == [sorted(
            ["r_prog_ohm", "label", "scroll_side", "lambda1_per_s",
             "n_extrema", "span_V", "seed", "soa"])] * 2

    def test_window_abort_is_named(self, tmp_path, capsys):
        # at 2x the reference resistance the orbit leaves the device window
        cfg = write_config(
            tmp_path / "c.yaml",
            integration={"t_end": 0.01, "t_transient": 0.005,
                         "soa_policy": "abort"},
            sweep={**SMALL_SWEEP, "n_points": 1, "sigma": 0.0,
                   "r_lo_frac": 2.0, "r_hi_frac": 2.0})
        rc = cli.main(["sweep", "--config", cfg, "--out",
                       str(tmp_path / "out")])
        assert rc == 5
        err = capsys.readouterr().err
        assert "inconclusive: record stopped at the first window crossing" \
            in err

    @pytest.mark.parametrize("block, error", [
        ({"n_points": 0}, "sweep.n_points must be >= 1"),
        ({"n_points": "two"},
         "config.sweep.n_points: expected an integer, got 'two'"),
        ({"r_lo": 2000.0, "r_hi": 1000.0}, "needs 0 < r_lo <= r_hi"),
        ({"mode": "foo"}, "sweep.mode must be fixed|redesign"),
        ({"sigma": -0.5}, "sweep.sigma must be finite and >= 0"),
        ({"sigma": float("nan")}, "sweep.sigma must be finite and >= 0"),
        # finite, but a lognormal factor of the second point overflows;
        # the first point's huge coefficients diverge
        ({"sigma": 1000.0, "n_points": 2}, None),
    ], ids=["n0", "n-text", "range", "mode", "sigma-neg", "sigma-nan",
            "sigma-huge"])
    def test_bad_sweep_block(self, tmp_path, capsys, block, error):
        cfg = write_config(tmp_path / "c.yaml",
                           integration=SHORT_INTEGRATION, sweep=block)
        rc = cli.main(["sweep", "--config", cfg,
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        if error is not None:
            assert rc == 2
            assert len(err) == 1 and err[0].startswith("input error:")
            assert error in err[0]
        else:
            # a diverged point is a verdict, so the sweep succeeds and only
            # the overflow point, still inconclusive, gives its reason
            assert rc == 0
            assert len(err) == 1
            assert err[0].endswith("inconclusive: perturbed coefficients "
                                   "not finite: overflow encountered in exp")
            summary = json.loads((tmp_path / "out" / "sweep_summary.json")
                                 .read_text())
            assert [p["label"] for p in summary] == ["diverged",
                                                     "inconclusive"]

    def test_failed_reference_design_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", design=FAILED_DESIGN,
                           integration=SHORT_INTEGRATION, sweep=SMALL_SWEEP)
        out = tmp_path / "out"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 4
        assert "all-unstable" in capsys.readouterr().err
        assert not (out / "bifurcation.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("override, error", [
    ({"lyapunov": {"d0": -1.0}}, "lyapunov.d0 must be finite and > 0"),
    ({"lyapunov": {"d0": 0.0}}, "lyapunov.d0 must be finite and > 0"),
    ({"lyapunov": {"d0": float("nan")}}, "lyapunov.d0 must be finite and > 0"),
    ({"lyapunov": {"d0": float("inf")}}, "lyapunov.d0 must be finite and > 0"),
    ({"initial_state": [float("nan"), 0.0, 0.0]},
     "initial_state must be finite"),
    ({"initial_state": [0.1, float("inf"), 0.0]},
     "initial_state must be finite"),
], ids=["d0-neg", "d0-zero", "d0-nan", "d0-inf", "init-nan", "init-inf"])
def test_bad_start_value_is_parse_error(tmp_path, capsys, command, override,
                                        error):
    # each once ended in a traceback (exit 1), or for d0 = nan in a run
    # that reported no exponent
    cfg = write_config(tmp_path / "c.yaml", integration=SHORT_INTEGRATION,
                       sweep=SMALL_SWEEP, **override)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert error in err[0]
    assert not out.exists()


COMPONENTS = {"r": 7643.0, "r_n": 6856.0, "l": 0.41, "c1": 1.0e-8,
              "c2": 1.0e-7}
NUMERIC_KEYS = (
    [("device", k) for k in ("r_prog", "v_set", "v_stop")]
    + [("design", k) for k in cli.CONFIG_TABLE["design"]]
    + [("integration", k) for k in cli.CONFIG_TABLE["integration"]
       if k not in ("method", "soa_policy")]
    + [("analysis", k) for k in cli.CONFIG_TABLE["analysis"]]
    + [("lyapunov", "d0")]
    + [("sweep", k) for k in cli.CONFIG_TABLE["sweep"] if k != "mode"]
    + [("components", k) for k in COMPONENTS])
INTEGER_KEYS = {"record_stride", "max_periodic_clusters", "min_samples",
                "n_points", "seed", "workers"}


def bad_value_error(tmp_path, capsys, overrides):
    """The stderr lines of `memchua equilibria` on a config with
    `overrides`, which must exit 2."""
    cfg = write_config(tmp_path / "c.yaml", **overrides)
    out = tmp_path / "out"
    assert cli.main(["equilibria", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("block, key", NUMERIC_KEYS,
                         ids=[f"{b}.{k}" for b, k in NUMERIC_KEYS])
def test_bad_number_names_its_key(tmp_path, capsys, block, key):
    section = {key: "two"}
    if block == "device":
        # v_set and v_stop are read where the coefficients are given
        section["coefficients"] = [float(c) for c in REF_COEFFS]
    elif block == "components":
        section = {**COMPONENTS, key: "two"}
    noun = "an integer" if key in INTEGER_KEYS else "a number"
    assert bad_value_error(tmp_path, capsys, {block: section}) == [
        f"input error: config.{block}.{key}: expected {noun}, got 'two'"]


@pytest.mark.parametrize("overrides, error", [
    ({"initial_state": [0.1, "two", 0.0]},
     "config.initial_state[1]: expected a number, got 'two'"),
    ({"initial_state": "0.1"},
     "config.initial_state: expected a list of numbers, got '0.1'"),
    ({"device": {"coefficients": [1e-6, 0.0, "two", 0.0, 0.0]}},
     "config.device.coefficients[2]: expected a number, got 'two'"),
    ({"device": {"coefficients": 1e-6}},
     "config.device.coefficients: expected a list of numbers, got 1e-06"),
    ({"sweep": {"n_points": float("inf")}},
     "config.sweep.n_points: expected an integer, got inf"),
], ids=["init-entry", "init-text", "coefficient", "coefficients-number",
        "n-inf"])
def test_bad_list_names_its_entry(tmp_path, capsys, overrides, error):
    assert bad_value_error(tmp_path, capsys, overrides) == [
        f"input error: {error}"]


def test_zero_component_resistance_is_parse_error(tmp_path, capsys):
    # 1 / r once raised ZeroDivisionError: a traceback, exit 1
    assert bad_value_error(tmp_path, capsys,
                           {"components": {**COMPONENTS, "r": 0.0}}) == [
        "input error: config.components.r must be nonzero, got 0.0"]


@pytest.mark.parametrize("overrides, error", [
    # an integer key takes no fraction, and no key takes a boolean
    ({"sweep": {"n_points": 2.5}},
     "config.sweep.n_points: expected an integer, got 2.5"),
    ({"integration": {"record_stride": 2.9}},
     "config.integration.record_stride: expected an integer, got 2.9"),
    ({"sweep": {"workers": True}},
     "config.sweep.workers: expected an integer, got True"),
    ({"schema": True}, "config.schema: expected an integer, got True"),
    ({"design": {"v_eq": True}},
     "config.design.v_eq: expected a number, got True"),
    ({"out_dir": None}, "config.out_dir: expected a string, got None"),
    ({"sweep": {"seed": -1}}, "config.sweep.seed must be >= 0, got -1"),
    ({"sweep": {"workers": 0}}, "config.sweep.workers must be >= 1, got 0"),
    # integers that once ended in an OverflowError or a numpy allocation
    # error: a traceback, exit 1
    ({"integration": {"record_stride": 10**30}},
     f"config.integration.record_stride must be <= 2**63 - 1, got {10**30}"),
    ({"sweep": {"n_points": 3_000_000_000}},
     "config.sweep.n_points must be >= 1 and <= 100000, got 3000000000"),
    ({"sweep": {"n_points": 10**23}},
     f"config.sweep.n_points must be >= 1 and <= 100000, got {10**23}"),
    ({"schema": 2}, "config.schema must be 1, got 2"),
    ({"integration": {"method": "euler"}},
     "config.integration.method must be rk4|rk45, got 'euler'"),
    # every key a config gives is checked, whether or not the run reads it
    ({"components": {**COMPONENTS, "foo": 1.0}},
     "unknown key config.components.foo"),
    ({"components": {k: v for k, v in COMPONENTS.items() if k != "c2"}},
     "config.components.c2 is required"),
    ({"components": {}}, "config.components.r is required"),
    ({"device": {"v_set": "two"}},
     "config.device.v_set: expected a number, got 'two'"),
    ({"sweep": {"r_lo": 2.0e5, "r_lo_frac": "x"}},
     "config.sweep.r_lo_frac: expected a number, got 'x'"),
    ({"sweep": {"r_lo": 2.0e5, "r_lo_frac": -1.0}},
     "config.sweep.r_lo_frac must be finite and > 0, got -1.0"),
    ({"device": {"coefficients": [1e-6, 0.0, 0.0]}},
     "config.device.coefficients must have 5 entries, got [1e-06, 0.0, 0.0]"),
    ({"initial_state": [0.1, 0.0]},
     "config.initial_state must be finite and have 3 entries, got [0.1, 0.0]"),
    ({"sweep": {"r_lo": 0, "r_hi": 1000.0}},
     "config.sweep: needs 0 < r_lo <= r_hi < inf, got r_lo=0.0 ohm, "
     "r_hi=1000.0 ohm"),
    ({"sweep": [1, 2]}, "config.sweep must be a mapping"),
    # the library's own checks name the block they read
    ({"integration": {"dt": -1.0}},
     "config.integration: dt must be positive, got -1.0"),
    ({"analysis": {"min_samples": 2}},
     "config.analysis: cluster cap must be >= 1 and min_samples >= 3"),
    ({"design": {"alpha": -1.0}},
     "config.design: v_eq, c1, alpha and beta must all be positive"),
    ({"device": {"r_prog": -5.0}},
     "config.device: r_prog must be positive and finite, got -5.0"),
    ({"components": {**COMPONENTS, "c1": -1.0e-8}},
     "config.components: c1, c2 and l must be positive"),
], ids=["n-fraction", "stride-fraction", "workers-bool", "schema-bool",
        "v_eq-bool", "out_dir-null", "seed-negative", "workers-zero",
        "stride-huge", "n-huge", "n-huger", "schema-2",
        "method", "components-extra", "components-missing",
        "components-empty", "v_set-unread", "r_lo_frac-unread",
        "r_lo_frac-negative", "coefficients-short", "init-short",
        "r_lo-zero", "block-list", "integration", "analysis", "design",
        "device", "components"])
def test_rejected_config_names_its_key(tmp_path, capsys, overrides, error):
    assert bad_value_error(tmp_path, capsys, overrides) == [
        f"input error: {error}"]


@pytest.mark.parametrize("flags, section, error", [
    (["--seed", "-1"], {}, "config.sweep.seed must be >= 0, got -1"),
    ([], {"seed": -1}, "config.sweep.seed must be >= 0, got -1"),
    (["--workers", "two"], {},
     "config.sweep.workers: expected an integer, got 'two'"),
    (["--mode", "foo"], {}, "config.sweep.mode must be fixed|redesign, "
                            "got 'foo'"),
], ids=["seed-flag", "seed-config", "workers-flag", "mode-flag"])
def test_sweep_flags_are_checked_as_config(tmp_path, capsys, flags, section,
                                           error):
    # a negative seed once reached np.random.default_rng: a traceback
    cfg = write_config(tmp_path / "c.yaml", integration=SHORT_INTEGRATION,
                       sweep={**SMALL_SWEEP, **section})
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                     *flags]) == 2
    assert capsys.readouterr().err.splitlines() == [f"input error: {error}"]
    assert not out.exists()


def test_sweep_flags_override_the_config(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "sweep",
                        lambda *args, **kwargs: calls.append(kwargs) or [])
    cfg = write_config(tmp_path / "c.yaml", sweep={"seed": 3, "workers": 2})
    cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
              "--seed", "5", "--mode", "redesign"])
    assert [(c["seed"], c["mode"], c["workers"]) for c in calls] == [
        (5, "redesign", 2)]


def test_integral_floats_are_integers(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", schema=1.0,
                       sweep={"n_points": 32.0, "seed": "7"},
                       integration={"record_stride": 5.0})
    rc = cli.load_config(cfg)
    assert (rc.sweep["n_points"], rc.sweep["seed"],
            rc.integration.record_stride) == (32, 7, 5)
    assert all(type(v) is int for v in (rc.sweep["n_points"],
                                        rc.integration.record_stride))


def test_defaults_are_the_library_defaults():
    rc = cli.load_config(None)
    assert rc.integration == m.IntegrationConfig()
    assert rc.analysis == m.AnalysisConfig()
    # the defaults pass the table's own conversions and checks
    assert cli._convert(cli.CONFIG_TABLE, cli._DEFAULTS,
                        cli._DEFAULTS) == cli._DEFAULTS


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_config_loads(tmp_path, monkeypatch):
    text = README.read_text()
    example = text.split("```yaml\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    m.save_state_table("states.csv", m.reference_table().states)
    (tmp_path / "c.yaml").write_text(example)
    rc = cli.load_config("c.yaml")
    assert rc.state.r_prog == 300e3
    assert rc.sweep["n_points"] == 32


def test_readme_lists_every_key():
    listed = set(re.findall(r"^\| `([a-z_.0-9]+)` \|", README.read_text(),
                            flags=re.M))
    keys = set()
    for block, table in cli.CONFIG_TABLE.items():
        keys |= ({f"{block}.{key}" for key in table}
                 if isinstance(table, dict) else {block})
    assert listed == keys


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedOutputs:
    """Digests recorded from earlier kernels: the RK4 ones from separate
    recorder and exponent passes, the rk45 ones from the DOPRI5 kernel
    that evaluated all seven stages of every step and the RK4 kernel that
    called its field closure eight times per step. The current kernels
    must reproduce them byte for byte."""

    def test_fixed_mode_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml",
            integration={"t_end": 0.02, "t_transient": 0.005},
            sweep={"mode": "fixed", "n_points": 3, "sigma": 0.1, "seed": 5,
                   "workers": 1, "r_lo_frac": 0.4, "r_hi_frac": 1.3})
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert sha256(out / "bifurcation.csv") == (
            "1e2b43bf893adf15063791ec74c0a7d9e58a444f5875d683f8c1716b7df75df2")
        assert sha256(out / "sweep_summary.json") == (
            "75da3e0ab214de28f9f7ad42b2c0eee3b4410db3da02da9a5a4211ce0d54bb78")

    def test_rk4_simulate(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml",
            integration={"method": "rk4", "t_end": 0.02,
                         "t_transient": 0.005})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert sha256(out / "classification.json") == (
            "53b4b8c685cf559d464605999e5ea95e98dd4edc201481bee8d2650453a686d0")
        assert sha256(out / "trajectory.csv") == (
            "7f600a47d3a228269b4a365dd111b357cb1fa0bd09634761726bfef0843f7678")

    def test_rk45_simulate(self, tmp_path):
        # the adaptive path: DOPRI5 records, the shadow-only RK4 call
        # estimates the exponent
        cfg = write_config(
            tmp_path / "c.yaml",
            integration={"method": "rk45", "t_end": 0.02,
                         "t_transient": 0.005})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert sha256(out / "classification.json") == (
            "7db43ee10eb1ae08b037c7f4a3fb71048ab1e34b0372f1b969aa8368a1bcd5ef")
        assert sha256(out / "trajectory.csv") == (
            "7f3124e0cacff0b3adce1757a16ede3f087a706e606176e26d881591acec7ac6")

    def test_rk45_simulate_window_crossing(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml",
            components={"r": 7643.0, "r_n": 685.6, "l": 0.41,
                        "c1": 1e-8, "c2": 1e-7},
            integration={"method": "rk45", "t_end": 0.01,
                         "t_transient": 0.0})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert sha256(out / "classification.json") == (
            "4ef7e2b1f82e34a2927cf71be977408c1ef2b37b9f18af37fa9f75e00c219a7c")
        assert sha256(out / "trajectory.csv") == (
            "ef0e159e3ed2f8b41be182f8df8b2aed9e77b01726492d34bfff8a3fca235316")
        assert sha256(out / "events.csv") == (
            "11f19886e0af659342e470ee610221d646d4ff43039108a2b6af18209aa62708")


RK45 = {"method": "rk45", "t_end": 0.02, "t_transient": 0.005}
# a linear 0.1 mS device against g_n = 1.46 mS: the net negative
# conductance makes the start swing outward until it diverges
DIVERGENT = {"device": {"coefficients": [1.0e-4, 0.0, 0.0, 0.0, 0.0]},
             "components": {"r": 7643.0, "r_n": 685.6, "l": 0.41,
                            "c1": 1.0e-8, "c2": 1.0e-7},
             "integration": {**RK45, "t_transient": 0.0}}


class TestRk45Overlap:
    """rk45 `simulate` runs its exponent pass on a helper thread while the
    main thread records the run and writes its CSVs. Outputs, exit codes
    and stderr are those of the serial calls, and the thread is joined
    before the command returns, on every path."""

    def simulate(self, tmp_path, capsys, **overrides):
        """(exit code, classification.json or None, stderr) of one run,
        with the count of live threads checked around it."""
        cfg = write_config(tmp_path / "c.yaml", **overrides)
        threads = threading.active_count()
        code = cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert threading.active_count() == threads
        summary = tmp_path / "out" / "classification.json"
        return (code, json.loads(summary.read_text()) if summary.exists()
                else None, capsys.readouterr().err)

    def test_outputs_match_serial_calls(self, tmp_path, capsys, backend):
        code, _, err = self.simulate(tmp_path, capsys, integration=RK45)
        assert (code, err) == (0, "")
        rc = cli.load_config(tmp_path / "c.yaml")
        params, eqs = cli._resolve_circuit(rc)
        traj = integrate_adaptive(params, rc.initial_state, rc.integration)
        lam = analysis.largest_lyapunov(params, rc.initial_state,
                                        rc.integration, d0=rc.lyap_d0)
        verdict = analysis.classify(traj, eqs, rc.analysis,
                                    lambda1=lam.lambda1,
                                    time_unit=params.time_unit)
        cli._write_json(tmp_path / "serial.json", {
            **verdict.as_dict(), "lambda1_dimensionless": lam.dimensionless,
            "n_events": len(traj.events), "n_samples": len(traj.times)})
        write_trajectory_csv(tmp_path / "serial.csv", traj)
        out = tmp_path / "out"
        assert ((out / "classification.json").read_bytes()
                == (tmp_path / "serial.json").read_bytes())
        assert ((out / "trajectory.csv").read_bytes()
                == (tmp_path / "serial.csv").read_bytes())

    def test_exponent_pass_runs_on_a_helper_thread(self, tmp_path, capsys,
                                                   monkeypatch):
        callers = []

        def recording(*args, **kwargs):
            callers.append(threading.get_ident())
            return analysis.largest_lyapunov(*args, **kwargs)

        monkeypatch.setattr(cli, "largest_lyapunov", recording)
        code, summary, _ = self.simulate(tmp_path, capsys, integration=RK45)
        assert code == 0 and summary["lambda1_per_s"] is not None
        assert len(callers) == 1 and callers[0] != threading.get_ident()

    def test_step_limit_keeps_its_failure(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(cli, "integrate_adaptive", lambda p, x, cfg: (
            integrate_adaptive(p, x, dataclasses.replace(cfg, max_steps=300))))
        code, summary, err = self.simulate(tmp_path, capsys,
                                           integration=RK45)
        failure = "exceeded max_steps=300 before reaching t_end"
        assert code == 5
        assert summary["integration_failure"] == failure
        assert summary["lambda1_per_s"] is None
        assert err == f"runtime failure: {failure}\n"

    def test_divergent_run_has_no_exponent(self, tmp_path, capsys):
        code, summary, err = self.simulate(tmp_path, capsys, **DIVERGENT)
        assert code == 5 and err == "runtime failure: diverged\n"
        assert "integration_failure" not in summary
        assert summary["lambda1_per_s"] is None

    def test_no_complete_interval_has_no_exponent(self, tmp_path, capsys):
        # the renormalization interval R*C2 is about 0.76 ms
        code, summary, err = self.simulate(
            tmp_path, capsys, integration={**RK45, "t_end": 0.001,
                                           "t_transient": 0.0005})
        assert (code, err) == (0, "")
        assert summary["lambda1_per_s"] is None

    @pytest.mark.parametrize("overrides, code, err", [
        ({"integration": RK45}, 5, "runtime failure: exponent failed\n"),
        (DIVERGENT, 5, "runtime failure: diverged\n"),
    ], ids=["surfaces", "discarded-after-divergence"])
    def test_other_exponent_errors(self, tmp_path, capsys, monkeypatch,
                                   overrides, code, err):
        def failing(*args, **kwargs):
            raise m.IntegrationError("exponent failed")

        monkeypatch.setattr(cli, "largest_lyapunov", failing)
        got_code, _, got_err = self.simulate(tmp_path, capsys, **overrides)
        assert (got_code, got_err) == (code, err)

    def test_record_pass_error_joins_the_thread(self, tmp_path, capsys,
                                                monkeypatch):
        def failing(*args):
            raise m.IntegrationError("record failed")

        monkeypatch.setattr(cli, "integrate_adaptive", failing)
        assert self.simulate(tmp_path, capsys, integration=RK45) == (
            5, None, "runtime failure: record failed\n")
        assert not (tmp_path / "out" / "trajectory.csv").exists()


class TestRunLimits:
    """Runs that would never end, or end in a traceback, exit 5 with a
    message."""

    @pytest.mark.parametrize("integration", [
        {"method": "rk45", "dt": 1.0e-20},
        {"method": "rk4", "dt": 1.0e-20, "record_stride": 10**18},
        {"method": "rk45", "dt": 1.0e-30},
    ], ids=["rk45", "rk4-no-row-cap", "rk45-past-int64"])
    def test_step_cap_refuses_before_the_kernel(self, tmp_path, capsys,
                                                monkeypatch, integration):
        # rk45 checks the cap of its RK4 exponent pass before its DOPRI5
        # record pass starts
        def never(*args):
            raise AssertionError("a kernel ran past the step cap")

        monkeypatch.setattr(kernels, "rk4_trajectories", never)
        monkeypatch.setattr(cli, "integrate_adaptive", never)
        cfg = write_config(tmp_path / "c.yaml", integration={
            "t_end": 0.02, "t_transient": 0.005, **integration})
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: run would take ")
        assert "RK4 steps, above the cap of 20000000 (max_steps)" in err
        assert not list(tmp_path.glob("out/*.csv"))

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_start_past_divergence_bounds(self, tmp_path, capsys, method):
        # 3 kV is past the reference design's 2.6 kV ceiling; before, rk45
        # went on to a step size underflow. The run kept fewer than
        # min_samples samples, and is labelled diverged all the same
        cfg = write_config(tmp_path / "c.yaml",
                           initial_state=[3000.0, 0.0, 0.0],
                           integration={**RK45, "method": method,
                                        "t_transient": 0.0})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 5
        assert capsys.readouterr().err == "runtime failure: diverged\n"
        summary = json.loads((out / "classification.json").read_text())
        assert summary["label"] == "diverged"
        assert "integration_failure" not in summary
        assert summary["lambda1_per_s"] is None
        events = (out / "events.csv").read_text().splitlines()
        assert events[1] == "0.0,soa_high,3000.0"
        assert events[-1].split(",")[1] == "diverged"
        if method == "rk45":
            assert events[2:] == ["0.0,diverged,3000.0"]


class TestOutOfRange:
    """Finite inputs that take a sized component or a step count past the
    float range end with a documented exit code and a one-line message."""

    HORIZON = {"t_end": 0.002, "t_transient": 0.0005}

    @pytest.mark.parametrize("command", ["design", "equilibria", "simulate",
                                         "sweep"])
    def test_tiny_conductance_exits_4(self, tmp_path, capsys, command):
        # g is about 6e-307 S, so g * g underflows to 0
        cfg = write_config(tmp_path / "c.yaml", device={"r_prog": 1.0e308},
                           integration=self.HORIZON, sweep={"n_points": 2})
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("design failure: component-range: a sized "
                              "component underflows to 0")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, method", [
        ("simulate", "rk4"), ("simulate", "rk45"), ("sweep", "rk4")])
    def test_huge_c1_has_no_exponent(self, tmp_path, capsys, backend,
                                     command, method):
        # the renormalization interval, R*C2, is about 1e305 steps long
        cfg = write_config(tmp_path / "c.yaml", design={"c1": 1.0e300},
                           integration={**self.HORIZON, "method": method},
                           sweep={"n_points": 2})
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) in (0, 5)
        if command == "simulate":
            assert "lambda1*tau=n/a" in capsys.readouterr().out
            summaries = [json.loads(
                (out / "classification.json").read_text())]
        else:
            summaries = json.loads((out / "sweep_summary.json").read_text())
        assert all(s["lambda1_per_s"] is None for s in summaries)

    def test_underflowing_beta_is_null(self, designed):
        tiny = dataclasses.replace(designed.params, l=1e-300, g=1e-20)
        report = cli._report_dict(dataclasses.replace(designed, params=tiny))
        assert report["beta"] is None

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(["design", "equilibria", "simulate",
                                    "sweep"]),
           overrides=st.dictionaries(
               st.sampled_from([("design", "v_eq"), ("design", "c1"),
                                ("design", "alpha"), ("design", "beta"),
                                ("device", "r_prog"), ("lyapunov", "d0"),
                                ("sweep", "r_lo"), ("sweep", "r_hi")]),
               st.one_of(st.floats(5e-324, 1e300), st.floats(
                   -323.3, 300.0).map(lambda e: 10.0 ** e)),
               min_size=1))
    # below about 3e-303 ohm the 1/R law overflows the reference
    # device's coefficients
    @example(command="sweep", overrides={("sweep", "r_lo"): 1.0e-304})
    def test_any_finite_positive_value_exits_documented(self, command,
                                                         overrides):
        cfg = {"schema": 1, "integration": self.HORIZON,
               "sweep": {"n_points": 2}}
        for (block, key), value in overrides.items():
            cfg.setdefault(block, {})[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(cfg, fh)
            code = cli.main([command, "--config", path,
                             "--out", os.path.join(tmp, "out")])
        assert code in (0, 2, 3, 4, 5)


class TestOneEquilibriumSolve:
    """Each command solves for a circuit's equilibria once: the design
    report carries the points its checks used."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        real = circuit.find_equilibria

        def counting(params):
            calls.append(params)
            return real(params)

        for module in (analysis, circuit, cli, design):
            monkeypatch.setattr(module, "find_equilibria", counting)
        return calls

    @pytest.mark.parametrize("command, overrides", [
        ("design", {}),
        ("equilibria", {}),
        ("equilibria", {"components": COMPONENTS}),
        ("simulate", {"integration": {**SHORT_INTEGRATION, "method": "rk4"}}),
        ("simulate", {"integration": {**SHORT_INTEGRATION,
                                      "method": "rk45"}}),
        ("simulate", {"integration": SHORT_INTEGRATION,
                      "components": COMPONENTS}),
    ], ids=["design", "equilibria", "equilibria-components", "simulate-rk4",
            "simulate-rk45", "simulate-components"])
    def test_one_solve_per_command(self, tmp_path, solves, command,
                                   overrides):
        cfg = write_config(tmp_path / "c.yaml", **overrides)
        assert cli.main([command, "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        assert len(solves) == 1

    def test_one_solve_per_redesign_point(self, tmp_path, solves):
        cfg = write_config(tmp_path / "c.yaml", integration=SHORT_INTEGRATION,
                           sweep=SMALL_SWEEP)
        assert cli.main(["sweep", "--config", cfg, "--mode", "redesign",
                         "--out", str(tmp_path / "out")]) == 0
        assert len(solves) == SMALL_SWEEP["n_points"]
        assert len({id(params) for params in solves}) == len(solves)
