#!/usr/bin/env python3
"""End-to-end benchmark of memchua's CLI workloads, with a traced mode.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|simulate|characterize \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

Every operation runs in this process through ``memchua.cli.main`` with
``workers=1``, on the kernel backend the package selects (recorded). Inputs
come only from ``--seed``. Operations run back to back (a closed loop, one
client) until ``--seconds`` have passed (default: BENCHMARK.json's
run_seconds); each CLI call must exit 0 and pass its workload's output
check, else it counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
  setup_s      median of 15 fresh interpreters reaching a ready state
               (perfbench/ready.py), timed from outside;
  items_per_s  median over ops of work items per second of CLI time;
  peak_rss_mb  peak resident memory of this process.
``--trace 1`` runs each op's inputs twice, untraced and traced in alternating
order, and reports the per-layer metrics from the traced copies (see
perfbench/tracing.py and perfbench/predictions.json).

Before the timed loop every run compares the digests of one fixed-input op
with perfbench/golden_digests.json (``cli.outputs_identical``), and the sweep
workload runs one small seeded sweep at workers=1 and workers=2, whose
bifurcation.csv files must be byte-identical. Neither is timed.

The last stdout line is the result JSON; everything else about the run
(environment, failures, every output digest, spans) goes to
perfbench/work/<workload>-trace<0|1>/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden_digests.json"
SETUP_SAMPLES = 15
SETUP_TIMEOUT_S = 60
CALIBRATION_LOOPS = 1_000_000


def _import_memchua():
    if not (SRC / "memchua" / "__init__.py").is_file():
        sys.exit(f"error: no memchua sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import memchua
    if Path(memchua.__file__).resolve().parent != SRC / "memchua":
        sys.exit(f"error: imported memchua from {memchua.__file__}, "
                 f"not from {SRC}")


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _git_commit():
    """The checkout's commit read from .git, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibrate():
    """Best-of-3 seconds of a fixed pure-Python loop: the host's speed at
    that moment, kept in the record so a shift in host speed shows there."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def environment(seed):
    import numpy as np
    from memchua import kernels
    return {
        "use_numba": bool(kernels.USE_NUMBA),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


class Runner:
    """Makes CLI calls, checks them, and keeps the failure ledger."""

    def __init__(self, digest_log=None):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest_log = digest_log

    def fail(self, argv, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"argv": argv, "why": why})
        print(f"FAILED memchua {' '.join(argv)}: {why}", file=sys.stderr)

    def call(self, call):
        """One CLI call; returns its wall seconds, or None when it failed."""
        from memchua import cli
        self.attempted += 1
        for path in call.outputs:  # so a check never reads an earlier op's file
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(call.argv)
                except SystemExit as exc:
                    rc = exc.code
                seconds = time.perf_counter() - t0
        except Exception:  # noqa: BLE001 - a traceback is a failed operation
            self.fail(call.argv, traceback.format_exc())
            return None
        if rc != 0:
            self.fail(call.argv, f"exit code {rc}: {err.getvalue().strip()}")
            return None
        try:
            why = call.check()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            why = f"unreadable output: {exc!r}"
        if why is not None:
            self.fail(call.argv, why)
            return None
        if self.digest_log is not None:
            self.digest_log.write(json.dumps(
                {"command": call.argv[0],
                 "sha256": {p.name: sha256(p) for p in call.outputs}}) + "\n")
        return seconds

    def op(self, op):
        """All calls of one op; returns CLI seconds, or None on a failure."""
        total = 0.0
        for call in op.calls:
            seconds = self.call(call)
            if seconds is None:
                return None
            total += seconds
        return total


def measure_setup():
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "ready.py"), str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return statistics.median(samples), samples


def golden_outputs(workload, runner, work):
    op = workload.golden(work)
    if runner.op(op) is None:
        return {}
    return {f"{workload.name}/{p.name}": sha256(p)
            for call in op.calls for p in call.outputs}


def check_determinism(workload, runner, rng, work):
    """workers=2 must write the same bifurcation.csv as workers=1."""
    calls = workload.determinism(rng, work)
    if any(runner.call(c) is None for c in calls):
        return False
    one, two = (c.outputs[0].read_bytes() for c in calls)
    if one != two:
        runner.fail(calls[1].argv, "bifurcation.csv differs from workers=1")
        return False
    return True


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)


def timed_loop(args, workload, runner, rng, work):
    """Ops back to back for args.seconds; returns the metrics it measured."""
    from tracing import Tracer, layer_metrics
    tracer = Tracer() if args.trace else None
    rates, plain_s, traced_s = [], [], []
    traced_wall = 0.0
    traced_items = 0
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < args.seconds:
        op = workload.op(rng, work)
        if not args.trace:
            seconds = runner.op(op)
            if seconds is not None:
                rates.append(op.items / seconds)
            k += 1
            continue
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.op = k
                t0 = time.perf_counter()
                tracer.install()
                try:
                    seconds = runner.op(op)
                finally:
                    tracer.uninstall()
                traced_wall += time.perf_counter() - t0
                traced_items += op.items
            else:
                seconds = runner.op(op)
            if seconds is not None:
                (traced_s if traced else plain_s).append(seconds)
        k += 1
    print(f"{k} ops in {time.perf_counter() - start:.3f} s")

    if not args.trace:
        q = quartiles(rates)
        print(f"items_per_s median {q[1]:.6g} quartiles {q[0]:.6g} "
              f"{q[2]:.6g} over {len(rates)} ops")
        return {
            "items_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    tracer.write(work / "spans.jsonl")
    if tracer.observe_errors:
        print(f"trace: {tracer.observe_errors} observer errors",
              file=sys.stderr)
    metrics = layer_metrics(tracer.spans, traced_items, traced_wall)
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        if traced_s and plain_s else 0.0)
    return metrics


def run(args, spec):
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = BENCH / "work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = np.random.default_rng(args.seed)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed)}
    print("env " + json.dumps(record["env"], sort_keys=True))
    calibration = [calibrate()]

    metrics = {}
    if not args.trace:
        metrics["setup_s"], record["setup_samples_s"] = measure_setup()

    with open(work / "digests.jsonl", "w") as digest_log:
        runner = Runner(digest_log)
        want = json.loads(GOLDEN.read_text())
        got = golden_outputs(workload, runner, work)
        expected = {k: v for k, v in want.items()
                    if k.startswith(workload.name + "/")}
        identical = sum(got.get(k) == v for k, v in expected.items())
        record["golden"] = {"identical": identical, "of": len(expected),
                            "digests": got}
        print(f"cli.outputs_identical {identical} of {len(expected)}")
        if hasattr(workload, "determinism"):
            record["workers_determinism_ok"] = check_determinism(
                workload, runner, rng, work)
        metrics.update(timed_loop(args, workload, runner, rng, work))

    calibration.append(calibrate())
    record["calibration_s"] = {"loops": CALIBRATION_LOOPS,
                               "start": calibration[0],
                               "end": calibration[1]}
    print(f"calibration {calibration[0]:.4f} s at start, "
          f"{calibration[1]:.4f} s at end")
    metrics["fail_frac"] = runner.failed / max(runner.attempted, 1)
    metrics["cli.outputs_identical"] = float(identical)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"error: benchmark computed no value for {missing}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record.update(failures=runner.failures, result=result)
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


def write_golden():
    from workloads import WORKLOADS
    runner = Runner()
    digests = {}
    for workload in WORKLOADS.values():
        work = BENCH / "work" / "golden"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        digests.update(golden_outputs(workload, runner, work))
    if runner.failed:
        sys.exit("error: a golden op failed; digests not written")
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["sweep", "simulate",
                                               "characterize"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record the fixed-input digests of every "
                             "workload in golden_digests.json and exit")
    args = parser.parse_args()
    _import_memchua()
    if args.write_golden:
        write_golden()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        run(args, spec)


if __name__ == "__main__":
    main()
