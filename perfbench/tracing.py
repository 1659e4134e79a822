"""Span tracer that times memchua's layers from outside the package.

The layers are the package modules. The tracer wraps each layer's public
functions (plus ``analysis._sweep_point``, for per-point attribution) and
rebinds every module-level name that refers to the original function, so
the wrapper sits wherever a caller looks the name up: ``from``-imports such
as ``memchua.analysis.integrate`` or ``memchua.cli.largest_lyapunov`` as
well as attribute lookups such as ``kernels.rk4_trajectory``. No file of the
package changes.

The cli layer is traced at ``main`` and ``load_config`` only, so the self
time of ``cli.main`` is the command work no other layer covers: argument
parsing, output-directory creation and JSON writing.

Each span is ``[name, start, end, parent_index, op_id, attrs]``. Spans stay
in memory and are written out once, when the run ends.
"""

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "device", "circuit", "design", "integrate", "kernels",
          "analysis")
_CLI_FUNCTIONS = ("main", "load_config")
_EXTRA = {"analysis": ("_sweep_point",)}


def _defined_in(value, module_name):
    fn = getattr(value, "py_func", value)  # numba dispatchers keep py_func
    return (inspect.isfunction(fn)
            and getattr(fn, "__module__", None) == module_name)


def _targets(module, layer):
    if layer == "cli":
        return list(_CLI_FUNCTIONS)
    names = [n for n, v in vars(module).items()
             if not n.startswith("_") and _defined_in(v, module.__name__)]
    return sorted(names) + list(_EXTRA.get(layer, ()))


def _np_float_args(bound):
    return sum(isinstance(v, np.floating) for v in bound.values())


def _kernel_steps(bound, out):
    """Steps a fixed-step kernel actually took: n_steps, or up to the last
    event when it stopped early (divergence or window abort)."""
    status = int(out[5])
    if status != 0 and len(out[2]):
        return int(round(float(out[2][-1]) / bound["dt"])), status
    return int(bound["n_steps"]), status


def _observe_rk4(bound, out):
    steps, status = _kernel_steps(bound, out)
    return {"f64": _np_float_args(bound), "steps": steps, "status": status}


def _observe_lyapunov_kernel(bound, out):
    return {"f64": _np_float_args(bound), "steps": int(bound["n_steps"]),
            "status": int(out[2])}


def _observe_dopri(bound, out):
    # with record_stride 1 every accepted step after the transient is a sample
    return {"f64": _np_float_args(bound), "steps": len(out[0]),
            "status": int(out[5])}


def _observe_trajectory(bound, out):
    return {"samples": len(out.times), "diverged": bool(out.diverged)}


def _observe_design(bound, out):
    return {"ok": bool(out.ok)}


def _observe_written(bound, out):
    return {"bytes": os.path.getsize(bound["path"])}


_OBSERVERS = {
    "kernels.rk4_trajectory": _observe_rk4,
    "kernels.benettin_lyapunov": _observe_lyapunov_kernel,
    "kernels.dopri_trajectory": _observe_dopri,
    "integrate.integrate": _observe_trajectory,
    "integrate.integrate_adaptive": _observe_trajectory,
    "design.design_circuit": _observe_design,
    "integrate.write_trajectory_csv": _observe_written,
    "integrate.write_events_csv": _observe_written,
    "analysis.write_bifurcation_csv": _observe_written,
}


class Tracer:
    """Records spans while installed; install() and uninstall() rebind."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.observe_errors = 0
        self._stack = []
        self._patches = []  # (module, attr, original, wrapper)
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "memchua" or n.startswith("memchua.")]
        for layer in LAYERS:
            module = sys.modules["memchua." + layer]
            for attr in _targets(module, layer):
                orig = getattr(module, attr)
                wrapper = self._wrap(f"{layer}.{attr}", orig)
                for m in mods:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._patches.append((m, k, orig, wrapper))

    def install(self):
        for m, k, _, wrapper in self._patches:
            setattr(m, k, wrapper)

    def uninstall(self):
        for m, k, orig, _ in self._patches:
            setattr(m, k, orig)

    def _wrap(self, name, fn):
        observer = _OBSERVERS.get(name)
        signature = (inspect.signature(getattr(fn, "py_func", fn))
                     if observer else None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                span[5] = {"error": type(exc).__name__}
                raise
            span[2] = clock()
            stack.pop()
            if observer is not None:
                span[5] = self._observe(observer, signature, args, kwargs, out)
            return out

        return traced

    def _observe(self, observer, signature, args, kwargs, out):
        # a later signature change must cost a counter, not the traced run
        try:
            return observer(signature.bind(*args, **kwargs).arguments, out)
        except Exception as exc:  # noqa: BLE001 - boundary, reported below
            if self.observe_errors == 0:
                print(f"trace: observer failed: {exc!r}", file=sys.stderr)
            self.observe_errors += 1
            return None

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "op": op,
                                     "parent": parent,
                                     "start_s": t0 - origin,
                                     "end_s": t1 - origin,
                                     "attrs": attrs}) + "\n")


def _mean(values):
    return float(sum(values) / len(values)) if values else 0.0


def _ratio(num, den):
    return float(num / den) if den else 0.0


def layer_metrics(spans, items, traced_wall_s):
    """Per-layer metrics from a finished trace.

    Times ending in ``.s``/``.self_s``/``ms_per_call`` are means per call;
    ``layer.<module>.self_s`` and ``*.calls_per_item`` are per work item;
    rates divide the work counted in the kernel spans by their time.
    """
    n = len(spans)
    child_s = [0.0] * n
    children = [[] for _ in range(n)]
    for i, (_, t0, t1, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += t1 - t0
            children[parent].append(i)

    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_s(i):
        return dur(i) - child_s[i]

    def attrs(i):
        return spans[i][5] or {}

    def calls(name):
        return by_name.get(name, [])

    def rate(name, ok_only=False):
        idx = [i for i in calls(name) if "steps" in attrs(i)
               and (not ok_only or attrs(i)["status"] == 0)]
        return _ratio(sum(attrs(i)["steps"] for i in idx),
                      sum(dur(i) for i in idx))

    def descendants(i):
        todo, out = list(children[i]), []
        while todo:
            j = todo.pop()
            out.append(j)
            todo.extend(children[j])
        return out

    kernel_calls = [i for i, s in enumerate(spans)
                    if s[0].startswith("kernels.") and "f64" in attrs(i)]

    passes, extrema_calls = [], []
    for p in calls("analysis._sweep_point"):
        below_idx = descendants(p)
        below = [spans[j][0] for j in below_idx]
        integrations = [j for j in below_idx
                        if spans[j][0] == "integrate.integrate"]
        if not integrations or any(attrs(j).get("diverged", True)
                                   for j in integrations):
            continue
        passes.append(below.count("kernels.rk4_trajectory")
                      + 2 * below.count("kernels.benettin_lyapunov"))
        extrema_calls.append(below.count("analysis.local_extrema"))

    def mean_of(name, value):
        return _mean([value(i) for i in calls(name)])

    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    m = {
        "kernels.rk4_trajectory.steps_per_s": rate("kernels.rk4_trajectory"),
        "kernels.rk4_trajectory.calls_per_item": _ratio(
            len(calls("kernels.rk4_trajectory")), items),
        "kernels.benettin_lyapunov.pair_steps_per_s": rate(
            "kernels.benettin_lyapunov", ok_only=True),
        "kernels.dopri_trajectory.steps_per_s": rate(
            "kernels.dopri_trajectory"),
        "kernels.np_float64_args_per_call": _mean(
            [attrs(i)["f64"] for i in kernel_calls]),
        "kernels.rk4_passes_per_point": _mean(passes),
        "integrate.integrate.self_s": mean_of("integrate.integrate", self_s),
        "integrate.integrate_adaptive.self_s": mean_of(
            "integrate.integrate_adaptive", self_s),
        "integrate.samples_recorded": _mean(
            [attrs(i)["samples"] for name in ("integrate.integrate",
                                              "integrate.integrate_adaptive")
             for i in calls(name) if "samples" in attrs(i)]),
        "analysis.largest_lyapunov.self_s": mean_of(
            "analysis.largest_lyapunov", self_s),
        "analysis.lyapunov_errors": float(sum(
            attrs(i).get("error") == "LyapunovError"
            for i in calls("analysis.largest_lyapunov"))),
        "analysis.classify.s": mean_of("analysis.classify", dur),
        "analysis.local_extrema.calls_per_point": _mean(extrema_calls),
        "design.failed_reports": float(sum(
            attrs(i).get("ok") is False for i in calls("design.design_circuit"))),
        "cli.main.self_s": mean_of("cli.main", self_s),
        "trace_coverage_frac": _ratio(sum(dur(i) for i in roots),
                                      traced_wall_s),
    }
    for name in ("circuit.find_equilibria", "design.design_circuit",
                 "device.fit_poly", "device.load_state_table",
                 "cli.load_config"):
        m[name + ".ms_per_call"] = 1e3 * mean_of(name, dur)
    for writer in ("integrate.write_trajectory_csv",
                   "analysis.write_bifurcation_csv"):
        m[writer + ".s"] = mean_of(writer, dur)
        m[writer + ".bytes"] = _mean([attrs(i)["bytes"] for i in calls(writer)
                                      if "bytes" in attrs(i)])
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = _ratio(
            sum(self_s(i) for i, s in enumerate(spans)
                if s[0].split(".", 1)[0] == layer), items)
    return m
