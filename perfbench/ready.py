"""Bring memchua from a fresh interpreter to a ready state, then exit.

Usage: python3 ready.py <src-dir>

Ready means: ``memchua.cli`` imported, the default config loaded, the
reference circuit designed, and each integration path run once on a tiny
horizon, which is the JIT warm-up when numba is present so that compile
time lands here and not in a workload's throughput. The caller times the
whole process; exit code 0 means ready.
"""

import sys

sys.path.insert(0, sys.argv[1])

from memchua import cli  # noqa: E402
from memchua.analysis import largest_lyapunov  # noqa: E402
from memchua.design import design_circuit  # noqa: E402
from memchua.errors import LyapunovError  # noqa: E402
from memchua.integrate import (IntegrationConfig, integrate,  # noqa: E402
                               integrate_adaptive)

rc = cli.load_config(None)
report = design_circuit(rc.state, rc.spec)
if not report.ok:
    sys.exit(1)
tiny = IntegrationConfig(t_end=1e-4, t_transient=0.0)
integrate(report.params, rc.initial_state, tiny)
integrate_adaptive(report.params, rc.initial_state, tiny)
try:
    largest_lyapunov(report.params, rc.initial_state, tiny)
except LyapunovError:
    pass  # the horizon is shorter than one renormalization interval
