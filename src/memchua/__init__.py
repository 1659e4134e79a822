"""Design and simulation toolkit for a memristor-based Chua oscillator."""

from .analysis import (Label, LyapunovResult, Side, SweepPoint,
                       TrajectoryClass, classify, cluster_count,
                       largest_lyapunov, local_extrema, perturb, sweep,
                       trajectory_and_lyapunov, write_bifurcation_csv)
from .circuit import (CircuitParams, EquilibriumPoint, StabilityVerdict,
                      StateVector, existence_condition, find_equilibria,
                      jacobian, jacobian_trace, nonlinear_current,
                      nonlinear_slope, vector_field)
from .design import DesignCheck, DesignReport, DesignSpec, design_circuit
from .device import (REFERENCE_COEFFICIENTS, DevicePoly, DeviceState,
                     FitResult, IVSample, StateTable, eval_current,
                     eval_differential_conductance, fit_poly, load_iv_csv,
                     load_state_table, reference_state, reference_table,
                     resistance_at_low_bias, save_iv_csv, save_state_table,
                     state_at)
from .errors import (DesignError, FitError, InputFormatError,
                     IntegrationError, LyapunovError, MemChuaError)
from .integrate import (Event, IntegrationConfig, Trajectory, integrate,
                        integrate_adaptive, write_events_csv,
                        write_trajectory_csv)
from .kernels import BACKEND

__version__ = "0.1.0"
