"""gridcert: stationary power flow and small-signal stability certificates
for lossless power systems with synchronous generators and grid-forming
inverters.

The closed-form certificate (certificate module) decides stability from the
stationary power flow alone; the linearization module provides an independent
eigenvalue oracle; the simulation module corroborates verdicts on the full
nonlinear differential-algebraic model.
"""

from .certificate import (
    CERT_TOL,
    CertificateError,
    StabilityReport,
    bus_stiffness_block,
    certify,
    deflated_min_eig,
    load_stiffness_block,
    structural_null_vector,
    synchronizing_coefficient,
)
from .config import ConfigError, LoadedConfig, apply_load_mode, fixture_path, load_config, parse_config
from .devices import (
    OMEGA0_DEFAULT,
    CapabilityError,
    ConstantPowerLoad,
    DroopInverter,
    OperatingPoint,
    Setpoint,
    StationaryStateError,
    TwoAxisGenerator,
    VsgInverter,
    internal_phase,
    reduced_stiffness_blocks,
    stationary_setpoint,
)
from .linearization import (
    EIG_TOL,
    DegenerateEquilibriumError,
    EigenReport,
    EnergyHessian,
    assemble_energy_hessian,
    damping_matrix,
    eigenvalue_verdict,
    factorized_voltage_block,
    kron_reduce,
)
from .network import (
    PQ,
    PV,
    Line,
    Network,
    NetworkError,
    PowerFlowError,
    PowerFlowSolution,
    Slack,
    build_susceptance,
    network_hessian,
    normalize_angle,
    power_balance,
    power_flow_jacobian,
    solve_power_flow,
)
from .simulation import (
    AlgebraicSolveError,
    Trajectory,
    algebraic_residual,
    bregman_storage,
    dissipation_rate,
    perturbed_state,
    simulate,
    solve_bus_voltages,
)
from .system import Equilibrium, PowerSystem

__version__ = "0.1.0"
