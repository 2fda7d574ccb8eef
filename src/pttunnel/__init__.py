"""Transmission and stationary-phase tunneling times for layered gain/loss
(+iV/-iV) barrier lattices, with closed Chebyshev forms, brute-force
transfer-matrix oracles, and both analytic limits (thick cells and many thin
cells)."""

from .chebyshev import cheb_ratio_q, cheb_T, cheb_U
from .errors import (
    DegeneratePotentialError,
    InvalidEnergyError,
    OverflowGuardError,
    PtTunnelError,
    SpectralSingularityError,
    ZeroOfTError,
)
from .model import CellSpec, Derived, Particle, derived_quantities
from .sweep import (
    GridSpec,
    LimitsReport,
    SweepConfig,
    SweepRow,
    evaluate_point,
    run_limits,
    run_point,
    run_sweep_b,
    run_sweep_n,
)
from .timing import (
    BETA_MAX,
    ClosedForm,
    HartmanCoeffs,
    closed_form,
    free_propagation_time,
    hartman_coeffs,
    hartman_limit_time,
    n_infinity_bracket,
    phase_theta,
    square_barrier_time,
    transmission_closed,
    tunneling_time,
    tunneling_time_fd,
    xi_chi,
    xi_chi_prime,
)
from .transfer import (
    BarrierParams,
    TransferMatrix,
    barrier_matrix,
    barrier_params,
    compose,
    lattice_matrix_direct,
    transmission_from_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BETA_MAX",
    "BarrierParams",
    "CellSpec",
    "ClosedForm",
    "DegeneratePotentialError",
    "Derived",
    "GridSpec",
    "HartmanCoeffs",
    "InvalidEnergyError",
    "LimitsReport",
    "OverflowGuardError",
    "Particle",
    "PtTunnelError",
    "SpectralSingularityError",
    "SweepConfig",
    "SweepRow",
    "TransferMatrix",
    "ZeroOfTError",
    "barrier_matrix",
    "barrier_params",
    "cheb_T",
    "cheb_U",
    "cheb_ratio_q",
    "closed_form",
    "compose",
    "derived_quantities",
    "evaluate_point",
    "free_propagation_time",
    "hartman_coeffs",
    "hartman_limit_time",
    "lattice_matrix_direct",
    "n_infinity_bracket",
    "phase_theta",
    "run_limits",
    "run_point",
    "run_sweep_b",
    "run_sweep_n",
    "square_barrier_time",
    "transmission_closed",
    "transmission_from_matrix",
    "tunneling_time",
    "tunneling_time_fd",
    "xi_chi",
    "xi_chi_prime",
]
