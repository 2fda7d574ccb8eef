"""Transmission and stationary-phase tunneling times for layered gain/loss
(+iV/-iV) barrier lattices, with closed Chebyshev forms, brute-force
transfer-matrix oracles, and both analytic limits (thick cells and many thin
cells)."""

from .errors import (
    DegeneratePotentialError,
    InvalidEnergyError,
    OverflowGuardError,
    PtTunnelError,
    SpectralSingularityError,
)
from .model import CellSpec, Particle
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
    square_barrier_time,
    transmission_closed,
    tunneling_time,
    tunneling_time_fd,
)
from .transfer import (
    TransferMatrix,
    barrier_matrix,
    lattice_matrix_direct,
    transmission_from_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BETA_MAX",
    "CellSpec",
    "ClosedForm",
    "DegeneratePotentialError",
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
    "barrier_matrix",
    "closed_form",
    "evaluate_point",
    "free_propagation_time",
    "hartman_coeffs",
    "hartman_limit_time",
    "lattice_matrix_direct",
    "n_infinity_bracket",
    "run_limits",
    "run_point",
    "run_sweep_b",
    "run_sweep_n",
    "square_barrier_time",
    "transmission_closed",
    "transmission_from_matrix",
    "tunneling_time",
    "tunneling_time_fd",
]
