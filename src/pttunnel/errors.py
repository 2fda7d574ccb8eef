"""Typed error conditions raised across the library.

Every error carries a short ``code`` string; the command-line layer maps the
code to its exit status and error report, so numerical failure modes stay
distinguishable from plain bad input.
"""

from __future__ import annotations

__all__ = [
    "PtTunnelError",
    "InvalidEnergyError",
    "DegeneratePotentialError",
    "SpectralSingularityError",
    "OverflowGuardError",
]


class PtTunnelError(Exception):
    """Base class for library-specific failures."""

    code = "Error"


class InvalidEnergyError(PtTunnelError, ValueError):
    """Incident energy is not a finite positive number."""

    code = "InvalidEnergy"


class DegeneratePotentialError(PtTunnelError, ValueError):
    """A strictly positive potential strength is required (free space has no
    thick-barrier saturation regime)."""

    code = "DegenerateV"


class SpectralSingularityError(PtTunnelError, ArithmeticError):
    """The transmission denominator is (numerically) zero.

    For non-Hermitian lattices this is a physical lasing/spectral-singularity
    point, not a bug, so it is reported as its own condition.
    """

    code = "SpectralSingularity"

    def __init__(self, magnitude: float, scale: float = 1.0) -> None:
        super().__init__(
            f"transmission denominator magnitude {magnitude:.3e} below "
            f"singularity threshold (scale {scale:.3e})"
        )
        self.magnitude = magnitude
        self.scale = scale


class OverflowGuardError(PtTunnelError, OverflowError):
    """A computation would exceed double range; the caller must switch to an
    asymptotic path instead of trusting saturated arithmetic."""

    code = "Overflow"
