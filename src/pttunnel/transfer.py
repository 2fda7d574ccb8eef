"""Transfer matrices for complex rectangular barriers.

The 2x2 matrix maps plane-wave amplitudes on the left of a scatterer to the
amplitudes on its right and composes by matrix product (later scatterer on
the left of the product).  Its determinant is exactly 1 for any complex
potential, which the tests use as a global conservation check.  The direct
product over all 2N barriers built here is the brute-force oracle for the
closed-form transmission in :mod:`pttunnel.timing`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import OverflowGuardError, SpectralSingularityError
from .model import CellSpec, Particle

__all__ = [
    "TransferMatrix",
    "BarrierParams",
    "IDENTITY",
    "barrier_params",
    "barrier_matrix",
    "compose",
    "unit_cell_matrix",
    "lattice_matrix_direct",
    "transmission_from_matrix",
]

# Any matrix element beyond this magnitude aborts the direct product: the
# result would saturate to inf a few compositions later and silently poison
# downstream comparisons.
ELEMENT_GUARD = 1e280

# |m22| below this fraction of max|element| counts as a spectral singularity.
M22_SINGULARITY_REL_TOL = 1e-12


@dataclass(frozen=True)
class TransferMatrix:
    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def determinant(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def max_abs(self) -> float:
        return max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22))


IDENTITY = TransferMatrix(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)


@dataclass(frozen=True)
class BarrierParams:
    """Internal wave number and amplitude couplings of one rectangular barrier.

    Satisfies p_plus*p_minus + s*s == 4 identically, which is the determinant
    condition of the matrix assembled from them.
    """

    kc: complex
    mu: complex
    p_plus: complex
    p_minus: complex
    s: complex


def barrier_params(particle: Particle, potential: complex, width: float) -> BarrierParams:
    """Couplings for a barrier of complex height `potential` and width `width`."""
    if width <= 0.0:
        raise ValueError("width must be positive")
    kc = cmath.sqrt(particle.energy - potential)
    if kc == 0:
        raise ValueError("potential equals the energy; internal wave number vanishes")
    mu = kc / particle.k
    cos_cb = cmath.cos(kc * width)
    sin_cb = cmath.sin(kc * width)
    even = (mu + 1.0 / mu) * sin_cb
    odd = (mu - 1.0 / mu) * sin_cb
    return BarrierParams(
        kc=kc,
        mu=mu,
        p_plus=2.0 * cos_cb + 1j * even,
        p_minus=2.0 * cos_cb - 1j * even,
        s=1j * odd,
    )


def barrier_matrix(
    particle: Particle, potential: complex, width: float, offset_index: int = 0
) -> TransferMatrix:
    """Transfer matrix of a single rectangular barrier.

    ``offset_index`` places the barrier at x in [j*b, (j+1)*b]; translation
    only multiplies the off-diagonal elements by exp(-+ 2i*k*b*j).
    """
    if offset_index < 0:
        raise ValueError("offset_index must be >= 0")
    bp = barrier_params(particle, potential, width)
    kb = particle.k * width
    diag = cmath.exp(-1j * kb)
    off = cmath.exp(-1j * kb * (1.0 + 2.0 * offset_index))
    return TransferMatrix(
        m11=0.5 * diag * bp.p_plus,
        m12=0.5 * off * bp.s,
        m21=-0.5 * bp.s / off,
        m22=0.5 * bp.p_minus / diag,
    )


def compose(outer: TransferMatrix, inner: TransferMatrix) -> TransferMatrix:
    """Matrix product outer @ inner; `inner` is the spatially left scatterer."""
    return TransferMatrix(
        m11=outer.m11 * inner.m11 + outer.m12 * inner.m21,
        m12=outer.m11 * inner.m12 + outer.m12 * inner.m22,
        m21=outer.m21 * inner.m11 + outer.m22 * inner.m21,
        m22=outer.m21 * inner.m12 + outer.m22 * inner.m22,
    )


def unit_cell_matrix(particle: Particle, cell: CellSpec) -> TransferMatrix:
    """Net matrix of one +iV/-iV pair, from the explicit composed expression.

    Evaluates the product of the two barrier matrices in closed form; it must
    (and, in the tests, does) agree elementwise with
    compose(barrier_matrix(-iV, j=1), barrier_matrix(+iV, j=0)).
    """
    v = cell.strength
    b = cell.width
    b1 = barrier_params(particle, 1j * v, b)
    b2 = barrier_params(particle, -1j * v, b)
    phase = cmath.exp(-2j * particle.k * b)
    return TransferMatrix(
        m11=0.25 * phase * (b1.p_plus * b2.p_plus - b1.s * b2.s),
        m12=0.25 * phase * (b2.p_plus * b1.s + b1.p_minus * b2.s),
        m21=-0.25 * (b2.p_minus * b1.s + b1.p_plus * b2.s) / phase,
        m22=0.25 * (b1.p_minus * b2.p_minus - b1.s * b2.s) / phase,
    )


def lattice_matrix_direct(
    particle: Particle, cell: CellSpec, n_cells: int
) -> TransferMatrix:
    """Brute-force product of all 2*N barrier matrices of the lattice.

    Cell m occupies [2m*b, (2m+2)*b], i.e. barrier offsets 2m and 2m+1, so
    the lattice starts at x = 0 and spans L = 2*N*b.

    Raises
    ------
    OverflowGuardError
        If any element magnitude exceeds ELEMENT_GUARD; in that regime the
        direct product is no longer a valid oracle and the asymptotic
        (thick-barrier) path must be used instead.
    """
    if n_cells < 0:
        raise ValueError("n_cells must be >= 0")
    v = cell.strength
    b = cell.width
    acc = IDENTITY
    for m in range(n_cells):
        gain = barrier_matrix(particle, 1j * v, b, 2 * m)
        loss = barrier_matrix(particle, -1j * v, b, 2 * m + 1)
        acc = compose(compose(loss, gain), acc)
        peak = acc.max_abs()
        if peak > ELEMENT_GUARD:
            raise OverflowGuardError(
                f"direct lattice product exceeds {ELEMENT_GUARD:.0e} "
                f"after {m + 1} of {n_cells} cells (peak {peak:.3e})"
            )
    return acc


def transmission_from_matrix(matrix: TransferMatrix) -> complex:
    """Left-incidence transmission coefficient 1/m22.

    Raises
    ------
    SpectralSingularityError
        If |m22| is negligible relative to the matrix scale: the transmission
        diverges (a lasing point of the non-Hermitian lattice).
    """
    scale = matrix.max_abs()
    mag = abs(matrix.m22)
    if mag <= M22_SINGULARITY_REL_TOL * scale:
        raise SpectralSingularityError(mag, scale)
    return 1.0 / matrix.m22
