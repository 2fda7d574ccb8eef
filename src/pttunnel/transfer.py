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
from typing import NamedTuple

from .errors import OverflowGuardError, SpectralSingularityError
from .model import CellSpec, Particle

__all__ = [
    "TransferMatrix",
    "IDENTITY",
    "barrier_matrix",
    "compose",
    "lattice_matrix_direct",
    "transmission_from_matrix",
]

# Any matrix element beyond this magnitude aborts the direct product: the
# result would saturate to inf a few compositions later and silently poison
# downstream comparisons.
ELEMENT_GUARD = 1e280

# |m22| below this fraction of max|element| counts as a spectral singularity.
M22_SINGULARITY_REL_TOL = 1e-12


class TransferMatrix(NamedTuple):
    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def determinant(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def max_abs(self) -> float:
        return max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22))


IDENTITY = TransferMatrix(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)


def _barrier_elements(particle: Particle, potential: complex, width: float) -> tuple:
    """(-i*k*b, m11, m22, s, -0.5*s) of one barrier of complex height
    `potential` and width `width`.

    m11 = 0.5*exp(-i*k*b)*p+ and m22 = 0.5*exp(i*k*b)*p-, with
    p+- = 2 cos(kc*b) +- i(mu + 1/mu) sin(kc*b), s = i(mu - 1/mu) sin(kc*b),
    kc = sqrt(E - potential) and mu = kc/k, so p+*p- + s*s = 4 (det = 1).
    The offset phase off = exp(-i*k*b*(1 + 2j)) at x = j*b gives
    m12 = 0.5*off*s and m21 = -0.5*s/off (off*(0.5*s) rounds otherwise at
    zero or subnormal s).
    """
    if width <= 0.0:
        raise ValueError("width must be positive")
    kc = cmath.sqrt(particle.energy - potential)
    if kc == 0:
        raise ValueError("potential equals the energy; internal wave number vanishes")
    mu = kc / particle.k
    try:
        cos_cb = cmath.cos(kc * width)
        sin_cb = cmath.sin(kc * width)
    except OverflowError:  # the elements come out non-finite and raise below
        cos_cb = sin_cb = cmath.inf
    even = (mu + 1.0 / mu) * sin_cb
    s = 1j * ((mu - 1.0 / mu) * sin_cb)
    kb = particle.k * width
    diag = cmath.exp(-1j * kb)
    p_plus, p_minus = 2.0 * cos_cb + 1j * even, 2.0 * cos_cb - 1j * even
    m11, m22 = 0.5 * diag * p_plus, 0.5 * p_minus / diag
    # Just below |Im(kc)|*b ~ 710, where cos and sin overflow, the couplings
    # overflow instead and the elements come out nan.
    if not (cmath.isfinite(m11) and cmath.isfinite(m22) and cmath.isfinite(s)):
        raise OverflowGuardError(
            f"barrier growth |Im(kc)|*b = {abs((kc * width).imag):.3e} leaves double range"
        )
    return -1j * kb, m11, m22, s, -0.5 * s


def barrier_matrix(
    particle: Particle, potential: complex, width: float, offset_index: int = 0
) -> TransferMatrix:
    """Transfer matrix of a single rectangular barrier.

    ``offset_index`` places the barrier at x in [j*b, (j+1)*b]; translation
    only multiplies the off-diagonal elements by exp(-+ 2i*k*b*j).  Raises
    OverflowGuardError where the barrier's growth factor exp(|Im(kc)|*b)
    leaves double range.
    """
    if offset_index < 0:
        raise ValueError("offset_index must be >= 0")
    ikb, m11, m22, s, neg_half_s = _barrier_elements(particle, potential, width)
    off = cmath.exp(ikb * (1.0 + 2.0 * offset_index))
    return TransferMatrix(m11, 0.5 * off * s, neg_half_s / off, m22)


def compose(outer: TransferMatrix, inner: TransferMatrix) -> TransferMatrix:
    """Matrix product outer @ inner; `inner` is the spatially left scatterer."""
    return TransferMatrix(
        m11=outer.m11 * inner.m11 + outer.m12 * inner.m21,
        m12=outer.m11 * inner.m12 + outer.m12 * inner.m22,
        m21=outer.m21 * inner.m11 + outer.m22 * inner.m21,
        m22=outer.m21 * inner.m12 + outer.m22 * inner.m22,
    )


def lattice_matrix_direct(
    particle: Particle, cell: CellSpec, n_cells: int
) -> TransferMatrix:
    """Brute-force product of all 2*N barrier matrices of the lattice.

    Cell m occupies [2m*b, (2m+2)*b], i.e. barrier offsets 2m and 2m+1, so
    the lattice starts at x = 0 and spans L = 2*N*b.  Only the offset phases
    are formed per barrier; the product is compose(compose(loss, gain), acc)'s,
    expression for expression.

    Raises
    ------
    OverflowGuardError
        If any element magnitude exceeds ELEMENT_GUARD, or a barrier's growth
        factor leaves double range; in that regime the direct product is no
        longer a valid oracle and the asymptotic (thick-barrier) path must be
        used instead.
    """
    if n_cells < 0:
        raise ValueError("n_cells must be >= 0")
    if n_cells == 0:
        return IDENTITY
    ikb, g11, g22, g_s, g_neg_half_s = _barrier_elements(particle, 1j * cell.strength, cell.width)
    _, l11, l22, l_s, l_neg_half_s = _barrier_elements(particle, -1j * cell.strength, cell.width)
    a11, a12, a21, a22 = IDENTITY.m11, IDENTITY.m12, IDENTITY.m21, IDENTITY.m22
    for m in range(n_cells):
        off_gain = cmath.exp(ikb * (1.0 + 2.0 * (2 * m)))
        off_loss = cmath.exp(ikb * (1.0 + 2.0 * (2 * m + 1)))
        g12, g21 = 0.5 * off_gain * g_s, g_neg_half_s / off_gain
        l12, l21 = 0.5 * off_loss * l_s, l_neg_half_s / off_loss
        c11, c12 = l11 * g11 + l12 * g21, l11 * g12 + l12 * g22
        c21, c22 = l21 * g11 + l22 * g21, l21 * g12 + l22 * g22
        a11, a12, a21, a22 = (c11 * a11 + c12 * a21, c11 * a12 + c12 * a22,
                              c21 * a11 + c22 * a21, c21 * a12 + c22 * a22)
        peak = max(abs(a11), abs(a12), abs(a21), abs(a22))
        if not peak <= ELEMENT_GUARD:  # a nan peak trips it too
            raise OverflowGuardError(
                f"direct lattice product exceeds {ELEMENT_GUARD:.0e} "
                f"after {m + 1} of {n_cells} cells (peak {peak:.3e})"
            )
    return TransferMatrix(a11, a12, a21, a22)


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
