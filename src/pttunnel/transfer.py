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
import math
from typing import NamedTuple

from .errors import OverflowGuardError, SpectralSingularityError
from .model import _LARGEST, CellSpec, Particle, _check_real, _record

__all__ = [
    "TransferMatrix",
    "IDENTITY",
    "barrier_matrix",
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


def _barrier_elements(
    energy: float, k: float, diag: complex, potential: complex, width: float, reach: float
) -> tuple:
    """(m11, m22, s, -0.5*s) of one barrier of complex height `potential` and
    width `width`, placed at offsets j with 1 + 2j <= `reach`, at energy
    E = k**2 with diag = exp(-i*k*b).

    m11 = 0.5*diag*p+ and m22 = 0.5*p-/diag, with
    p+- = 2 cos(kc*b) +- i(mu + 1/mu) sin(kc*b), s = i(mu - 1/mu) sin(kc*b),
    kc = sqrt(E - potential) and mu = kc/k, so p+*p- + s*s = 4 (det = 1).
    The offset phase off = exp(-i*k*b*(1 + 2j)) at x = j*b gives
    m12 = 0.5*off*s and m21 = -0.5*s/off (off*(0.5*s) rounds otherwise at
    zero or subnormal s).  The caller checks the potential and the width;
    a phase, k*b*reach or Re(kc)*b, past double range is an OverflowGuardError,
    raised before `diag` is read (it is nan where k*b is inf).
    """
    kc = cmath.sqrt(energy - potential)
    if kc == 0:
        raise ValueError("potential equals the energy; internal wave number vanishes")
    kb = k * width
    if not math.isfinite(max(kb * reach, abs(kc.real) * width)):
        raise OverflowGuardError(
            f"barrier phase k*b*(1 + 2j) = {k:.3e}*{width:.3e}*{reach:.0f} "
            f"or Re(kc)*b = {kc.real:.3e}*{width:.3e} leaves double range"
        )
    mu = kc / k
    try:
        cos_cb = cmath.cos(kc * width)
        sin_cb = cmath.sin(kc * width)
    except OverflowError:  # the elements come out non-finite and raise below
        cos_cb = sin_cb = cmath.inf
    even = (mu + 1.0 / mu) * sin_cb
    s = 1j * ((mu - 1.0 / mu) * sin_cb)
    p_plus, p_minus = 2.0 * cos_cb + 1j * even, 2.0 * cos_cb - 1j * even
    m11, m22 = 0.5 * diag * p_plus, 0.5 * p_minus / diag
    # Just below |Im(kc)|*b ~ 710, where cos and sin overflow, the couplings
    # overflow instead and the elements come out nan.
    if not (cmath.isfinite(m11) and cmath.isfinite(m22) and cmath.isfinite(s)):
        raise OverflowGuardError(
            f"barrier growth |Im(kc)|*b = {abs((kc * width).imag):.3e} leaves double range"
        )
    return m11, m22, s, -0.5 * s


def _reach(offset_index: int) -> float:
    """The offset factor 1 + 2j of offset j; inf where it leaves double range."""
    return 1.0 + 2.0 * offset_index if offset_index <= _LARGEST else math.inf


def barrier_matrix(
    particle: Particle, potential: complex, width: float, offset_index: int = 0
) -> TransferMatrix:
    """Transfer matrix of a single rectangular barrier.

    ``offset_index`` places the barrier at x in [j*b, (j+1)*b]; translation
    only multiplies the off-diagonal elements by exp(-+ 2i*k*b*j).  Raises
    ValueError unless the potential is finite, the width one that CellSpec
    accepts (finite and > 0, not a bool) and ``offset_index`` an integer
    >= 0, and OverflowGuardError where the barrier's growth factor
    exp(|Im(kc)|*b), a phase or 1 + 2j itself leaves double range.
    """
    if not (isinstance(offset_index, int) and offset_index >= 0):
        raise ValueError(f"offset_index must be an integer >= 0, got {offset_index!r}")
    if not (abs(potential.real) <= _LARGEST and abs(potential.imag) <= _LARGEST):
        raise ValueError(f"potential must be finite, got {potential!r}")
    _check_real("width", width, positive=True)
    reach = _reach(offset_index)
    k = particle.k
    ikb = -1j * (k * width)
    m11, m22, s, neg_half_s = _barrier_elements(particle.energy, k, cmath.exp(ikb), potential, width, reach)
    off = cmath.exp(ikb * reach)
    return TransferMatrix(m11, 0.5 * off * s, neg_half_s / off, m22)


def lattice_matrix_direct(
    particle: Particle, cell: CellSpec, n_cells: int
) -> TransferMatrix:
    """Brute-force product of all 2*N barrier matrices of the lattice.

    Cell m occupies [2m*b, (2m+2)*b], i.e. barrier offsets 2m and 2m+1, so
    the lattice starts at x = 0 and spans L = 2*N*b.  Only the offset phases
    are formed per barrier; each cell multiplies the running product on the
    left by loss @ gain, the same matrix-product expressions, in the same
    order, as one barrier_matrix per barrier multiplied in turn.

    The offset phases have modulus 1, so one K bounds the row sums of every
    cell's |loss @ gain|, and K**m every element of the product after m
    cells.  The exact peak is checked only from the first cell where K**m
    could pass ELEMENT_GUARD; before it no element can trip it or overflow.

    Raises
    ------
    OverflowGuardError
        If any element magnitude exceeds ELEMENT_GUARD, or a barrier's growth
        factor or a phase, up to the last offset's k*b*(4N - 1), leaves double
        range; in that regime the direct product is no longer a valid oracle
        and the asymptotic (thick-barrier) path must be used instead.
    """
    if n_cells < 0:
        raise ValueError("n_cells must be >= 0")
    if n_cells == 0:
        return IDENTITY
    reach = _reach(2 * n_cells - 1)  # the loss barrier of the last cell sits at offset 2N - 1
    energy, k, strength, width = particle.energy, particle.k, cell.strength, cell.width
    ikb = -1j * (k * width)
    diag = cmath.exp(ikb)
    g11, g22, g_s, g_neg_half_s = _barrier_elements(energy, k, diag, 1j * strength, width, reach)
    l11, l22, l_s, l_neg_half_s = _barrier_elements(energy, k, diag, -1j * strength, width, reach)
    lg11, lg22 = l11 * g11, l22 * g22  # the same first/second product of c11/c22 in every cell
    # K: the larger row sum of |loss @ gain| with |off| = 1, plus a 1e-12
    # margin for the few ulp of rounding per cell.  An inf or nan K (abs of
    # an element past double range) checks every cell.
    try:
        g_row1, g_row2, l_half = abs(g11) + abs(g_s) / 2, abs(g_s) / 2 + abs(g22), abs(l_s) / 2
        norm = max(abs(l11) * g_row1 + l_half * g_row2, l_half * g_row1 + abs(l22) * g_row2)
        norm *= 1.0 + 1e-12
    except OverflowError:
        norm = cmath.inf
    bound = 1.0
    a11, a12, a21, a22 = IDENTITY.m11, IDENTITY.m12, IDENTITY.m21, IDENTITY.m22
    exp = cmath.exp
    # the offset factors 1 + 2j of cell m, 4m + 1 (gain) and 4m + 3 (loss),
    # counted in a float: exact while 4m + 3 < 2**53, far past any N the loop reaches
    r = 1.0
    for m in range(n_cells):
        off_gain = exp(ikb * r)
        off_loss = exp(ikb * (r + 2.0))
        r += 4.0
        g12, g21 = 0.5 * off_gain * g_s, g_neg_half_s / off_gain
        l12, l21 = 0.5 * off_loss * l_s, l_neg_half_s / off_loss
        c11, c12 = lg11 + l12 * g21, l11 * g12 + l12 * g22
        c21, c22 = l21 * g11 + l22 * g21, l21 * g12 + lg22
        # column by column, so that no 4-tuple is built per cell
        a11, a21 = c11 * a11 + c12 * a21, c21 * a11 + c22 * a21
        a12, a22 = c11 * a12 + c12 * a22, c21 * a12 + c22 * a22
        bound *= norm
        if not bound <= ELEMENT_GUARD:  # inf or nan too
            peak = max(abs(a11), abs(a12), abs(a21), abs(a22))
            if not peak <= ELEMENT_GUARD:  # a nan peak trips it too
                raise OverflowGuardError(
                    f"direct lattice product exceeds {ELEMENT_GUARD:.0e} "
                    f"after {m + 1} of {n_cells} cells (peak {peak:.3e})"
                )
    return _record(TransferMatrix, (a11, a12, a21, a22))


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
