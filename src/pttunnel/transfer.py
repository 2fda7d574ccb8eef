"""Transfer matrices for complex rectangular barriers.

The 2x2 matrix maps plane-wave amplitudes on the left of a scatterer to the
amplitudes on its right and composes by matrix product (later scatterer on
the left of the product).  Its determinant is exactly 1 for any complex
potential, which the tests use as a global conservation check.  The product
of the 2N barriers of a lattice, by repeated squaring, and its exact
k-derivative are the oracle of t and tau in :mod:`pttunnel.timing`.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import OverflowGuardError, SpectralSingularityError
from .model import _LARGEST, CellSpec, Particle, _check_cells, _check_real, _record

__all__ = [
    "TransferMatrix",
    "IDENTITY",
    "barrier_matrix",
    "lattice_matrix_direct",
    "lattice_oracle",
    "transmission_from_matrix",
]

# A lattice product whose element moduli sum past this aborts: the result
# would saturate to inf a few products later and silently poison downstream
# comparisons.
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


def _reach(offset_index: int) -> float:
    """The offset factor 1 + 2j of offset j; inf where it leaves double range."""
    return 1.0 + 2.0 * offset_index if offset_index <= _LARGEST else math.inf


def barrier_matrix(particle: Particle, potential: complex, width: float,
                   offset_index: int = 0) -> TransferMatrix:
    """Transfer matrix of a single rectangular barrier.

    ``offset_index`` places the barrier at x in [j*b, (j+1)*b]; translation
    only multiplies the off-diagonal elements by exp(-+ 2i*k*b*j).  Raises
    ValueError unless the potential is finite, the width one that CellSpec
    accepts (finite and > 0, not a bool) and ``offset_index`` an integer
    >= 0 (not a bool), and OverflowGuardError where the barrier's growth factor
    exp(|Im(kc)|*b), a phase or 1 + 2j itself leaves double range.
    """
    if isinstance(offset_index, bool) or not (isinstance(offset_index, int) and offset_index >= 0):
        raise ValueError(f"offset_index must be an integer >= 0, got {offset_index!r}")
    if not (abs(potential.real) <= _LARGEST and abs(potential.imag) <= _LARGEST):
        raise ValueError(f"potential must be finite, got {potential!r}")
    _check_real("width", width, positive=True)
    reach = _reach(offset_index)
    k = particle.k
    m11, m12, m21, m22 = _phase_free(particle.energy, k, potential, width, reach, False)
    ikb = -1j * (k * width)  # finite: _phase_free has checked k*b*(1 + 2j)
    diag, off = cmath.exp(ikb), cmath.exp(ikb * reach)
    return TransferMatrix(diag * m11, off * m12, m21 / off, m22 / diag)


def _phase_free(energy: float, k: float, potential: complex, width: float, reach: float,
                jet: bool) -> tuple:
    """P**-1 @ B0 = 0.5 [[p+, s], [-s, p-]] of one barrier of complex height `potential` and
    width `width` at E = k**2, P = diag(exp(-ikb), exp(ikb)), where
    p+- = 2 cos(kc*b) +- i(mu + 1/mu) sin(kc*b), s = i(mu - 1/mu) sin(kc*b),
    kc = sqrt(E - potential) and mu = kc/k, so p+*p- + s*s = 4 (det = 1); followed
    where `jet` is set by its k-derivative, from dkc/dk = k/kc and dmu/dk = U/(kc k**2).
    The caller checks the potential and the width; a phase k*b*`reach` (1 + 2j
    of the last offset) or Re(kc)*b past double range is an OverflowGuardError.
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
    inv_mu = 1.0 / mu
    try:
        cos_cb = cmath.cos(kc * width)
        sin_cb = cmath.sin(kc * width)
    except OverflowError:  # the elements come out non-finite and raise below
        cos_cb = sin_cb = cmath.inf
    even = (mu + inv_mu) * sin_cb
    s = 1j * ((mu - inv_mu) * sin_cb)
    m11, m22 = 0.5 * (2.0 * cos_cb + 1j * even), 0.5 * (2.0 * cos_cb - 1j * even)
    # Just below |Im(kc)|*b ~ 710, where cos and sin overflow, the couplings
    # overflow instead and the elements come out nan.  Halved, a finite element
    # stays finite under barrier_matrix's unit-modulus phases.
    if not (cmath.isfinite(m11) and cmath.isfinite(m22) and cmath.isfinite(s)):
        raise OverflowGuardError(
            f"barrier growth |Im(kc)|*b = {abs((kc * width).imag):.3e} leaves double range"
        )
    if not jet:
        return m11, 0.5 * s, -0.5 * s, m22
    dkc, dmu = k / kc, potential / kc / k / k  # kc*k*k may underflow to 0
    d_cos, d_sin = -width * dkc * sin_cb, width * dkc * cos_cb
    inv_mu2 = 1.0 / (mu * mu)  # not inv_mu * inv_mu, which rounds differently
    d_even = dmu * (1.0 - inv_mu2) * sin_cb + (mu + inv_mu) * d_sin
    d12 = 0.5j * (dmu * (1.0 + inv_mu2) * sin_cb + (mu - inv_mu) * d_sin)
    return m11, 0.5 * s, -0.5 * s, m22, d_cos + 0.5j * d_even, d12, -d12, d_cos - 0.5j * d_even


def _mul(a: tuple, b: tuple) -> tuple:
    """a @ b, each matrix as (m11, m12, m21, m22)."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)


def _mul_jet(a: tuple, b: tuple) -> tuple:
    """(A, A') @ (B, B') = (AB, A'B + AB'), each pair as one 8-tuple; each element of
    A'B + AB' is (A'B)_ij + (AB')_ij, each product formed as in :func:`_mul`."""
    a11, a12, a21, a22, d11, d12, d21, d22 = a
    b11, b12, b21, b22, e11, e12, e21, e22 = b
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22,
            (d11 * b11 + d12 * b21) + (a11 * e11 + a12 * e21),
            (d11 * b12 + d12 * b22) + (a11 * e12 + a12 * e22),
            (d21 * b11 + d22 * b21) + (a21 * e11 + a22 * e21),
            (d21 * b12 + d22 * b22) + (a21 * e12 + a22 * e22))


def _power(base: tuple, n_cells: int, mul) -> tuple:
    """base**N (N >= 1) under `mul` by repeated squaring (Knuth, TAOCP vol. 2, 4.6.3),
    with the matrix half of the base, each square and the result checked against ELEMENT_GUARD."""
    result, n = None, n_cells
    while True:
        m = base if n else result
        try:  # a sum of moduli, left to right, as nan and inf propagate through it and not through max()
            norm = abs(m[0]) + abs(m[1]) + abs(m[2]) + abs(m[3])
        except OverflowError:  # the modulus of an element with finite parts leaves double range
            norm = math.inf
        if not norm <= ELEMENT_GUARD:
            raise OverflowGuardError(f"direct lattice product of {n_cells} cells exceeds "
                                     f"{ELEMENT_GUARD:.0e} (sum of |elements| {norm:.3e})")
        if not n:
            return result
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)


def _lattice(particle: Particle, cell: CellSpec, n_cells: int, jet: bool) -> tuple:
    """(M, A**N) of the lattice M = P**(2N) @ A**N with A = (P**-1 L0) @ (P**-1 G0), as barrier j
    is P**j @ B0 @ P**-j; A**N carries its k-derivative as elements 4 to 7 where `jet` is set.
    Its callers check N."""
    energy, k, strength, width = particle.energy, particle.k, cell.strength, cell.width
    reach = _reach(2 * n_cells - 1)  # the loss barrier of the last cell sits at offset 2N - 1
    loss = _phase_free(energy, k, -1j * strength, width, reach, jet)
    gain = _phase_free(energy, k, 1j * strength, width, reach, jet)
    mul = _mul_jet if jet else _mul
    power = _power(mul(loss, gain), n_cells, mul)
    phase = cmath.exp(-1j * k * (2.0 * (n_cells * width)))
    matrix = (phase * power[0], phase * power[1], power[2] / phase, power[3] / phase)
    return _record(TransferMatrix, matrix), power


def lattice_matrix_direct(particle: Particle, cell: CellSpec, n_cells: int) -> TransferMatrix:
    """Transfer matrix of the N-cell lattice (gain on [2m*b, (2m+1)*b], loss on
    [(2m+1)*b, (2m+2)*b]) by repeated squaring of the package's own barriers.

    Raises ValueError unless N is an int, not a bool, in [0, the largest
    double], and OverflowGuardError where a barrier's growth factor or a
    phase up to k*b*(4N - 1) leaves double range, or the product passes
    ELEMENT_GUARD (the thick-barrier limit is the answer there).
    """
    return _lattice(particle, cell, n_cells, False)[0] if _check_cells(n_cells) else IDENTITY


def lattice_oracle(particle: Particle, cell: CellSpec, n_cells: int) -> tuple[complex, float]:
    """(t, tau) of the N-cell lattice, the oracle of :func:`timing.closed_form`:
    lattice_matrix_direct's product on (M, dM/dk) pairs.  With G = (A**N)_22,
    t = exp(-ikL)/G and tau = -Im(G'/G)/(2k), with no step size.  Raises where
    lattice_matrix_direct or transmission_from_matrix does, and OverflowGuardError
    where dM/dk (unguarded) leaves double range and tau with it.
    """
    if not _check_cells(n_cells):
        return 1.0 + 0.0j, 0.0
    matrix, power = _lattice(particle, cell, n_cells, True)
    t, tau = transmission_from_matrix(matrix), -(power[7] / power[3]).imag / (2.0 * particle.k)
    if not math.isfinite(tau):
        raise OverflowGuardError(f"k-derivative of the {n_cells}-cell lattice leaves double range")
    return t, tau


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
