"""Physical parameter types and the cell geometry they determine.

Natural units throughout: 2m = 1, hbar = 1, c = 1, so the wave vector is
k = sqrt(E) and a free particle crosses a length L in time L/(2k).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import InvalidEnergyError, OverflowGuardError

__all__ = [
    "Particle",
    "CellSpec",
]


# _record(cls, values) builds the NamedTuple `cls` from the tuple of all its
# field values, in order, in C: tuple.__new__ itself, with no Python frame and
# past cls's own __new__, so only for records that do not validate, or to end
# the __new__ of one that has.
_record = tuple.__new__

# The largest double.  The input rules compare with it rather than convert:
# nan, the infinities and an int past it then fail the comparison, where
# math.isfinite would raise OverflowError for the int.
_LARGEST = sys.float_info.max


class _Validated:
    """Base of the records that validate in ``__new__``; ``_make`` and ``_replace`` go through it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _ParticleFields(NamedTuple):
    energy: float


class Particle(_Validated, _ParticleFields):
    """Incident particle, parameterized by its energy only.

    The wave vector is always derived (k = sqrt(E)); it is never stored, so
    inconsistent (E, k) pairs cannot exist.
    """

    __slots__ = ()

    def __new__(cls, energy: float) -> Particle:
        if isinstance(energy, bool) or not (isinstance(energy, (int, float)) and -_LARGEST <= energy <= _LARGEST):
            raise InvalidEnergyError(f"energy must be a finite number, got {energy!r}")
        if energy <= 0.0:
            raise InvalidEnergyError(f"energy must be positive, got {energy!r}")
        return _record(cls, (energy,))

    @property
    def k(self) -> float:
        return math.sqrt(self.energy)


class _CellSpecFields(NamedTuple):
    strength: float
    width: float


class CellSpec(_Validated, _CellSpecFields):
    """One gain/loss pair: +iV over a width `width`, then -iV over the same width.

    ``strength`` is the magnitude V >= 0 of the imaginary potential;
    ``width`` is the width b > 0 of each constituent barrier, so the full
    cell spans 2*width.
    """

    __slots__ = ()

    def __new__(cls, strength: float, width: float) -> CellSpec:
        _check_cell_spec(strength, width)
        return _record(cls, (strength, width))


# The input rules, each stated once: every entry point that takes E, V, b, N,
# a span L or a barrier height raises these ValueErrors (E its own
# InvalidEnergyError, in Particle).  A real input must be a number in
# [0, _LARGEST], or (0, _LARGEST] where it must be positive, and not a bool;
# V is >= 0, b and the barrier height > 0, and a span >= 0 except where the
# entry point needs it > 0.  A cell of (V, b) raises for a bool in either
# first, then for V, then for b.  N is an int, not a bool (its type is int
# itself), in [0, _LARGEST], where its float, L = 2*N*b and N^2 exist (inf
# at worst); _check_cells is its only check, which every entry point that
# takes N makes before it builds a cell geometry or a barrier.  _check_real
# and _check_cells return the value they pass.


def _check_real(name: str, value: float, positive: bool = False) -> float:
    if isinstance(value, bool) or not (0.0 < value <= _LARGEST if positive else 0.0 <= value <= _LARGEST):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")
    return value


def _check_cell_spec(strength: float, width: float) -> None:
    if isinstance(strength, bool) or isinstance(width, bool):
        raise ValueError(f"strength and width must be numbers, got CellSpec({strength=!r}, {width=!r})")
    _check_real("strength", strength)
    _check_real("width", width, positive=True)


def _check_cells(n_cells: int) -> int:
    if type(n_cells) is not int:  # so not a bool, nor any other subclass of int
        raise ValueError(f"n_cells must be an int, got {n_cells!r}")
    if not 0 <= n_cells <= _LARGEST:
        raise ValueError("n_cells must be >= 0" if n_cells < 0 else
                         f"n_cells must be at most {_LARGEST!r}, the largest double")
    return n_cells


class _Geometry(NamedTuple):
    """Geometry of the complex wave number k2 = sqrt(k^2 + iV) in one cell at
    (k, V), and its exact k-derivatives (*_prime) at fixed (V, b).

    rho = (k^4 + V^2)^(1/4) and phi = arctan(V/k^2)/2 in [0, pi/4) are the
    modulus and phase of k2, phi held through its sines and cosines;
    u_plus/u_minus are the impedance combinations k/rho +- rho/k.  Only
    alpha = b*rho*cos(phi) and beta = b*rho*sin(phi), the oscillatory and
    growing phase accumulations across one barrier, and their k-derivatives
    depend on the barrier width b, each as b times a factor held here; the
    kernel's cell part (:func:`timing._cell`) forms them.  A sweep at fixed
    (E, V) builds this record once and the cell part of each b scales it.
    """

    k: float
    rho: float
    rho3: float
    sin_phi: float
    cos_phi: float
    sin_2phi: float
    cos_2phi: float
    u_plus: float
    u_minus: float
    phi_prime: float
    u_plus_prime: float
    u_minus_prime: float
    alpha_rate: float  # alpha' = b*k*alpha_rate/rho^3
    beta_rate: float  # beta' = b*k*beta_rate/rho^3


def _geometry(particle: Particle, strength: float) -> _Geometry:
    """The cell geometry at (E, V); OverflowGuardError where rho^5
    underflows to 0 or rho^2/E overflows."""
    k = particle.k
    v = strength
    k2 = k * k
    rho2 = math.hypot(k2, v)
    rho = math.sqrt(rho2)
    rho4 = rho2 * rho2
    rho5 = rho4 * rho
    rho2_k2 = rho2 / k2
    # phi' and u+-' below divide by rho^4 and rho^5, and u+-' scale with
    # rho^2/E: past either end of double range no time is finite.
    if rho5 == 0.0 or rho2_k2 == math.inf:
        raise OverflowGuardError(
            f"the cell's k-derivatives leave double range at E = {particle.energy!r}, V = {v!r}"
        )
    v2 = float(v) * v  # as a double: an int V's exact square may pass the largest double and not convert
    phi = 0.5 * math.atan2(v, k2)
    sin_phi = math.sin(phi)
    cos_phi = math.cos(phi)
    return _record(_Geometry, (
        k,
        rho,
        rho * rho2,  # rho3
        sin_phi,
        cos_phi,
        math.sin(2.0 * phi),  # sin_2phi
        math.cos(2.0 * phi),  # cos_2phi
        k / rho + rho / k,  # u_plus
        k / rho - rho / k,  # u_minus
        -k * v / rho4,  # phi_prime
        v2 / rho5 * (1.0 - rho2_k2),  # u_plus_prime
        v2 / rho5 * (1.0 + rho2_k2),  # u_minus_prime
        v * sin_phi + k2 * cos_phi,  # alpha_rate
        k2 * sin_phi - v * cos_phi,  # beta_rate
    ))

