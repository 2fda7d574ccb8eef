"""Physical parameter types and the cell geometry they determine.

Natural units throughout: 2m = 1, hbar = 1, c = 1, so the wave vector is
k = sqrt(E) and a free particle crosses a length L in time L/(2k).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidEnergyError, OverflowGuardError

__all__ = [
    "Particle",
    "CellSpec",
]


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
        if isinstance(energy, bool) or not (
            isinstance(energy, (int, float)) and math.isfinite(energy)
        ):
            raise InvalidEnergyError(f"energy must be a finite number, got {energy!r}")
        if energy <= 0.0:
            raise InvalidEnergyError(f"energy must be positive, got {energy!r}")
        return super().__new__(cls, energy)

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
        self = super().__new__(cls, strength, width)
        if isinstance(strength, bool) or isinstance(width, bool):
            raise ValueError(f"strength and width must be numbers, got {self!r}")
        if not (math.isfinite(strength) and strength >= 0.0):
            raise ValueError(f"strength must be finite and >= 0, got {strength!r}")
        if not (math.isfinite(width) and width > 0.0):
            raise ValueError(f"width must be finite and > 0, got {width!r}")
        return self


class _Geometry(NamedTuple):
    """Geometry of the complex wave number k2 = sqrt(k^2 + iV) in one cell at
    (k, V), and its exact k-derivatives (*_prime) at fixed (V, b).

    rho = (k^4 + V^2)^(1/4) and phi = arctan(V/k^2)/2 in [0, pi/4) are the
    modulus and phase of k2, phi held through its sines and cosines;
    u_plus/u_minus are the impedance combinations k/rho +- rho/k.  Only
    alpha = b*rho*cos(phi) and beta = b*rho*sin(phi), the oscillatory and
    growing phase accumulations across one barrier, and their k-derivatives
    depend on the barrier width b, each as b times a factor held here
    (:func:`_scaled`).  A sweep at fixed (E, V) builds this record once and
    each row only scales it by b.
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
    phi = 0.5 * math.atan2(v, k2)
    sin_phi = math.sin(phi)
    cos_phi = math.cos(phi)
    return _Geometry(
        k=k,
        rho=rho,
        rho3=rho * rho2,
        sin_phi=sin_phi,
        cos_phi=cos_phi,
        sin_2phi=math.sin(2.0 * phi),
        cos_2phi=math.cos(2.0 * phi),
        u_plus=k / rho + rho / k,
        u_minus=k / rho - rho / k,
        phi_prime=-k * v / rho4,
        u_plus_prime=v * v / rho5 * (1.0 - rho2_k2),
        u_minus_prime=v * v / rho5 * (1.0 + rho2_k2),
        alpha_rate=v * sin_phi + k2 * cos_phi,
        beta_rate=k2 * sin_phi - v * cos_phi,
    )


def _scaled(g: _Geometry, width: float) -> tuple[float, float, float, float]:
    """(alpha, beta, alpha', beta') at barrier width b."""
    bk = width * g.k
    return (
        width * g.rho * g.cos_phi,
        width * g.rho * g.sin_phi,
        bk * g.alpha_rate / g.rho3,
        bk * g.beta_rate / g.rho3,
    )

