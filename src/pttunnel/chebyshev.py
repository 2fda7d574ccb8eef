"""Chebyshev polynomials of both kinds on the whole real line.

Everything here is evaluated through the trigonometric/hyperbolic closed
forms rather than the three-term recurrence, so values stay well-conditioned
for arguments far outside [-1, 1].  The closed-form kernel in :mod:`timing`
takes T_N and U_{N-1} from here only for G outside the band, where both fit
in a double; its time and in-band G use neither.

Index conventions: ``U_{-1} = 0`` and ``U_{-2} = -1`` (the standard backward
extension of the recurrence), so that N = 0 and N = 1 lattice formulas reduce
without special cases.
"""

from __future__ import annotations

import math

__all__ = [
    "cheb_T",
    "cheb_U",
]


def _require_finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    return float(x)


def _sqrt_x2_minus_1(x: float) -> float:
    # sqrt(x^2 - 1) for x > 1 without forming x^2 (which overflows past 1e154).
    return math.sqrt(x - 1.0) * math.sqrt(x + 1.0)


def cheb_T(n: int, x: float) -> float:
    """First-kind polynomial T_n(x), stable on the whole real line."""
    if n < 0:
        raise ValueError("cheb_T requires n >= 0")
    x = _require_finite(x)
    if x >= 1.0:
        if x == 1.0:
            return 1.0
        return math.cosh(n * math.acosh(x))
    if x <= -1.0:
        if x == -1.0:
            return -1.0 if n % 2 else 1.0
        value = math.cosh(n * math.acosh(-x))
        return -value if n % 2 else value
    return math.cos(n * math.acos(x))


def cheb_U(n: int, x: float) -> float:
    """Second-kind polynomial U_n(x) with U_{-1} = 0 and U_{-2} = -1."""
    if n < -2:
        raise ValueError("cheb_U requires n >= -2")
    x = _require_finite(x)
    if n == -1:
        return 0.0
    if n == -2:
        return -1.0
    m = n + 1
    if x >= 1.0:
        if x == 1.0:
            return float(m)
        return math.sinh(m * math.acosh(x)) / _sqrt_x2_minus_1(x)
    if x <= -1.0:
        if x == -1.0:
            return float(-m if n % 2 else m)
        value = math.sinh(m * math.acosh(-x)) / _sqrt_x2_minus_1(-x)
        return -value if n % 2 else value
    psi = math.acos(x)
    return math.sin(m * psi) / math.sin(psi)

