"""Chebyshev polynomials T_n and U_{n-1} from one angle, for n >= 1 and x > -1.

The trigonometric/hyperbolic closed forms, not the three-term recurrence,
keep values well-conditioned far above x = 1.  Its one caller in the
package, the thick-cell ratio check of ``sweep.run_limits``, passes n >= 1
and x far above 1.
"""

from __future__ import annotations

import math

__all__ = ["cheb_pair"]


def cheb_pair(n: int, x: float) -> tuple[float, float]:
    """(T_n(x), U_{n-1}(x)) for n >= 1 and x > -1, from one acosh or acos."""
    if x > 1.0:
        nu = n * math.acosh(x)
        # sqrt(x^2 - 1) without forming x^2 (which overflows past 1e154)
        return math.cosh(nu), math.sinh(nu) / (math.sqrt(x - 1.0) * math.sqrt(x + 1.0))
    if x == 1.0:
        return 1.0, float(n)
    psi = math.acos(x)
    return math.cos(n * psi), math.sin(n * psi) / math.sin(psi)
