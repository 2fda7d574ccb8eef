"""Transmission and stationary-phase tunneling times for layered gain/loss
(+iV/-iV) barrier lattices, with closed Chebyshev forms, brute-force
transfer-matrix oracles, and both analytic limits (thick cells and many thin
cells).

The package exports what each of its library modules lists in ``__all__``,
and nothing more."""

from .errors import *
from .model import *
from .sweep import *
from .timing import *
from .transfer import *

__version__ = "0.1.0"

__all__ = errors.__all__ + model.__all__ + sweep.__all__ + timing.__all__ + transfer.__all__
