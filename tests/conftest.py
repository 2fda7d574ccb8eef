from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

from pttunnel import Particle
from pttunnel.model import _geometry
from pttunnel.timing import _cell

# One (E, V, b, N) point per path of the kernel; None is a geometry that
# leaves double range, which only the sweeps hand to the kernel.  The
# timing tests walk every path, and tests/test_golden.py pins the bits of
# the oracle point at each.
PATH_POINTS = {
    "empty": (1.0, 20.0, 0.25, 0),
    "in-band": (4.0, 2.0, 0.3, 3),
    "singular": (0.547149018018704, 1.0, 1.4393530230212068, 7),
    "out-of-band": (1.0, 20.0, 3.0, 1),
    "underflow": (1.0, 20.0, 97.0, 2),
    "handoff": (1.0, 20.0, 120.0, 2),
    "not-evaluated": (100.0, 0.0, 1e307, 1),
    "no-geometry": None,
}

_REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "ptbench" / "reference.py"


@pytest.fixture(scope="session")
def lattice_reference():
    """``lattice_reference(E, V, b, N, dps)`` of ``ptbench/reference.py``: an
    mpmath slab-matrix product that shares no code or formula with pttunnel."""
    spec = importlib.util.spec_from_file_location("ptbench_reference", _REFERENCE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up there
    spec.loader.exec_module(module)
    return module.lattice_reference


def cell_part(geo, width: float) -> tuple[float, ...]:
    """The kernel's cell part (xi, xi - 1, xi + 1, chi, xi', chi', beta) of
    one (E, V) geometry at width b; fails where it is a record instead."""
    part = _cell(geo, width)
    assert type(part) is tuple, part
    return part


def bisect_width_for_xi(
    particle: Particle,
    strength: float,
    target: float,
    lo: float,
    hi: float,
    iters: int = 200,
) -> float:
    """Width b in (lo, hi) where xi(b) = target, assuming one sign change."""

    geo = _geometry(particle, strength)

    def offset(width: float) -> float:
        return cell_part(geo, width)[0] - target

    f_lo = offset(lo)
    f_hi = offset(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise AssertionError(f"no sign change of xi - {target} on [{lo}, {hi}]")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = offset(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
