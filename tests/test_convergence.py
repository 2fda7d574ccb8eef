"""Convergence laws of both analytic limits at desk scale."""

import math

import pytest

from conftest import cell_part
from pttunnel import (
    CellSpec,
    Particle,
    free_propagation_time,
    hartman_coeffs,
    hartman_limit_time,
    transmission_closed,
    tunneling_time,
)
from pttunnel.chebyshev import cheb_pair
from pttunnel.model import _geometry


def test_thick_cell_distance_strictly_decreases():
    p = Particle(1.0)
    tau_inf = hartman_limit_time(p, 20.0)
    for n in (1, 2, 3, 4):
        gaps = [
            abs(tunneling_time(p, CellSpec(20.0, b), n) - tau_inf)
            for b in (1.0, 2.0, 3.0, 4.0, 5.0)
        ]
        for closer, farther in zip(gaps[1:], gaps[:-1]):
            assert closer < farther


def test_thick_cell_time_independent_of_repetitions():
    p = Particle(1.0)
    tau_inf = hartman_limit_time(p, 20.0)
    cell = CellSpec(20.0, 5.0)
    spread = abs(tunneling_time(p, cell, 1) - tunneling_time(p, cell, 4))
    assert spread / tau_inf < 1e-3


@pytest.mark.parametrize("energy", [1.0, 4.0])
def test_thin_cell_convergence_to_free_passage(energy):
    p = Particle(energy)
    span = 1.0
    reference = free_propagation_time(p, span)
    for strength in (5.0, 10.0, 20.0):
        n = 1
        while n <= 4096:
            tau = tunneling_time(p, CellSpec(strength, span / (2.0 * n)), n)
            if abs(tau - reference) / reference < 1e-3:
                break
            n *= 2
        assert n <= 4096, f"V={strength}: no convergence by N=4096"


def test_free_space_exact_through_the_full_pipeline():
    p = Particle(1.0)
    cell = CellSpec(0.0, 1.0)
    for n in (1, 2, 3, 7, 20, 55, 100):
        t = transmission_closed(p, cell, n)
        assert abs(t - 1.0) < 1e-12
        tau = tunneling_time(p, cell, n)
        expected = free_propagation_time(p, 2.0 * n * cell.width)
        assert abs(tau - expected) / expected < 1e-12


@pytest.mark.parametrize(
    "energy,strength", [(1.0, 20.0), (4.0, 10.0), (0.5, 7.0)]
)
def test_thick_cell_asymptotic_ratios(energy, strength):
    # at beta = 15 every expansion ratio is inside 1e-4 of its limit
    p = Particle(energy)
    d = _geometry(p, strength)
    width = 15.0 / (d.rho * d.sin_phi)
    xi, _, _, chi, _, _, beta = cell_part(d, width)
    growth = math.exp(2.0 * beta)
    coeffs = hartman_coeffs(p, strength)
    assert xi / growth == pytest.approx(coeffs.f1, rel=1e-4)
    assert chi / growth == pytest.approx(0.25 * d.u_minus * d.sin_phi, rel=1e-4)
    assert chi / xi == pytest.approx(coeffs.gamma, rel=1e-4)
    for n in (1, 2, 3, 4):
        t_n, u_n1 = cheb_pair(n, xi)
        assert u_n1 / t_n * xi == pytest.approx(1.0, rel=1e-4)
