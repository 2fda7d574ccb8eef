import math
import random

import pytest

from conftest import cell_part
from pttunnel import (
    CellSpec,
    InvalidEnergyError,
    Particle,
)
from pttunnel.model import _geometry


def _cell_geometry(energy, strength, width):
    """(width-free geometry, the kernel's cell part) at one (E, V, b)."""
    geo = _geometry(Particle(energy), strength)
    return geo, cell_part(geo, width)


def test_free_space_degeneration():
    d, (xi, _, _, chi, xi_prime, chi_prime, beta) = _cell_geometry(1.0, 0.0, 1.0)
    assert d.rho == pytest.approx(1.0, rel=1e-15)
    assert (d.sin_phi, d.cos_phi, d.sin_2phi, d.cos_2phi) == (0.0, 1.0, 0.0, 1.0)
    assert beta == 0.0
    assert d.u_plus == pytest.approx(2.0, rel=1e-15)
    assert d.u_minus == pytest.approx(0.0, abs=1e-15)
    # alpha = b*k = 1 and alpha' = b = 1 here: xi = cos 2alpha, chi = sin 2alpha
    assert xi == pytest.approx(math.cos(2.0), rel=1e-14)
    assert chi == pytest.approx(math.sin(2.0), rel=1e-14)
    assert xi_prime == pytest.approx(-2.0 * math.sin(2.0), rel=1e-14)
    assert chi_prime == pytest.approx(2.0 * math.cos(2.0), rel=1e-14)


def test_direct_arithmetic_oracle():
    d, (xi, _, _, _, _, _, beta) = _cell_geometry(1.0, 20.0, 1.0)
    phi = 0.5 * math.atan(20.0)
    assert d.rho == pytest.approx(401.0**0.25, rel=1e-14)
    assert d.sin_phi == pytest.approx(math.sin(phi), rel=1e-14)
    assert d.cos_phi == pytest.approx(math.cos(phi), rel=1e-14)
    assert beta == pytest.approx(d.rho * math.sin(phi), rel=1e-14)
    # xi = cos^2(phi) cos(2 alpha) + sin^2(phi) cosh(2 beta), alpha = b rho cos(phi)
    alpha = d.rho * math.cos(phi)
    expected = math.cos(phi) ** 2 * math.cos(2.0 * alpha) + math.sin(phi) ** 2 * math.cosh(2.0 * beta)
    assert xi == pytest.approx(expected, rel=1e-13)


def _fd_derivatives(energy, strength, width, rel=1e-6):
    k = math.sqrt(energy)
    h = rel * k
    hi, lo = (_cell_geometry(k_end**2, strength, width) for k_end in (k + h, k - h))
    values = {
        "sin_phi": lambda g: g[0].sin_phi,
        "xi": lambda g: g[1][0],
        "chi": lambda g: g[1][3],
        "u_plus": lambda g: g[0].u_plus,
        "u_minus": lambda g: g[0].u_minus,
    }
    return {name: (value(hi) - value(lo)) / (2.0 * h) for name, value in values.items()}


@pytest.mark.parametrize(
    "energy,strength,width",
    [(1.0, 20.0, 1.0), (4.0, 20.0, 0.5), (0.3, 3.0, 2.0), (25.0, 80.0, 0.2)],
)
def test_primed_fields_match_finite_differences(energy, strength, width):
    # alpha' and beta' reach the cell part only through xi' and chi'
    d, (_, _, _, _, xi_prime, chi_prime, _) = _cell_geometry(energy, strength, width)
    fd = _fd_derivatives(energy, strength, width)
    # d(sin phi)/dk = cos(phi) * phi'
    assert fd["sin_phi"] == pytest.approx(d.cos_phi * d.phi_prime, rel=1e-6)
    assert fd["xi"] == pytest.approx(xi_prime, rel=1e-6)
    assert fd["chi"] == pytest.approx(chi_prime, rel=1e-6)
    assert fd["u_plus"] == pytest.approx(d.u_plus_prime, rel=1e-6, abs=1e-10)
    assert fd["u_minus"] == pytest.approx(d.u_minus_prime, rel=1e-6, abs=1e-10)


def test_modulus_phase_invariants_random():
    rng = random.Random(2024)
    for _ in range(500):
        energy = rng.uniform(0.1, 50.0)
        strength = rng.uniform(0.0, 100.0)
        p = Particle(energy)
        d = _geometry(p, strength)
        k2 = p.k * p.k
        rho2 = d.rho * d.rho
        assert rho2 * rho2 == pytest.approx(k2 * k2 + strength * strength, rel=1e-12)
        assert d.sin_2phi * rho2 == pytest.approx(strength, rel=1e-12, abs=1e-12)
        assert d.cos_2phi * rho2 == pytest.approx(k2, rel=1e-12)
        assert 0.0 <= d.sin_phi < d.cos_phi  # 0 <= phi < pi/4


def test_wave_number_is_derived():
    p = Particle(4.0)
    assert p.k == 2.0
    assert Particle(2.0).k == pytest.approx(math.sqrt(2.0), rel=1e-16)


def test_energy_validation():
    with pytest.raises(InvalidEnergyError):
        Particle(0.0)
    with pytest.raises(InvalidEnergyError):
        Particle(-1.0)
    with pytest.raises(InvalidEnergyError):
        Particle(math.nan)
    with pytest.raises(InvalidEnergyError):
        Particle(True)  # bool is an int subclass, not an energy


def test_cell_validation():
    with pytest.raises(ValueError):
        CellSpec(-1.0, 1.0)
    with pytest.raises(ValueError):
        CellSpec(1.0, 0.0)
    with pytest.raises(ValueError):
        CellSpec(1.0, -2.0)
    with pytest.raises(ValueError):
        CellSpec(True, 1.0)
    with pytest.raises(ValueError):
        CellSpec(1.0, True)
    CellSpec(0.0, 1.0)  # V = 0 is a legal degenerate cell
