import math
import random

import pytest

from pttunnel import (
    CellSpec,
    InvalidEnergyError,
    Particle,
    derived_quantities,
)


def test_free_space_degeneration():
    d = derived_quantities(Particle(1.0), CellSpec(0.0, 1.0))
    assert d.rho == pytest.approx(1.0, rel=1e-15)
    assert d.phi == 0.0
    assert d.alpha == pytest.approx(1.0, rel=1e-15)
    assert d.beta == 0.0
    assert d.u_plus == pytest.approx(2.0, rel=1e-15)
    assert d.u_minus == pytest.approx(0.0, abs=1e-15)
    assert d.alpha_prime == pytest.approx(1.0, rel=1e-14)  # alpha = b*k here
    assert d.beta_prime == pytest.approx(0.0, abs=1e-15)


def test_direct_arithmetic_oracle():
    d = derived_quantities(Particle(1.0), CellSpec(20.0, 1.0))
    assert d.rho == pytest.approx(401.0**0.25, rel=1e-14)
    assert d.phi == pytest.approx(0.5 * math.atan(20.0), rel=1e-14)
    assert d.alpha == pytest.approx(d.rho * math.cos(d.phi), rel=1e-14)
    assert d.beta == pytest.approx(d.rho * math.sin(d.phi), rel=1e-14)


def _fd_derivatives(energy, strength, width, rel=1e-6):
    k = math.sqrt(energy)
    h = rel * k
    hi = derived_quantities(Particle((k + h) ** 2), CellSpec(strength, width))
    lo = derived_quantities(Particle((k - h) ** 2), CellSpec(strength, width))
    return {
        name: (getattr(hi, name) - getattr(lo, name)) / (2.0 * h)
        for name in ("rho", "phi", "alpha", "beta", "u_plus", "u_minus")
    }


@pytest.mark.parametrize(
    "energy,strength,width",
    [(1.0, 20.0, 1.0), (4.0, 20.0, 0.5), (0.3, 3.0, 2.0), (25.0, 80.0, 0.2)],
)
def test_primed_fields_match_finite_differences(energy, strength, width):
    d = derived_quantities(Particle(energy), CellSpec(strength, width))
    fd = _fd_derivatives(energy, strength, width)
    assert fd["rho"] == pytest.approx(d.rho_prime, rel=1e-6)
    assert fd["phi"] == pytest.approx(d.phi_prime, rel=1e-6)
    assert fd["alpha"] == pytest.approx(d.alpha_prime, rel=1e-6)
    assert fd["beta"] == pytest.approx(d.beta_prime, rel=1e-6)
    assert fd["u_plus"] == pytest.approx(d.u_plus_prime, rel=1e-6, abs=1e-10)
    assert fd["u_minus"] == pytest.approx(d.u_minus_prime, rel=1e-6, abs=1e-10)


def test_modulus_phase_invariants_random():
    rng = random.Random(2024)
    for _ in range(500):
        energy = rng.uniform(0.1, 50.0)
        strength = rng.uniform(0.0, 100.0)
        p = Particle(energy)
        d = derived_quantities(p, CellSpec(strength, 1.0))
        k2 = p.k * p.k
        rho2 = d.rho * d.rho
        assert rho2 * rho2 == pytest.approx(k2 * k2 + strength * strength, rel=1e-12)
        assert math.sin(2.0 * d.phi) * rho2 == pytest.approx(strength, rel=1e-12, abs=1e-12)
        assert math.cos(2.0 * d.phi) * rho2 == pytest.approx(k2, rel=1e-12)
        assert 0.0 <= d.phi < math.pi / 4.0


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
