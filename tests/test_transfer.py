import cmath
import math
import random

import pytest

from pttunnel import (
    CellSpec,
    OverflowGuardError,
    Particle,
    SpectralSingularityError,
    TransferMatrix,
    barrier_matrix,
    barrier_params,
    compose,
    lattice_matrix_direct,
    transmission_closed,
    transmission_from_matrix,
)
from pttunnel.transfer import ELEMENT_GUARD, IDENTITY


def elementwise_close(a: TransferMatrix, b: TransferMatrix, tol=1e-12):
    scale = max(a.max_abs(), b.max_abs())
    for name in ("m11", "m12", "m21", "m22"):
        assert abs(getattr(a, name) - getattr(b, name)) <= tol * scale, name


def test_free_space_barrier_is_identity():
    m = barrier_matrix(Particle(1.0), 0.0, 2.0)
    assert abs(m.m11 - 1.0) < 1e-14
    assert abs(m.m22 - 1.0) < 1e-14
    assert abs(m.m12) < 1e-14
    assert abs(m.m21) < 1e-14


def test_single_barrier_determinant():
    m = barrier_matrix(Particle(1.0), 20.0j, 0.3)
    assert m.determinant() == pytest.approx(1.0, rel=1e-12)


def test_coupling_identity():
    # p+*p- and s^2 individually grow like exp(2*beta), so the identity is
    # checked relative to the size of the cancelling terms
    rng = random.Random(11)
    for _ in range(200):
        p = Particle(rng.uniform(0.1, 50.0))
        v = rng.uniform(0.0, 100.0)
        sign = rng.choice((1.0, -1.0))
        bp = barrier_params(p, sign * 1j * v, rng.uniform(0.01, 3.0))
        value = bp.p_plus * bp.p_minus + bp.s * bp.s
        scale = max(4.0, abs(bp.p_plus * bp.p_minus), abs(bp.s * bp.s))
        assert abs(value - 4.0) < 1e-12 * scale


def test_translation_phase_on_off_diagonals():
    p = Particle(1.0)
    base = barrier_matrix(p, -20.0j, 0.3, 0)
    shifted = barrier_matrix(p, -20.0j, 0.3, 1)
    phase = cmath.exp(-2j * p.k * 0.3)
    assert shifted.m11 == pytest.approx(base.m11, rel=1e-14)
    assert shifted.m22 == pytest.approx(base.m22, rel=1e-14)
    assert shifted.m12 == pytest.approx(base.m12 * phase, rel=1e-13)
    assert shifted.m21 == pytest.approx(base.m21 / phase, rel=1e-13)


def test_compose_identity_law():
    m = barrier_matrix(Particle(2.0), 5.0j, 0.7)
    elementwise_close(compose(m, IDENTITY), m)
    elementwise_close(compose(IDENTITY, m), m)


def test_compose_associativity():
    rng = random.Random(3)
    for _ in range(50):
        mats = [
            barrier_matrix(
                Particle(rng.uniform(0.5, 10.0)),
                complex(rng.uniform(-5, 5), rng.uniform(-20, 20)),
                rng.uniform(0.05, 1.5),
                rng.randint(0, 3),
            )
            for _ in range(3)
        ]
        a, b, c = mats
        elementwise_close(compose(compose(a, b), c), compose(a, compose(b, c)))


def test_unit_cell_free_space():
    m = lattice_matrix_direct(Particle(1.0), CellSpec(0.0, 1.0), 1)
    assert abs(transmission_from_matrix(m) - 1.0) < 1e-13


def test_determinant_preserved_under_random_lattices():
    rng = random.Random(8)
    for _ in range(100):
        p = Particle(rng.uniform(0.1, 50.0))
        cell = CellSpec(rng.uniform(0.0, 100.0), rng.uniform(0.01, 3.0))
        n = rng.randint(0, 20)
        try:
            m = lattice_matrix_direct(p, cell, n)
        except OverflowGuardError:
            continue
        if m.max_abs() > 1e150:
            continue  # element products leave double range; check is vacuous
        det = m.determinant()
        scale = max(1.0, abs(m.m11 * m.m22), abs(m.m12 * m.m21))
        assert abs(det - 1.0) <= 1e-10 * scale


def test_internal_wave_number_branch_is_irrelevant():
    # mu + 1/mu is even under kc -> -kc and (mu - 1/mu)*sin(kc*b) is even too,
    # so both square-root branches give the same couplings.
    rng = random.Random(19)
    for _ in range(100):
        p = Particle(rng.uniform(0.2, 20.0))
        v = rng.uniform(0.1, 80.0)
        width = rng.uniform(0.05, 2.0)
        bp = barrier_params(p, 1j * v, width)
        kc = -bp.kc  # other branch
        mu = kc / p.k
        even = (mu + 1.0 / mu) * cmath.sin(kc * width)
        odd = (mu - 1.0 / mu) * cmath.sin(kc * width)
        assert 2.0 * cmath.cos(kc * width) + 1j * even == pytest.approx(bp.p_plus, rel=1e-12)
        assert 1j * odd == pytest.approx(bp.s, rel=1e-12)


def test_lattice_base_cases():
    p = Particle(1.0)
    cell = CellSpec(20.0, 0.3)
    elementwise_close(lattice_matrix_direct(p, cell, 0), IDENTITY)
    # one cell against the product of its two barriers, multiplied out
    gain = barrier_params(p, 1j * cell.strength, cell.width)
    loss = barrier_params(p, -1j * cell.strength, cell.width)
    phase = cmath.exp(-2j * p.k * cell.width)
    unit_cell = TransferMatrix(
        m11=0.25 * phase * (gain.p_plus * loss.p_plus - gain.s * loss.s),
        m12=0.25 * phase * (loss.p_plus * gain.s + gain.p_minus * loss.s),
        m21=-0.25 * (loss.p_minus * gain.s + gain.p_plus * loss.s) / phase,
        m22=0.25 * (gain.p_minus * loss.p_minus - gain.s * loss.s) / phase,
    )
    elementwise_close(lattice_matrix_direct(p, cell, 1), unit_cell)


def test_lattice_matches_closed_form_transmission():
    p = Particle(1.0)
    cell = CellSpec(20.0, 0.1)
    t_direct = transmission_from_matrix(lattice_matrix_direct(p, cell, 4))
    t_closed = transmission_closed(p, cell, 4)
    assert abs(t_direct - t_closed) / abs(t_closed) < 1e-9


def _product_by_composition(particle, cell, n_cells):
    """The direct product as one barrier_matrix and compose call per barrier."""
    v, b = cell.strength, cell.width
    acc = IDENTITY
    for m in range(n_cells):
        gain = barrier_matrix(particle, 1j * v, b, 2 * m)
        loss = barrier_matrix(particle, -1j * v, b, 2 * m + 1)
        acc = compose(compose(loss, gain), acc)
        peak = acc.max_abs()
        if peak > ELEMENT_GUARD:
            raise OverflowGuardError(
                f"direct lattice product exceeds {ELEMENT_GUARD:.0e} "
                f"after {m + 1} of {n_cells} cells (peak {peak:.3e})"
            )
    return acc


def _elements(matrix):
    return (matrix.m11, matrix.m12, matrix.m21, matrix.m22)


def test_direct_product_is_bitwise_the_composed_product():
    # the shared barrier elements must not change a single bit: == on every
    # element (signed zeros included, through repr), guard messages too
    rng = random.Random(2024)
    guarded = 0
    cases = [(1.0, 0.0, 1e-4, 0), (1.0, 0.0, 3.0, 1), (2.5, 40.0, 0.3, 1), (7.0, 0.0, 0.5, 60)]
    for _ in range(600):
        strength = rng.choice((0.0, rng.uniform(0.0, 100.0)))
        width = 10.0 ** rng.uniform(-4.0, math.log10(3.0))
        n_cells = rng.choice((0, 1, rng.randint(0, 120)))
        cases.append((rng.uniform(0.01, 80.0), strength, width, n_cells))
    for energy, strength, width, n_cells in cases:
        p, cell = Particle(energy), CellSpec(strength, width)
        try:
            expected = _product_by_composition(p, cell, n_cells)
        except OverflowGuardError as exc:
            guarded += 1
            with pytest.raises(OverflowGuardError) as caught:
                lattice_matrix_direct(p, cell, n_cells)
            assert str(caught.value) == str(exc)
            continue
        got = lattice_matrix_direct(p, cell, n_cells)
        assert _elements(got) == _elements(expected)
        assert repr(got) == repr(expected)
    assert guarded > 0


def test_lattice_overflow_guard():
    p, cell = Particle(1.0), CellSpec(100.0, 3.0)
    with pytest.raises(OverflowGuardError) as caught:
        lattice_matrix_direct(p, cell, 20)
    message = "direct lattice product exceeds 1e+280 after 16 of 20 cells (peak 1.160e+289)"
    assert str(caught.value) == message
    with pytest.raises(OverflowGuardError, match=r"after 16 of 20 cells \(peak 1\.160e\+289\)$"):
        _product_by_composition(p, cell, 20)


def test_left_right_transmission_reciprocity():
    # mirror of the lattice: cells in reverse order with swapped gain/loss
    rng = random.Random(23)
    for _ in range(30):
        p = Particle(rng.uniform(0.3, 20.0))
        cell = CellSpec(rng.uniform(0.5, 50.0), rng.uniform(0.05, 0.8))
        n = rng.randint(1, 6)
        forward = lattice_matrix_direct(p, cell, n)
        mirrored = IDENTITY
        for m in range(n):
            first = barrier_matrix(p, -1j * cell.strength, cell.width, 2 * m)
            second = barrier_matrix(p, 1j * cell.strength, cell.width, 2 * m + 1)
            mirrored = compose(compose(second, first), mirrored)
        t_fwd = transmission_from_matrix(forward)
        t_rev = transmission_from_matrix(mirrored)
        assert abs(t_fwd - t_rev) <= 1e-10 * abs(t_fwd)


def test_spectral_singularity_detection():
    singular = TransferMatrix(1e6 + 0j, 1.0 + 0j, 1.0 + 0j, 1e-10 + 0j)
    with pytest.raises(SpectralSingularityError):
        transmission_from_matrix(singular)
    assert transmission_from_matrix(IDENTITY) == 1.0


def test_barrier_rejects_degenerate_width():
    with pytest.raises(ValueError):
        barrier_matrix(Particle(1.0), 1j, 0.0)
    with pytest.raises(ValueError):
        barrier_matrix(Particle(1.0), 1j, 1.0, -1)
    with pytest.raises(ValueError):
        barrier_matrix(Particle(1.0), 1.0, 1.0)  # real height equal to energy
