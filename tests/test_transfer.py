import cmath
import math
import random
import sys
from unittest import mock

import pytest

from pttunnel import (
    CellSpec,
    OverflowGuardError,
    Particle,
    SpectralSingularityError,
    TransferMatrix,
    barrier_matrix,
    lattice_matrix_direct,
    lattice_oracle,
    transmission_closed,
    transmission_from_matrix,
)
from pttunnel import transfer
from pttunnel.sweep import draw_regular_point
from pttunnel.timing import tunneling_time
from pttunnel.transfer import ELEMENT_GUARD, IDENTITY, _phase_free

EPS = sys.float_info.epsilon


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
    # det = (p+*p- + s^2)/4 = 1, and m11*m22 and m12*m21 individually grow
    # like exp(2*beta), so the identity is checked relative to the size of
    # the cancelling terms
    rng = random.Random(11)
    for _ in range(200):
        p = Particle(rng.uniform(0.1, 50.0))
        v = rng.uniform(0.0, 100.0)
        sign = rng.choice((1.0, -1.0))
        m = barrier_matrix(p, sign * 1j * v, rng.uniform(0.01, 3.0))
        scale = max(1.0, abs(m.m11 * m.m22), abs(m.m12 * m.m21))
        assert abs(m.determinant() - 1.0) < 1e-12 * scale


def _couplings(particle, potential, width):
    """(p+, p-, s) of one barrier, read off its matrix at offset 0."""
    m = barrier_matrix(particle, potential, width)
    phase = cmath.exp(1j * particle.k * width)
    return 2.0 * m.m11 * phase, 2.0 * m.m22 / phase, 2.0 * m.m12 * phase


def test_translation_phase_on_off_diagonals():
    p = Particle(1.0)
    base = barrier_matrix(p, -20.0j, 0.3, 0)
    shifted = barrier_matrix(p, -20.0j, 0.3, 1)
    phase = cmath.exp(-2j * p.k * 0.3)
    assert shifted.m11 == pytest.approx(base.m11, rel=1e-14)
    assert shifted.m22 == pytest.approx(base.m22, rel=1e-14)
    assert shifted.m12 == pytest.approx(base.m12 * phase, rel=1e-13)
    assert shifted.m21 == pytest.approx(base.m21 / phase, rel=1e-13)


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
        p_plus, _p_minus, s = _couplings(p, 1j * v, width)
        kc = -cmath.sqrt(p.energy - 1j * v)  # other branch
        mu = kc / p.k
        even = (mu + 1.0 / mu) * cmath.sin(kc * width)
        odd = (mu - 1.0 / mu) * cmath.sin(kc * width)
        assert 2.0 * cmath.cos(kc * width) + 1j * even == pytest.approx(p_plus, rel=1e-12)
        assert 1j * odd == pytest.approx(s, rel=1e-12)


def test_lattice_base_cases():
    p = Particle(1.0)
    cell = CellSpec(20.0, 0.3)
    elementwise_close(lattice_matrix_direct(p, cell, 0), IDENTITY)
    # one cell against the product of its two barriers, multiplied out
    g_plus, g_minus, g_s = _couplings(p, 1j * cell.strength, cell.width)
    l_plus, l_minus, l_s = _couplings(p, -1j * cell.strength, cell.width)
    phase = cmath.exp(-2j * p.k * cell.width)
    unit_cell = TransferMatrix(
        m11=0.25 * phase * (g_plus * l_plus - g_s * l_s),
        m12=0.25 * phase * (l_plus * g_s + g_minus * l_s),
        m21=-0.25 * (l_minus * g_s + g_plus * l_s) / phase,
        m22=0.25 * (g_minus * l_minus - g_s * l_s) / phase,
    )
    elementwise_close(lattice_matrix_direct(p, cell, 1), unit_cell)


def test_lattice_matches_closed_form_transmission():
    p = Particle(1.0)
    cell = CellSpec(20.0, 0.1)
    t_direct = transmission_from_matrix(lattice_matrix_direct(p, cell, 4))
    t_closed = transmission_closed(p, cell, 4)
    assert abs(t_direct - t_closed) / abs(t_closed) < 1e-9


def _product(outer, inner):
    """outer @ inner; `inner` is the spatially left scatterer."""
    return TransferMatrix(
        outer.m11 * inner.m11 + outer.m12 * inner.m21, outer.m11 * inner.m12 + outer.m12 * inner.m22,
        outer.m21 * inner.m11 + outer.m22 * inner.m21, outer.m21 * inner.m12 + outer.m22 * inner.m22,
    )


def _product_by_composition(particle, cell, n_cells):
    """The lattice as one barrier_matrix call and one _product per barrier,
    with the guard on the sum of element moduli after every cell."""
    v, b = cell.strength, cell.width
    acc = IDENTITY
    for m in range(n_cells):
        gain = barrier_matrix(particle, 1j * v, b, 2 * m)
        loss = barrier_matrix(particle, -1j * v, b, 2 * m + 1)
        acc = _product(_product(loss, gain), acc)
        if not sum(map(abs, acc)) <= ELEMENT_GUARD:
            raise OverflowGuardError(f"composed product exceeds the guard after {m + 1} cells")
    return acc


def _elements(matrix):
    return (matrix.m11, matrix.m12, matrix.m21, matrix.m22)


# The squared product against the composed one, in units of eps times the
# composed product's largest element modulus, per cell.  The worst seen over
# the cases below is 125 (N = 352, E = 63.85, V = 27.96, b = 1.059), where
# the composed product is the one further from the 60-digit reference: its
# t misses by 7.0e-12, the squared product's by 1.7e-12.
ULPS_PER_CELL = 256


def test_squared_product_is_the_composed_product_within_ulps():
    rng = random.Random(2024)
    guarded = 0
    cases = [(1.0, 0.0, 1e-4, 0), (1.0, 0.0, 3.0, 1), (2.5, 40.0, 0.3, 1), (7.0, 0.0, 0.5, 60)]
    for _ in range(600):
        strength = rng.choice((0.0, rng.uniform(0.0, 100.0)))
        width = 10.0 ** rng.uniform(-4.0, math.log10(3.0))
        n_cells = rng.choice((0, 1, rng.randint(0, 120)))
        cases.append((rng.uniform(0.01, 80.0), strength, width, n_cells))
    for _ in range(100):  # as deep as oracle-limits' lattices (N = 300) and past them
        strength = rng.choice((0.0, rng.uniform(0.0, 100.0)))
        width = 10.0 ** rng.uniform(-4.0, math.log10(3.0))
        cases.append((rng.uniform(0.01, 80.0), strength, width, rng.randint(120, 400)))
    for _ in range(400):  # tiny and subnormal V, where s is too
        strength = rng.choice((5e-324, 1e-320, 3e-310, 2.2e-308, 1e-300))
        width = 10.0 ** rng.uniform(-4.0, math.log10(3.0))
        cases.append((rng.uniform(0.01, 80.0), strength, width, rng.randint(0, 120)))
    for energy, strength, width, n_cells in cases:
        p, cell = Particle(energy), CellSpec(strength, width)
        try:
            expected = _product_by_composition(p, cell, n_cells)
        except OverflowGuardError:
            guarded += 1
            with pytest.raises(OverflowGuardError, match="^direct lattice product of "):
                lattice_matrix_direct(p, cell, n_cells)
            continue
        got = lattice_matrix_direct(p, cell, n_cells)
        bound = ULPS_PER_CELL * max(n_cells, 1) * EPS * expected.max_abs()
        for name, a, b in zip(("m11", "m12", "m21", "m22"), _elements(got), _elements(expected)):
            assert abs(a - b) <= bound, (energy, strength, width, n_cells, name)
    assert guarded > 0


def test_guard_trips_wherever_the_composed_product_trips():
    # Lattices at and just past the guard, beside one just inside it:
    # - b = 4.52: one cell stays inside it (largest element 7.1e278), the
    #   second cell's elements overflow;
    # - abs(s) of a barrier overflows although its parts are finite;
    # - a lattice whose product crosses the guard in its last few cells;
    # - seeded lattices of growing cells, N up to 400.
    p, cell = Particle(1.0), CellSpec(1e4, 4.52)
    elementwise_close(lattice_matrix_direct(p, cell, 1), _product_by_composition(p, cell, 1))
    huge = Particle(0.016190649747622122), CellSpec(12786.80801883119, 8.801798654145626)
    k, b = huge[0].k, huge[1].width
    with pytest.raises(OverflowError):
        abs(2.0 * _phase_free(huge[0].energy, k, 1j * huge[1].strength, b, 1.0, False)[1])
    deep = Particle(18.627368314647295), CellSpec(25.63453797424473, 0.637503654559822)
    cases = [((p, cell), 4), (huge, 4), (deep, 337)]
    rng = random.Random(280)
    while len(cases) < 60:
        particle = Particle(rng.uniform(0.1, 50.0))
        lattice_cell = CellSpec(rng.uniform(10.0, 100.0), rng.uniform(0.1, 3.0))
        cases.append(((particle, lattice_cell), rng.randint(1, 400)))
    trips = []
    for i, ((particle, lattice_cell), n_cells) in enumerate(cases):
        # the guard bounds M alone, so the oracle's dM/dk never trips it
        message = _guard_message(lattice_matrix_direct, particle, lattice_cell, n_cells)
        assert _guard_message(lattice_oracle, particle, lattice_cell, n_cells) == message
        try:
            _product_by_composition(particle, lattice_cell, n_cells)
        except OverflowGuardError:
            trips.append(i)
            assert message.startswith(f"direct lattice product of {n_cells} cells exceeds 1e")
    assert trips[:3] == [0, 1, 2] and len(trips) >= 30


def _guard_message(call, *args):
    try:
        call(*args)
    except OverflowGuardError as caught:
        return str(caught)
    except SpectralSingularityError:
        pass
    return None


def test_lattice_oracle_types_a_derivative_past_double_range():
    # dM/dk is not guarded; where it leaves double range tau does, and the
    # oracle raises instead of returning it
    def steep(*args):
        elements = _phase_free(*args)
        return (*elements[:4], *(1e307 * d for d in elements[4:]))

    with mock.patch.object(transfer, "_phase_free", steep):
        assert math.isfinite(lattice_oracle(Particle(2.0), CellSpec(3.0, 0.5), 4)[1])
        lattice_matrix_direct(Particle(2.0), CellSpec(3.0, 0.5), 100)
        with pytest.raises(OverflowGuardError, match="^k-derivative of the 100-cell lattice leaves double range$"):
            lattice_oracle(Particle(2.0), CellSpec(3.0, 0.5), 100)


def test_lattice_overflow_guard():
    p, cell = Particle(1.0), CellSpec(100.0, 3.0)
    with pytest.raises(OverflowGuardError) as caught:
        lattice_matrix_direct(p, cell, 20)
    message = "direct lattice product of 20 cells exceeds 1e+280 (sum of |elements| 4.046e+289)"
    assert str(caught.value) == message
    with pytest.raises(OverflowGuardError):
        _product_by_composition(p, cell, 20)


def test_guard_types_a_square_whose_modulus_leaves_double_range():
    # the square (1.26e308+1.375e308j, 0, 0, 1) has finite parts, but abs()
    # of its first element, 1.87e308, raises OverflowError
    base = (1.25e154 + 0.55e154j, 0j, 0j, 1 + 0j)
    square = transfer._mul(base, base)
    assert all(cmath.isfinite(element) for element in square)
    with pytest.raises(OverflowError):
        abs(square[0])
    with pytest.raises(OverflowGuardError) as caught:
        transfer._power(base, 2, transfer._mul)
    assert (type(caught.value), str(caught.value)) == (
        OverflowGuardError, "direct lattice product of 2 cells exceeds 1e+280 (sum of |elements| inf)")


def test_barrier_growth_overflow_is_typed():
    # |Im(kc)|*b ~ 2,800: cos(kc*b) and sin(kc*b) leave double range
    p = Particle(1.0)
    with pytest.raises(OverflowGuardError, match="barrier growth"):
        barrier_matrix(p, 100j, 400.0)
    with pytest.raises(OverflowGuardError, match="barrier growth"):
        lattice_matrix_direct(p, CellSpec(100.0, 400.0), 1)


@pytest.mark.parametrize(
    "call, message",
    [
        # k*b = 1e309: cmath.cos(kc*b) would reject the infinite phase
        (lambda: lattice_matrix_direct(Particle(1e12), CellSpec(0.0, 1e303), 3),
         "barrier phase k*b*(1 + 2j) = 1.000e+06*1.000e+303*11 "
         "or Re(kc)*b = 1.000e+06*1.000e+303 leaves double range"),
        # k*b is finite, but the last offset phase k*b*(4N - 1) = 1.6e311 is not
        (lambda: lattice_matrix_direct(Particle(1e12), CellSpec(0.0, 1e302), 400),
         "barrier phase k*b*(1 + 2j) = 1.000e+06*1.000e+302*1599 "
         "or Re(kc)*b = 1.000e+06*1.000e+302 leaves double range"),
        (lambda: barrier_matrix(Particle(1e12), 1j, 1e303),
         "barrier phase k*b*(1 + 2j) = 1.000e+06*1.000e+303*1 "
         "or Re(kc)*b = 1.000e+06*1.000e+303 leaves double range"),
        (lambda: barrier_matrix(Particle(1.0), 0.5, 1e300, 10**8),
         "barrier phase k*b*(1 + 2j) = 1.000e+00*1.000e+300*200000001 "
         "or Re(kc)*b = 7.071e-01*1.000e+300 leaves double range"),
        # 1 + 2j is past double range before any phase is formed
        (lambda: barrier_matrix(Particle(1.0), 0.5, 1.0, 10**400),
         "barrier phase k*b*(1 + 2j) = 1.000e+00*1.000e+00*inf "
         "or Re(kc)*b = 7.071e-01*1.000e+00 leaves double range"),
        # N passes the N rule, but the last offset 2N - 1 does not fit a double
        (lambda: lattice_matrix_direct(Particle(1.0), CellSpec(0.5, 1.0), 10**308),
         "barrier phase k*b*(1 + 2j) = 1.000e+00*1.000e+00*inf "
         "or Re(kc)*b = 1.029e+00*1.000e+00 leaves double range"),
        # k*b = 1e200, but Re(kc) = 7e149 takes kc*b past double range
        (lambda: lattice_matrix_direct(Particle(1.0), CellSpec(1e300, 1e200), 1),
         "barrier phase k*b*(1 + 2j) = 1.000e+00*1.000e+200*3 "
         "or Re(kc)*b = 7.071e+149*1.000e+200 leaves double range"),
    ],
)
def test_phase_overflow_is_typed(call, message):
    with pytest.raises(OverflowGuardError) as caught:
        call()
    assert str(caught.value) == message


def test_barrier_elements_just_below_growth_range_are_typed():
    # |Im(kc)|*b = 707: cos and sin of kc*b are finite, but the couplings
    # (mu +- 1/mu)*sin(kc*b) overflow and the elements would be nan
    p = Particle(1.0)
    with pytest.raises(OverflowGuardError, match="barrier growth"):
        barrier_matrix(p, 10000j, 10.0)
    with pytest.raises(OverflowGuardError, match="barrier growth"):
        lattice_matrix_direct(p, CellSpec(1e4, 10.0), 1)


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
            mirrored = _product(_product(second, first), mirrored)
        t_fwd = transmission_from_matrix(forward)
        t_rev = transmission_from_matrix(mirrored)
        assert abs(t_fwd - t_rev) <= 1e-10 * abs(t_fwd)


# (E, V, b, N): thin cells at E = 1, L = 1 up to N = 1e6, and lattices of
# a few hundred to 2e5 cells.  Over 300 random lattices with N up to 1e6 the
# worst |det M - 1| was 5.6 N eps max(1, peak**2), the worst PT-unitarity
# residual 3.3 N eps and the worst mirror mismatch of t 1.2e-15.
LARGE_LATTICES = [(1.0, v, 1.0 / (2 * n), n) for n in (4096, 200000, 1000000) for v in (0.5, 5.0)] + [
    (39.82247079870717, 37.81388859184488, 0.3384767371243333, 87835),
    (29.531751109967825, 80.05994077418059, 0.1884399665065654, 167915),
    (13.179153137221238, 82.9171605593075, 0.15489352375044713, 199),
]


@pytest.mark.parametrize("energy, strength, width, n_cells", LARGE_LATTICES)
def test_lattice_identities_up_to_a_million_cells(energy, strength, width, n_cells):
    # det M = 1, reciprocity (the mirrored lattice, loss before gain, has the
    # same t) and PT unitarity |T - 1| = sqrt(R_L R_R) (Ge, Chong & Stone,
    # PRA 85, 023802, 2012)
    p, cell = Particle(energy), CellSpec(strength, width)
    m = lattice_matrix_direct(p, cell, n_cells)
    peak = m.max_abs()
    assert abs(m.determinant() - 1.0) <= 16 * n_cells * EPS * max(1.0, peak * peak)

    with mock.patch.object(transfer, "_phase_free", lambda e, k, u, *rest: _phase_free(e, k, -u, *rest)):
        mirrored = lattice_matrix_direct(p, cell, n_cells)
    t = transmission_from_matrix(m)
    assert abs(transmission_from_matrix(mirrored) - t) <= 1e-12 * abs(t)
    trans, refl = abs(t) ** 2, abs(m.m12 * m.m21) * abs(t) ** 2
    assert abs(abs(trans - 1.0) - refl) <= 16 * n_cells * EPS * (1.0 + trans + refl)


def test_lattice_oracle_is_the_direct_product_with_its_derivative():
    # t is bit for bit that of lattice_matrix_direct (the same squaring on the
    # matrix half of each pair), and tau is the closed form's
    rng = random.Random(6)
    for _ in range(200):
        p, cell, n = draw_regular_point(rng)
        try:
            t_direct = transmission_from_matrix(lattice_matrix_direct(p, cell, n))
        except SpectralSingularityError:
            continue
        t, tau = lattice_oracle(p, cell, n)
        assert repr(t) == repr(t_direct)
        assert abs(tau - tunneling_time(p, cell, n)) <= 1e-10 * abs(tau)
    assert lattice_oracle(Particle(2.0), CellSpec(3.0, 0.5), 0) == (1.0 + 0.0j, 0.0)
    # |kc|*k**2 = 1e-330 underflows to 0, which dmu/dk = U/(kc k**2) must not divide by
    assert lattice_oracle(Particle(1e-220), CellSpec(0.0, 1.0), 1) == (1.0 + 0.0j, 1.0 / 1e-110)
    with pytest.raises(ValueError, match="n_cells must be >= 0"):
        lattice_oracle(Particle(2.0), CellSpec(3.0, 0.5), -1)
    with pytest.raises(ValueError) as caught:  # the N rule, before any barrier
        lattice_oracle(Particle(1.0), CellSpec(0.5, 1.0), 10**400)
    assert (type(caught.value), str(caught.value)) == (
        ValueError, "n_cells must be at most 1.7976931348623157e+308, the largest double")
    with pytest.raises(OverflowGuardError, match="barrier phase"):
        lattice_oracle(Particle(1.0), CellSpec(0.5, 1.0), 10**308)
    with pytest.raises(OverflowGuardError, match="barrier growth"):
        lattice_oracle(Particle(1.0), CellSpec(1e4, 10.0), 1)


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
