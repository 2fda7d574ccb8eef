import cmath
import contextlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PATH_POINTS, bisect_width_for_xi, cell_part
from pttunnel import (
    CellSpec,
    DegeneratePotentialError,
    OverflowGuardError,
    Particle,
    SpectralSingularityError,
    barrier_matrix,
    evaluate_point,
    free_propagation_time,
    hartman_coeffs,
    hartman_limit_time,
    lattice_matrix_direct,
    n_infinity_bracket,
    square_barrier_time,
    transmission_closed,
    transmission_from_matrix,
    tunneling_time,
    tunneling_time_fd,
)
from pttunnel.chebyshev import cheb_pair
from pttunnel.model import _geometry
from pttunnel.timing import _LN_MAX, _cell, _closed_form, closed_form


def scalars_of(particle, cell):
    """(xi, xi - 1, xi + 1, chi, xi', chi') of one cell."""
    return cell_part(_geometry(particle, cell.strength), cell.width)[:6]


# ---------------------------------------------------------------------------
# xi, chi and their derivatives
# ---------------------------------------------------------------------------


def test_xi_chi_free_space_reduction():
    xi, _, _, chi, _, _ = scalars_of(Particle(1.0), CellSpec(0.0, 1.0))
    assert xi == pytest.approx(math.cos(2.0), rel=1e-12)
    assert chi == pytest.approx(math.sin(2.0), rel=1e-12)


def test_xi_chi_consistent_with_unit_cell_matrix():
    # single-cell closed form must invert m22 exactly
    p = Particle(1.0)
    cell = CellSpec(20.0, 0.3)
    unit_cell = lattice_matrix_direct(p, cell, 1)
    t_matrix = transmission_from_matrix(unit_cell)
    t_closed = transmission_closed(p, cell, 1)
    assert abs(t_closed - t_matrix) / abs(t_matrix) < 1e-12
    # and xi - i*chi is m22 stripped of its free phase
    xi, _, _, chi, _, _ = scalars_of(p, cell)
    reduced = unit_cell.m22 * cmath.exp(-2j * p.k * cell.width)
    assert xi == pytest.approx(reduced.real, rel=1e-12)
    assert -chi == pytest.approx(reduced.imag, rel=1e-12)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    energy=st.floats(-8.0, 8.0).map(lambda x: 10.0**x),
    strength=st.floats(0.0, 1e6) | st.floats(-8.0, 6.0).map(lambda x: 10.0**x),
    width=st.floats(-7.0, 3.0).map(lambda x: 10.0**x),
)
def test_xi_is_never_below_minus_one(energy, strength, width):
    # xi + 1 >= 2 cos^2(alpha) since 0 < cos 2phi <= 1; closed_form takes
    # every cell outside the band to have xi > 1 and T_N > 0
    try:
        xi = closed_form(Particle(energy), CellSpec(strength, width), 1).xi
    except OverflowGuardError:  # the geometry itself leaves double range
        return
    assert math.isnan(xi) or xi >= -1.0  # nan: beta > BETA_MAX, no xi evaluated


def test_xi_growth_matches_thick_cell_coefficient():
    p = Particle(1.0)
    cell = CellSpec(20.0, 3.0)
    xi = closed_form(p, cell, 1).xi
    beta = cell_part(_geometry(p, 20.0), cell.width)[-1]
    f1 = hartman_coeffs(p, 20.0).f1
    assert xi * math.exp(-2.0 * beta) == pytest.approx(f1, rel=1e-4)


def test_xi_chi_overflow_guard():
    # past BETA_MAX the kernel evaluates no cell scalars and says why
    cf = closed_form(Particle(1.0), CellSpec(20.0, 120.0), 1)
    assert cf.path == "handoff" and isinstance(cf.error, OverflowGuardError)
    assert math.isnan(cf.xi)


def test_xi_chi_prime_free_space():
    _, _, _, _, xi_p, chi_p = scalars_of(Particle(1.0), CellSpec(0.0, 1.0))
    assert xi_p == pytest.approx(-2.0 * math.sin(2.0), rel=1e-12)
    assert chi_p == pytest.approx(2.0 * math.cos(2.0), rel=1e-12)


@pytest.mark.parametrize(
    "energy,strength,width",
    [(1.0, 20.0, 0.5), (4.0, 10.0, 1.0), (0.5, 2.0, 0.3), (9.0, 60.0, 0.8)],
)
def test_xi_chi_prime_match_finite_differences(energy, strength, width):
    k = math.sqrt(energy)
    h = 1e-6 * k
    cell = CellSpec(strength, width)
    xi_hi, _, _, chi_hi, _, _ = scalars_of(Particle((k + h) ** 2), cell)
    xi_lo, _, _, chi_lo, _, _ = scalars_of(Particle((k - h) ** 2), cell)
    _, _, _, _, xi_p, chi_p = scalars_of(Particle(energy), cell)
    assert (xi_hi - xi_lo) / (2.0 * h) == pytest.approx(xi_p, rel=1e-6)
    assert (chi_hi - chi_lo) / (2.0 * h) == pytest.approx(chi_p, rel=1e-6)


# ---------------------------------------------------------------------------
# transmission
# ---------------------------------------------------------------------------


def test_transmission_free_space_is_unity():
    t = transmission_closed(Particle(1.0), CellSpec(0.0, 1.0), 5)
    assert abs(t - 1.0) < 1e-13


def test_transmission_empty_lattice():
    assert transmission_closed(Particle(3.0), CellSpec(17.0, 0.4), 0) == 1.0 + 0.0j


def test_transmission_matches_direct_product():
    p = Particle(1.0)
    cell = CellSpec(20.0, 0.1)
    t_direct = transmission_from_matrix(lattice_matrix_direct(p, cell, 4))
    assert abs(transmission_closed(p, cell, 4) - t_direct) / abs(t_direct) < 1e-9


def test_transmission_magnitude_identity():
    # |t| * |G| = 1 with G rebuilt from the published split
    p = Particle(2.0)
    cell = CellSpec(7.0, 0.6)
    n = 3
    xi, _, _, chi, _, _ = scalars_of(p, cell)
    t_n, u_n1 = cheb_pair(n, xi)
    g = complex(t_n, -chi * u_n1)
    t = transmission_closed(p, cell, n)
    assert abs(t) * abs(g) == pytest.approx(1.0, rel=1e-12)


def test_transmission_deep_lattice_raises_overflow():
    # beta*N far beyond what doubles can hold for |G|
    with pytest.raises(OverflowGuardError):
        transmission_closed(Particle(1.0), CellSpec(20.0, 97.0), 2)


def test_transmission_log_domain_path():
    # beta large enough that T_N alone overflows but |G| still fits
    p = Particle(1.0)
    cell = CellSpec(20.0, 110.0)
    t = transmission_closed(p, cell, 1)
    assert 0.0 < abs(t) < 1e-250
    assert math.isfinite(t.real) and math.isfinite(t.imag)
    # phase agrees with the bounded-ratio expression -k*L - arg(1 - i*chi*q)
    xi, _, _, chi, _, _ = scalars_of(p, cell)
    t_1, u_0 = cheb_pair(1, xi)
    bounded = -p.k * 2.0 * cell.width - math.atan(-chi * u_0 / t_1)
    assert math.remainder(cmath.phase(t) - bounded, math.tau) == pytest.approx(0.0, abs=1e-9)
    assert closed_form(p, cell, 1).theta == cmath.phase(t)


# ---------------------------------------------------------------------------
# transmission phase
# ---------------------------------------------------------------------------


def test_phase_free_space_multiple_of_pi():
    theta = closed_form(Particle(1.0), CellSpec(0.0, 1.0), 2).theta
    assert math.remainder(theta, math.pi) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "energy,strength,width,n",
    [(1.0, 20.0, 0.2, 3), (4.0, 5.0, 0.4, 2), (2.0, 33.0, 0.9, 5), (1.0, 0.0, 1.0, 2)],
)
def test_phase_matches_transmission_argument(energy, strength, width, n):
    p = Particle(energy)
    cell = CellSpec(strength, width)
    theta = closed_form(p, cell, n).theta
    t = transmission_closed(p, cell, n)
    assert abs(cmath.exp(1j * theta) - t / abs(t)) < 1e-10
    assert -math.pi < theta <= math.pi


def test_phase_at_root_of_t_is_transmission_argument():
    p = Particle(4.0)
    cell = CellSpec(2.0, bisect_width_for_xi(p, 2.0, math.cos(math.pi / 6.0), 0.1, 0.5))
    assert closed_form(p, cell, 3).theta == cmath.phase(transmission_closed(p, cell, 3))


# ---------------------------------------------------------------------------
# tunneling time
# ---------------------------------------------------------------------------


def test_time_free_space_is_free_passage():
    tau = tunneling_time(Particle(1.0), CellSpec(0.0, 1.0), 3)
    assert tau == pytest.approx(3.0, rel=1e-12)  # L = 6, k = 1


def test_time_empty_lattice():
    assert tunneling_time(Particle(5.0), CellSpec(9.0, 0.3), 0) == 0.0
    assert tunneling_time_fd(Particle(5.0), CellSpec(9.0, 0.3), 0) == 0.0


def test_time_finite_difference_free_space():
    tau = tunneling_time_fd(Particle(1.0), CellSpec(0.0, 1.0), 3, rel_step=1e-6)
    assert tau == pytest.approx(3.0, rel=1e-9)


def test_time_matches_finite_difference_oracle_at_reference_point():
    p = Particle(1.0)
    cell = CellSpec(20.0, 0.25)
    assert tunneling_time(p, cell, 2) == pytest.approx(
        tunneling_time_fd(p, cell, 2), rel=1e-6
    )


def test_time_matches_finite_difference_oracle_random():
    from pttunnel.sweep import draw_regular_point

    rng = random.Random(60601)
    for _ in range(200):
        p, cell, n = draw_regular_point(rng)
        tau = tunneling_time(p, cell, n)
        tau_fd = tunneling_time_fd(p, cell, n)
        assert tau == pytest.approx(tau_fd, rel=1e-5, abs=1e-12)


def test_finite_difference_step_is_second_order():
    p = Particle(1.0)
    cell = CellSpec(20.0, 0.25)
    exact = tunneling_time(p, cell, 2)
    err_h = tunneling_time_fd(p, cell, 2, rel_step=4e-4) - exact
    err_half = tunneling_time_fd(p, cell, 2, rel_step=2e-4) - exact
    assert 3.0 < err_h / err_half < 5.0


def test_finite_difference_rejects_bad_step():
    p = Particle(1.0)
    with pytest.raises(ValueError):
        tunneling_time_fd(p, CellSpec(1.0, 1.0), 1, rel_step=1e-2)
    with pytest.raises(ValueError):
        tunneling_time_fd(p, CellSpec(1.0, 1.0), 1, rel_step=1e-10)


def test_finite_difference_span_is_formed_as_the_kernel_forms_it():
    # L = 2*(N*b) is about 2 here, where 2*N alone is inf
    tau = tunneling_time_fd(Particle(1.0), CellSpec(5.0, 1e-308), 10**308)
    assert math.isfinite(tau)


def test_time_at_band_edge_matches_reference(lattice_reference):
    p = Particle(1.0)
    width = bisect_width_for_xi(p, 20.0, 1.0, 0.15, 0.2)
    result = closed_form(p, CellSpec(20.0, width), 2)
    assert result.band_edge
    reference = float(lattice_reference(1.0, 20.0, width, 2, dps=60).tau)
    assert abs(result.tau - reference) <= 1e-13 * abs(reference)
    fd = tunneling_time_fd(p, CellSpec(20.0, width), 2)
    assert result.tau == pytest.approx(fd, rel=1e-5)
    # continuity across the edge
    nearby = closed_form(p, CellSpec(20.0, width * (1.0 + 1e-7)), 2)
    assert not nearby.band_edge
    assert nearby.tau == pytest.approx(result.tau, rel=1e-4)


@pytest.mark.parametrize("strength, width", [(0.0, 1e-200), (0.5, 1e-170)])
def test_exact_band_edge_g(strength, width):
    # sin^2(alpha) underflows, so xi - 1 is exactly 0 and G takes the
    # band-edge form U_{N-1} = q T_N; these thin cells are free passage
    p, cell = Particle(1.0), CellSpec(strength, width)
    cf = closed_form(p, cell, 3)
    assert cf.xi - 1.0 == 0.0
    assert abs(cf.t) == 1.0
    assert cf.tau == pytest.approx(free_propagation_time(p, 6.0 * width), rel=1e-15, abs=0.0)
    assert evaluate_point(p, cell, 3).flags == ("XiAtUnity",)


def test_time_at_root_of_t_is_continuous_and_matches_fd():
    p = Particle(4.0)
    width = bisect_width_for_xi(p, 2.0, math.cos(math.pi / 6.0), 0.1, 0.5)
    tau = tunneling_time(p, CellSpec(2.0, width), 3)
    left = tunneling_time(p, CellSpec(2.0, width * (1.0 - 3e-6)), 3)
    right = tunneling_time(p, CellSpec(2.0, width * (1.0 + 3e-6)), 3)
    assert min(left, right) < tau < max(left, right)
    assert tau == pytest.approx(tunneling_time_fd(p, CellSpec(2.0, width), 3), rel=1e-8)


def test_closed_form_bundle_is_consistent():
    p = Particle(1.0)
    cell = CellSpec(20.0, 0.25)
    cf = closed_form(p, cell, 2)
    assert cf.t == transmission_closed(p, cell, 2)
    assert cf.tau == tunneling_time(p, cell, 2)
    assert cf.theta == cmath.phase(cf.t)
    assert cf.xi == scalars_of(p, cell)[0]
    assert cf.error is None
    assert not (cf.band_edge or cf.path == "handoff")
    # a root of T_N is a regular point; the record marks the handoff past BETA_MAX
    width = bisect_width_for_xi(Particle(4.0), 2.0, math.cos(math.pi / 6.0), 0.1, 0.5)
    root = closed_form(Particle(4.0), CellSpec(2.0, width), 3)
    assert math.isfinite(root.tau) and root.t is not None and root.error is None
    thick = closed_form(p, CellSpec(20.0, 120.0), 2)
    assert thick.path == "handoff" and thick.t is None
    assert isinstance(thick.error, OverflowGuardError)


def test_closed_form_underflow_keeps_bounded_phase():
    # |G| beyond double range: t is replaced by its error, theta survives
    p = Particle(1.0)
    cell = CellSpec(20.0, 97.0)
    cf = closed_form(p, cell, 2)
    assert cf.t is None and isinstance(cf.error, OverflowGuardError)
    assert -math.pi < cf.theta <= math.pi
    assert cf.tau == pytest.approx(hartman_limit_time(p, 20.0), rel=1e-10)


def test_time_that_is_not_finite_is_typed():
    # alpha' is inf/inf at E = 1e300, so the record's tau is nan; the
    # transmission itself is still fine there
    p = Particle(1e300)
    cell = CellSpec(20.0, 0.25)
    cf = closed_form(p, cell, 2)
    assert math.isnan(cf.tau) and cf.error is None
    with pytest.raises(OverflowGuardError):
        tunneling_time(p, cell, 2)
    assert abs(transmission_closed(p, cell, 2)) == pytest.approx(1.0)


@pytest.mark.parametrize("width, n_cells", [(1e307, 1), (1e306, 100)])
def test_closed_form_huge_width_is_typed(width, n_cells):
    # the cell phase 2*alpha = 2*b*k (b = 1e307) or the lattice phase k*L
    # (L = 2e308) leaves double range at k = 10, V = 0
    p = Particle(100.0)
    cell = CellSpec(0.0, width)
    cf = closed_form(p, cell, n_cells)
    assert isinstance(cf.error, OverflowGuardError) and cf.path != "handoff"
    assert cf.t is None and math.isnan(cf.tau) and math.isnan(cf.theta)
    for project in (transmission_closed, tunneling_time):
        with pytest.raises(OverflowGuardError):
            project(p, cell, n_cells)
    assert math.isnan(cf.xi) and cf.path == "not-evaluated"  # no cell scalars evaluated


def _path_and_message(record):
    return record.path, None if record.error is None else str(record.error)


def test_kernel_checks_in_order_on_shared_cells():
    # the N part checks the geometry, then N = 0, then the cell part's
    # record (beta before 2*alpha), then k*L, on a cell part that every N
    # shares; the messages are the kernel's before it was split
    geo = _geometry(Particle(100.0), 20.0)
    free = _geometry(Particle(100.0), 0.0)
    handoff = _cell(geo, 400.0)  # beta = 398
    both = _cell(geo, 1e307)  # beta > BETA_MAX and 2*alpha = inf
    phase = _cell(free, 1e307)  # 2*alpha = inf, and k*L = inf at N = 1
    evaluated = _cell(free, 5e306)  # k*L = inf from N = 2
    empty = ("empty", None)
    assert _path_and_message(_closed_form(None, None, 1.0, 0)) == (
        "not-evaluated", "cell geometry leaves double range")
    for cell, width in ((handoff, 400.0), (both, 1e307), (phase, 1e307), (evaluated, 5e306)):
        assert _path_and_message(_closed_form(geo, cell, width, 0)) == empty
    handoff_message = ("growth exponent beta = 398.034 exceeds 350; exp(2*beta) leaves double range "
                       "-- use the thick-barrier limit")
    assert _path_and_message(_closed_form(geo, handoff, 400.0, 2)) == ("handoff", handoff_message)
    path, message = _path_and_message(_closed_form(geo, both, 1e307, 1))
    assert path == "handoff" and message.startswith("growth exponent beta = 99508549176834478")
    assert _path_and_message(_closed_form(free, phase, 1e307, 1)) == (
        "not-evaluated", "cell phase 2*alpha = 2*1.000e+308 leaves double range")
    assert _closed_form(free, evaluated, 5e306, 1).path == "in-band"
    assert _path_and_message(_closed_form(free, evaluated, 5e306, 2)) == (
        "not-evaluated", "lattice phase k*L = 1.000e+01*2.000e+307 leaves double range")


def test_closed_form_cancelled_growth_scale_is_typed():
    # sin(phi) = 5e-151 rounds cos 2phi to 1, so xi + 1 cancels to 0.0 at
    # beta = 60 and the growth scale sqrt(xi^2 - 1) is 0 outside the band
    p = Particle(1e300)
    cell = CellSpec(1e150, 120.0)
    geo = _geometry(p, cell.strength)
    _, xi_minus_1, xi_plus_1, _, _, _, _ = cell_part(geo, cell.width)
    growth_scale = math.sqrt(abs(xi_minus_1)) * math.sqrt(abs(xi_plus_1))
    assert xi_minus_1 > 0.0 and growth_scale == 0.0
    cf = closed_form(p, cell, 10**9)
    assert isinstance(cf.error, OverflowGuardError) and cf.path != "handoff"
    assert cf.t is None and math.isnan(cf.tau) and math.isnan(cf.theta)
    for project in (transmission_closed, tunneling_time):
        with pytest.raises(OverflowGuardError):
            project(p, cell, 10**9)


def _t_abs_from_fields(record):
    """|t| worked out from t, error and theta, the path read only for a handoff."""
    if record.path == "handoff":
        return 0.0
    if record.t is not None:
        return abs(record.t)
    if isinstance(record.error, SpectralSingularityError):
        return math.inf
    return 0.0 if math.isfinite(record.theta) else math.nan


@pytest.mark.parametrize("name", list(PATH_POINTS))
def test_record_t_abs_matches_the_row_rule_on_every_path(name):
    point = PATH_POINTS[name]
    if point is None:
        record = _closed_form(None, None, 1.0, 2)
    else:
        energy, strength, width, n_cells = point
        record = closed_form(Particle(energy), CellSpec(strength, width), n_cells)
    assert record.path == ("not-evaluated" if point is None else name)
    expected = _t_abs_from_fields(record)
    assert record.t_abs == expected or (math.isnan(record.t_abs) and math.isnan(expected))


@pytest.mark.parametrize("name", list(PATH_POINTS))
def test_records_built_in_c_equal_keyword_built_ones(name):
    # the row path builds _Geometry, ClosedForm and SweepRow, and the direct
    # product its TransferMatrix, by tuple.__new__ (model._record), past each
    # NamedTuple's own __new__; the no-geometry point is one whose (E, V)
    # geometry leaves double range
    energy, strength, width, n_cells = PATH_POINTS[name] or (1e-300, 1e10, 1.0, 2)
    particle = Particle(energy)
    geo = None
    with contextlib.suppress(OverflowGuardError):
        geo = _geometry(particle, strength)
    assert (geo is None) == (name == "no-geometry")
    record = _closed_form(geo, None if geo is None else _cell(geo, width), width, n_cells)
    assert record.path == ("not-evaluated" if geo is None else name)
    records = [record, evaluate_point(particle, CellSpec(strength, width), n_cells)]
    if geo is not None:
        records.append(geo)
    with contextlib.suppress(OverflowGuardError):  # no product past the element guard or double range
        records.append(lattice_matrix_direct(particle, CellSpec(strength, width), n_cells))
    for record in records:
        twin = type(record)(**record._asdict())
        assert record == twin and len(record) == len(record._fields)
        assert repr(record) == repr(twin)


_HUGE_N = "n_cells must be at most 1.7976931348623157e+308, the largest double"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: closed_form(Particle(1.0), CellSpec(20.0, 0.25), -1),
         ValueError, "n_cells must be >= 0"),
        (lambda: lattice_matrix_direct(Particle(1.0), CellSpec(20.0, 0.25), -1),
         ValueError, "n_cells must be >= 0"),
        (lambda: tunneling_time_fd(Particle(1.0), CellSpec(20.0, 0.25), -1),
         ValueError, "n_cells must be >= 0"),
        (lambda: n_infinity_bracket(Particle(1.0), 20.0, 0.0),
         ValueError, "span must be finite and > 0, got 0.0"),
        (lambda: n_infinity_bracket(Particle(1.0), 20.0, math.inf),
         ValueError, "span must be finite and > 0, got inf"),
        (lambda: square_barrier_time(Particle(1.0), 20.0, -1.0),
         ValueError, "span must be finite and >= 0, got -1.0"),
        (lambda: barrier_matrix(Particle(1.0), 1j, math.nan),
         ValueError, "width must be finite and > 0, got nan"),
        (lambda: barrier_matrix(Particle(1.0), 1j, math.inf),
         ValueError, "width must be finite and > 0, got inf"),
        (lambda: barrier_matrix(Particle(1.0), 1j, 0.0),
         ValueError, "width must be finite and > 0, got 0.0"),
        (lambda: barrier_matrix(Particle(1.0), 1j, True),
         ValueError, "width must be finite and > 0, got True"),
        (lambda: barrier_matrix(Particle(1.0), complex("nan"), 1.0),
         ValueError, "potential must be finite, got (nan+0j)"),
        (lambda: barrier_matrix(Particle(1.0), 1e400j, 1.0),
         ValueError, "potential must be finite, got infj"),
        (lambda: barrier_matrix(Particle(1.0), 1j, 1.0, 1.5),
         ValueError, "offset_index must be an integer >= 0, got 1.5"),
        (lambda: barrier_matrix(Particle(1.0), 1j, 1.0, -1),
         ValueError, "offset_index must be an integer >= 0, got -1"),
        (lambda: barrier_matrix(Particle(1.0), 1j, 1.0, True),
         ValueError, "offset_index must be an integer >= 0, got True"),
        # an N past the largest double has no float, L or N^2
        (lambda: closed_form(Particle(1.0), CellSpec(1.0, 1.0), 10**400),
         ValueError, _HUGE_N),
        (lambda: transmission_closed(Particle(1.0), CellSpec(1.0, 1.0), 10**400),
         ValueError, _HUGE_N),
        (lambda: tunneling_time(Particle(1.0), CellSpec(1.0, 1.0), 10**400),
         ValueError, _HUGE_N),
        (lambda: tunneling_time_fd(Particle(1.0), CellSpec(1.0, 1.0), 10**400),
         ValueError, _HUGE_N),
        (lambda: evaluate_point(Particle(1.0), CellSpec(1.0, 1.0), 10**400),
         ValueError, _HUGE_N),
        # (k + dk)^2 leaves double range within 2e-6 of the largest double
        (lambda: tunneling_time_fd(Particle(1.7976931348623e308), CellSpec(1.0, 1e-160), 1),
         OverflowGuardError,
         "FD stencil energy (k + dk)^2 = 1.3407821337750466e+154^2 leaves double range"),
        # (kq)^3 underflows to 0, or leaves double range
        (lambda: square_barrier_time(Particle(5e-324), 1e-300, 5e-324),
         OverflowGuardError,
         "denominator 4*(kq)^3 underflows to 0 at E = 5e-324, V = 1e-300"),
        (lambda: square_barrier_time(Particle(1e-10), 1e300, 5e-324),
         OverflowGuardError, "1.000e+145**3 leaves double range"),
        # V^2 leaves double range where (kq)^3 does not
        (lambda: square_barrier_time(Particle(1.0), 1e200, 1.0),
         OverflowGuardError, "1.000e+200**2 leaves double range"),
        # 4*k*rho^3 underflows to 0, though the geometry's rho^5 does not
        (lambda: n_infinity_bracket(Particle(1e-300), 1.5536935964664274e-122, 1.0),
         OverflowGuardError,
         "denominator 4*k*rho^3 underflows to 0 at E = 1e-300, V = 1.5536935964664274e-122"),
    ],
    ids=["closed-form-n", "direct-product-n", "fd-time-n",
         "bracket-span-0", "bracket-span-inf", "square-barrier-span",
         "barrier-width-nan", "barrier-width-inf", "barrier-width-0", "barrier-width-bool",
         "barrier-potential-nan", "barrier-potential-inf",
         "barrier-offset-fraction", "barrier-offset-negative", "barrier-offset-bool",
         "closed-form-huge-n", "transmission-huge-n", "time-huge-n", "fd-time-huge-n",
         "evaluate-point-huge-n", "fd-stencil-overflow",
         "square-barrier-underflow", "square-barrier-overflow", "square-barrier-height-squared",
         "bracket-denominator-underflow"],
)
def test_public_input_checks(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


# ---------------------------------------------------------------------------
# thick-cell (Hartman) limit
# ---------------------------------------------------------------------------


def test_hartman_coefficient_values():
    p = Particle(1.0)
    d = _geometry(p, 20.0)
    c = hartman_coeffs(p, 20.0)
    assert c.gamma == pytest.approx(0.5 * d.u_minus / d.sin_phi, rel=1e-14)
    assert c.f1 == pytest.approx(0.5 * d.sin_phi**2, rel=1e-14)


def test_hartman_f1_range():
    rng = random.Random(31)
    for _ in range(200):
        c = hartman_coeffs(Particle(rng.uniform(0.1, 50.0)), rng.uniform(0.01, 100.0))
        assert 0.0 < c.f1 <= 0.25


def test_hartman_coefficient_identity_random():
    rng = random.Random(32)
    for _ in range(500):
        c = hartman_coeffs(Particle(rng.uniform(0.1, 50.0)), rng.uniform(0.1, 100.0))
        assert abs(c.g2 - c.gamma * c.f4) <= 1e-12 * max(abs(c.g2), 1.0)


def test_hartman_rejects_free_space():
    with pytest.raises(DegeneratePotentialError):
        hartman_coeffs(Particle(1.0), 0.0)
    with pytest.raises(DegeneratePotentialError):
        hartman_limit_time(Particle(1.0), 0.0)


@pytest.mark.parametrize(
    "strength, thick_error, thin_error",
    [
        (math.nan, ValueError, ValueError),
        (math.inf, ValueError, ValueError),
        (-1.0, DegeneratePotentialError, ValueError),
        (0.0, DegeneratePotentialError, None),
        (True, ValueError, ValueError),  # bool is an int subclass, not a strength
    ],
)
def test_strength_validation_of_ev_entry_points(strength, thick_error, thin_error):
    # the (E, V) entry points reject what CellSpec rejects, each with its own type
    p = Particle(2.0)
    for function, args, error in (
        (hartman_coeffs, (), thick_error),
        (hartman_limit_time, (), thick_error),
        (n_infinity_bracket, (3.0,), thin_error),
    ):
        if error is None:
            assert function(p, strength, *args) == pytest.approx(
                free_propagation_time(p, 3.0), rel=1e-15
            )
            continue
        with pytest.raises(error) as raised:
            function(p, strength, *args)
        assert type(raised.value) is error


@pytest.mark.parametrize("strength", [1e160, 1e300])
def test_hartman_limit_overflow_is_typed(strength):
    # rho^4 (V ~ 1e160) or rho^3 (V = 1e300) leaves double range
    with pytest.raises(OverflowGuardError):
        hartman_limit_time(Particle(1.0), strength)
    if strength > 1e200:
        with pytest.raises(OverflowGuardError):
            hartman_coeffs(Particle(1.0), strength)


def test_hartman_limit_at_tiny_strength_is_typed():
    # f1 = sin^2(phi)/2 underflows to 0 below V/k^2 ~ 1e-161, and sin(phi)
    # itself at V = 5e-324; the limit time divides by f1, gamma by sin(phi)
    assert hartman_coeffs(Particle(1.0), 1e-300).f1 == 0.0
    with pytest.raises(OverflowGuardError, match="denominator underflows to 0"):
        hartman_limit_time(Particle(1.0), 1e-300)
    with pytest.raises(OverflowGuardError, match=r"sin\(phi\) underflows to 0"):
        hartman_coeffs(Particle(1.0), 5e-324)
    with pytest.raises(OverflowGuardError, match=r"sin\(phi\) underflows to 0"):
        hartman_limit_time(Particle(1.0), 5e-324)


def test_hartman_limit_reached_by_thick_cells():
    p = Particle(1.0)
    tau_inf = hartman_limit_time(p, 20.0)
    tau_b6 = tunneling_time(p, CellSpec(20.0, 6.0), 1)
    assert abs(tau_b6 - tau_inf) / tau_inf < 1e-3
    for n in (1, 2, 3, 4):
        assert tunneling_time(p, CellSpec(20.0, 4.0), n) == pytest.approx(tau_inf, rel=0.01)


def test_hartman_limit_extreme_widths_stay_exact():
    # the bounded-ratio assembly keeps the analytic time on the asymptote
    # all the way to the overflow guard
    p = Particle(1.0)
    tau_inf = hartman_limit_time(p, 20.0)
    for width in (50.0, 97.0, 113.0):
        for n in (1, 3, 50):
            tau = tunneling_time(p, CellSpec(20.0, width), n)
            assert tau == pytest.approx(tau_inf, rel=1e-10)


# ---------------------------------------------------------------------------
# free propagation and the thin-cell limit
# ---------------------------------------------------------------------------


def test_free_propagation_trivials():
    assert free_propagation_time(Particle(1.0), 10.0) == 5.0
    assert free_propagation_time(Particle(4.0), 1.0) == 0.25
    assert free_propagation_time(Particle(1.0), 0.0) == 0.0
    with pytest.raises(ValueError):
        free_propagation_time(Particle(1.0), -1.0)


def test_thin_cell_bracket_identities():
    assert n_infinity_bracket(Particle(1.0), 20.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert n_infinity_bracket(Particle(4.0), 7.0, 3.0) == pytest.approx(0.75, rel=1e-12)


@pytest.mark.parametrize("energy, strength", [(1.0, 1e300), (1e160, 1.0), (1.0, 1e200)])
def test_thin_cell_bracket_overflow_is_typed(energy, strength):
    # rho^3 (V = 1e300), k^4 (E = 1e160) or V^2 inside the bracket
    # (V = 1e200) leaves double range
    with pytest.raises(OverflowGuardError):
        n_infinity_bracket(Particle(energy), strength, 1.0)


def test_thin_cell_bracket_random():
    rng = random.Random(3333)
    for _ in range(300):
        p = Particle(rng.uniform(0.1, 50.0))
        strength = rng.uniform(0.0, 100.0)
        span = rng.uniform(0.1, 10.0)
        value = n_infinity_bracket(p, strength, span)
        assert value == pytest.approx(free_propagation_time(p, span), rel=1e-12)


# ---------------------------------------------------------------------------
# real square-barrier baseline
# ---------------------------------------------------------------------------


def test_square_barrier_saturates():
    p = Particle(1.0)
    plateau = 1.0 / math.sqrt(19.0)
    assert square_barrier_time(p, 20.0, 10.0) == pytest.approx(plateau, abs=1e-6)
    assert square_barrier_time(p, 20.0, 400.0) == pytest.approx(plateau, rel=1e-12)
    # past q*L = _LN_MAX the time takes tanh = 1 and sech^2 = 0; just below
    # that cut the direct forms already round to exactly those values
    below, above = ((_LN_MAX + dx) / math.sqrt(19.0) for dx in (-0.1, 0.1))
    assert math.sqrt(19.0) * below < _LN_MAX < math.sqrt(19.0) * above
    assert math.tanh(_LN_MAX - 0.1) == 1.0 and (1.0 / math.cosh(_LN_MAX - 0.1)) ** 2 == 0.0
    assert square_barrier_time(p, 20.0, below) == square_barrier_time(p, 20.0, above)


def test_square_barrier_vanishes_linearly_at_zero_width():
    p = Particle(1.0)
    tau_small = square_barrier_time(p, 20.0, 1e-6)
    tau_half = square_barrier_time(p, 20.0, 5e-7)
    assert tau_small == pytest.approx(2.0 * tau_half, rel=1e-6)
    assert square_barrier_time(p, 20.0, 0.0) == 0.0


def test_square_barrier_matches_finite_difference():
    energy, height, span = 1.0, 5.0, 2.0

    def phase_fn(e):
        k = math.sqrt(e)
        q = math.sqrt(height - e)
        return math.atan((e - (height - e)) / (2.0 * k * q) * math.tanh(q * span))

    h = 1e-7
    fd = (phase_fn(energy + h) - phase_fn(energy - h)) / (2.0 * h)
    assert square_barrier_time(Particle(energy), height, span) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("span", [1e-3, 0.1, 1.0, 10.0])
def test_square_barrier_matches_transfer_matrix_phase(span):
    # Independent of the arctan formula the baseline is built from: the phase
    # comes from the transfer matrix of a real barrier, tau = (dtheta/dk + L)/(2k).
    energy, height = 1.0, 20.0
    k = math.sqrt(energy)
    h = 1e-5

    def t_of(kk):
        return transmission_from_matrix(barrier_matrix(Particle(kk * kk), height, span))

    # Phase of the ratio is the central difference of the unwrapped phase.
    dtheta_dk = cmath.phase(t_of(k + h) / t_of(k - h)) / (2.0 * h)
    oracle = (dtheta_dk + span) / (2.0 * k)
    assert square_barrier_time(Particle(energy), height, span) == pytest.approx(
        oracle, rel=1e-8
    )


def test_square_barrier_rejects_above_barrier():
    with pytest.raises(ValueError):
        square_barrier_time(Particle(2.0), 2.0, 1.0)
    with pytest.raises(ValueError):
        square_barrier_time(Particle(2.0), 1.0, 1.0)
