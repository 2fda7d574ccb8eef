"""The closed forms against the independent mpmath lattice product of
``ptbench/reference.py`` (the ``lattice_reference`` fixture), at points the
double-precision oracles cannot judge to 1e-13."""

import math
import sys

import pytest

from conftest import bisect_width_for_xi
from pttunnel import (
    CellSpec,
    OverflowGuardError,
    Particle,
    cheb_T,
    evaluate_point,
    free_propagation_time,
    xi_chi,
)
from pttunnel.timing import closed_form

# (E, V, N, j, lo, hi): the width in (lo, hi) puts xi on the j-th root
# cos((2j + 1) pi / 2N) of T_N, where the arctan parameterization of the
# phase jumps by pi.  test_point_row_analytic_at_root_of_t checks one more,
# E = 4, V = 2, N = 3.
T_N_ROOTS = [
    (2.5, 0.0, 4, 1, 0.3689, 0.3726),
    (1.0, 5.0, 40, 7, 0.3373, 0.3407),
    (0.7, 1.5, 101, 30, 0.5947, 0.6007),
    (1.0, 0.5, 250, 100, 0.6313, 0.6376),
    (9.0, 50.0, 12, 0, 0.02186, 0.02208),
    (30.0, 90.0, 9, 0, 0.0159, 0.01606),
    (16.0, 3.0, 1, 0, 0.1951, 0.1971),
    (0.05, 0.2, 6, 0, 0.5888, 0.5947),
    (100.0, 400.0, 20, 0, 0.003909, 0.003948),
]


@pytest.mark.parametrize("energy, strength, n, j, lo, hi", T_N_ROOTS)
def test_time_at_root_of_t_matches_reference(lattice_reference, energy, strength, n, j, lo, hi):
    p = Particle(energy)
    target = math.cos((2 * j + 1) * math.pi / (2 * n))
    cell = CellSpec(strength, bisect_width_for_xi(p, strength, target, lo, hi))
    assert abs(cheb_T(n, xi_chi(p, cell)[0])) < 1e-12
    row = evaluate_point(p, cell, n)
    assert (row.tau_method, row.flags) == ("analytic", ())
    reference = float(lattice_reference(energy, strength, cell.width, n, dps=60).tau)
    assert abs(row.tau - reference) <= 1e-13 * abs(reference)


@pytest.mark.parametrize(
    "energy, strength, width, n",
    [
        (0.047506442663911796, 228.4367700110401, 0.011940818586053236, 39520),
        (1.0346096883105071, 1589.252367129421, 0.0036110814017305203, 103782),
    ],
)
def test_log_domain_phase_matches_reference(lattice_reference, energy, strength, width, n):
    # |G| > 1e308: |t| underflows and theta comes from the bounded ratio q*chi
    record = closed_form(Particle(energy), CellSpec(strength, width), n)
    assert record.t is None and isinstance(record.error, OverflowGuardError)
    reference = lattice_reference(energy, strength, width, n, dps=80).theta
    assert abs(math.remainder(record.theta - reference, math.tau)) < 5e-14


# (V, N) at E = 1, L = 1, b = L/2N: thin cells, where xi sits within
# (kL/N)^2 of the band edge and tau - L/2k is a small offset; the last four
# reach the band-edge branch or lie just past its switch.
THIN_CELLS = [(5.0, 4096), (20.0, 4096), (5.0, 26929), (5.0, 200000), (0.5, 1000000), (2.0, 30000)]


@pytest.mark.parametrize("strength, n", THIN_CELLS)
def test_thin_cell_time_matches_reference(lattice_reference, strength, n):
    p, span = Particle(1.0), 1.0
    width = span / (2 * n)
    tau = closed_form(p, CellSpec(strength, width), n).tau
    reference = lattice_reference(1.0, strength, width, n, dps=60).tau
    assert abs(tau - reference) <= 1e-13 * abs(reference)
    # the offset tau - L/2k to two digits, down to 64 ulp of L/2k
    free = free_propagation_time(p, span)
    offset = reference - free
    assert abs(tau - reference) <= max(1e-2 * abs(offset), 64 * sys.float_info.epsilon * free)


def test_time_where_xi_rounds_to_one_outside_the_band(lattice_reference):
    # xi - 1 = 2.8e-17 > 0 but xi itself rounds to 1.0: the side of the band
    # must come from xi - 1, or sin(psi) = 0 divides the in-band q
    energy, strength, width, n = 1.6033331678902918, 42.44796997839302, 0.10325041054420955, 100000
    record = closed_form(Particle(energy), CellSpec(strength, width), n)
    assert record.xi == 1.0 and not record.band_edge
    reference = lattice_reference(energy, strength, width, n, dps=60).tau
    assert abs(record.tau - reference) <= 1e-6 * abs(reference)
