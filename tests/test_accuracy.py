"""The closed forms against the independent mpmath lattice product of
``ptbench/reference.py`` (the ``lattice_reference`` fixture), at points the
double-precision oracles cannot judge to 1e-13."""

import math

import pytest

from conftest import bisect_width_for_xi
from pttunnel import CellSpec, OverflowGuardError, Particle, cheb_T, evaluate_point, xi_chi
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
