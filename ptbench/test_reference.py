"""Tests of the independent reference itself (run: python3 -m pytest ptbench).

None of these touch pttunnel: the reference is checked against free space,
the textbook real square barrier, and itself at doubled precision.
"""

from __future__ import annotations

import os
import sys

import pytest
from mpmath import mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import (  # noqa: E402
    lattice_phase_third_derivative,
    lattice_reference,
    slabs_reference,
)


@pytest.mark.parametrize(
    "energy, width, n_cells",
    [(1.0, 0.37, 5), (0.3, 2.5e-6, 200_000), (7.5, 40.0, 25), (2.0, 1e-3, 1)],
)
def test_free_space_is_exact(energy, width, n_cells):
    with mp.workdps(50):
        ref = lattice_reference(energy, 0.0, width, n_cells)
        k = mp.sqrt(mp.mpf(energy))
        length = 2 * n_cells * mp.mpf(width)
        assert abs(ref.t - 1) < mp.mpf(10) ** -45
        assert abs(ref.tau - length / (2 * k)) < mp.mpf(10) ** -40 * ref.tau


def _hartman_square_barrier(energy, height, length):
    """Textbook square barrier, V > E:
    t = exp(-ikL) / (cosh(qL) + i (q^2 - k^2)/(2kq) sinh(qL)),
    tau = (1/2k) d/dk arctan((k^2 - q^2)/(2kq) tanh(qL)),  q = sqrt(V - k^2).
    """
    e, v, w = mp.mpf(energy), mp.mpf(height), mp.mpf(length)
    k = mp.sqrt(e)
    q = mp.sqrt(v - e)
    t = mp.exp(-1j * k * w) / (
        mp.cosh(q * w) + 1j * (q * q - k * k) / (2 * k * q) * mp.sinh(q * w)
    )

    def phase(kk):
        qq = mp.sqrt(v - kk * kk)
        return mp.atan((kk * kk - qq * qq) / (2 * kk * qq) * mp.tanh(qq * w))

    return t, mp.diff(phase, k) / (2 * k)


@pytest.mark.parametrize("length", [1e-6, 1e-3, 0.1, 1.0, 10.0])
def test_real_square_barrier_matches_hartman_formula(length):
    with mp.workdps(50):
        ref = slabs_reference(1.0, [(20.0, length)])
        t, tau = _hartman_square_barrier(1.0, 20.0, length)
        assert abs(ref.t - t) < mp.mpf(10) ** -40 * abs(t)
        assert abs(ref.tau - tau) < mp.mpf(10) ** -35 * abs(tau)
    if length == 10.0:  # Hartman saturation at 1/(qk)
        assert abs(float(ref.tau) - 1.0 / 19.0**0.5) < 1e-6


@pytest.mark.parametrize(
    "energy, strength, width, n_cells",
    [
        (1.0, 20.0, 0.25, 2),  # regular, out of band
        (2.0, 1.0, 2.0351, 3),  # just past a band edge
        (1.0, 20.0, 5.0, 25),  # log-domain |t| < 1e-300
        (1.0, 5.0, 2.5e-6, 200_000),  # thin cells at large N
        (0.3, 90.0, 0.01, 17),  # in band
    ],
)
def test_doubling_precision_changes_nothing(energy, strength, width, n_cells):
    lo = lattice_reference(energy, strength, width, n_cells, dps=50)
    hi = lattice_reference(energy, strength, width, n_cells, dps=100)
    with mp.workdps(100):
        assert abs(lo.t - hi.t) <= mp.mpf(10) ** -40 * abs(hi.t)
        assert abs(lo.tau - hi.tau) <= mp.mpf(10) ** -35 * abs(hi.tau)


def test_third_derivative_predicts_central_difference_error():
    # A sharp resonance at N = 111, where the truncation term dominates.
    energy, strength, width, n_cells = 45.667742177795965, 5.160145779125491, 2.7966499917121364, 111
    third = lattice_phase_third_derivative(energy, strength, width, n_cells)
    with mp.workdps(50):
        k = mp.sqrt(mp.mpf(energy))
        h = k * mp.mpf("1e-6")  # the step tunneling_time_fd uses
        hi = lattice_reference((k + h) ** 2, strength, width, n_cells)
        lo = lattice_reference((k - h) ** 2, strength, width, n_cells)
        centre = lattice_reference(energy, strength, width, n_cells)
        slope = mp.im(mp.log(hi.t / lo.t)) / (2 * h)
        exact = 2 * k * centre.tau - centre.length  # d theta/dk from tau = (theta' + L)/2k
        assert abs(slope - exact - h * h / 6 * third) < 1e-3 * abs(h * h / 6 * third)
