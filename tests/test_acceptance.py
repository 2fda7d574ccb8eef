"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line; without
``-s`` the lines surface for failing criteria only.
"""

import math
import random
import time

from conftest import cell_part
from pttunnel import (
    CellSpec,
    GridSpec,
    Particle,
    SweepConfig,
    free_propagation_time,
    hartman_coeffs,
    hartman_limit_time,
    n_infinity_bracket,
    run_sweep_b,
    square_barrier_time,
    transmission_closed,
    tunneling_time,
)
from pttunnel.chebyshev import cheb_pair
from pttunnel.model import _geometry
from pttunnel.sweep import SWEEP_B_COLUMNS, oracle_triangle_residuals, rows_to_csv


def _report(name: str, passed: bool, detail: str) -> bool:
    marker = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name}: {marker} ({detail})")
    return passed


def test_criterion_1_oracle_triangle():
    started = time.perf_counter()
    rng = random.Random(424242)
    worst_t, worst_tau, used = oracle_triangle_residuals(rng, 500)
    elapsed = time.perf_counter() - started
    ok = worst_t < 1e-9 and worst_tau < 1e-10 and used >= 500 and elapsed < 10.0
    assert _report(
        "criterion 1 (oracle triangle)",
        ok,
        f"{used} points, |t| residual {worst_t:.2e} < 1e-9, "
        f"tau residual {worst_tau:.2e} < 1e-10, {elapsed:.2f}s < 10s",
    )


def test_criterion_2_thick_cell_saturation():
    started = time.perf_counter()
    p = Particle(1.0)
    tau_inf = hartman_limit_time(p, 20.0)
    worst_b4 = 0.0
    worst_b5 = 0.0
    taus_b5 = []
    for n in (1, 2, 3, 4):
        tau_b4 = tunneling_time(p, CellSpec(20.0, 4.0), n)
        tau_b5 = tunneling_time(p, CellSpec(20.0, 5.0), n)
        worst_b4 = max(worst_b4, abs(tau_b4 - tau_inf) / tau_inf)
        worst_b5 = max(worst_b5, abs(tau_b5 - tau_inf) / tau_inf)
        taus_b5.append(tau_b5)
    spread_b5 = (max(taus_b5) - min(taus_b5)) / tau_inf
    elapsed = time.perf_counter() - started
    ok = worst_b4 < 1e-2 and worst_b5 < 1e-3 and spread_b5 < 1e-3 and elapsed < 5.0
    assert _report(
        "criterion 2 (thick-cell saturation)",
        ok,
        f"gap(b=4) {worst_b4:.2e} < 1e-2, gap(b=5) {worst_b5:.2e} < 1e-3, "
        f"N-spread(b=5) {spread_b5:.2e} < 1e-3, {elapsed:.2f}s < 5s",
    )


def test_criterion_3_free_propagation_limit():
    started = time.perf_counter()
    span = 1.0
    worst_gap = 0.0
    for energy in (1.0, 4.0):
        p = Particle(energy)
        reference = free_propagation_time(p, span)
        for strength in (5.0, 10.0, 20.0):
            tau = tunneling_time(p, CellSpec(strength, span / (2.0 * 4096)), 4096)
            worst_gap = max(worst_gap, abs(tau - reference) / reference)
    worst_control = 0.0
    p = Particle(1.0)
    reference = free_propagation_time(p, span)
    for n in GridSpec(1, 4096, 13, log=True).integer_values():
        tau = tunneling_time(p, CellSpec(0.0, span / (2.0 * n)), n)
        worst_control = max(worst_control, abs(tau - reference) / reference)
    elapsed = time.perf_counter() - started
    ok = worst_gap < 1e-3 and worst_control < 1e-12 and elapsed < 30.0
    assert _report(
        "criterion 3 (free-propagation limit)",
        ok,
        f"gap at N=4096 {worst_gap:.2e} < 1e-3, V=0 control {worst_control:.2e} "
        f"< 1e-12, {elapsed:.2f}s < 30s",
    )


def test_criterion_4_algebraic_identities():
    rng = random.Random(1618)
    worst_coeff = 0.0
    worst_bracket = 0.0
    for _ in range(1000):
        p = Particle(rng.uniform(0.1, 50.0))
        strength = rng.uniform(0.1, 100.0)
        c = hartman_coeffs(p, strength)
        worst_coeff = max(
            worst_coeff, abs(c.g2 - c.gamma * c.f4) / max(abs(c.g2), 1.0)
        )
    for _ in range(1000):
        p = Particle(rng.uniform(0.1, 50.0))
        strength = rng.uniform(0.0, 100.0)
        span = rng.uniform(0.1, 10.0)
        reference = free_propagation_time(p, span)
        worst_bracket = max(
            worst_bracket,
            abs(n_infinity_bracket(p, strength, span) - reference) / reference,
        )
    ok = worst_coeff < 1e-12 and worst_bracket < 1e-12
    assert _report(
        "criterion 4 (algebraic identities)",
        ok,
        f"|g2 - gamma*f4| scaled {worst_coeff:.2e} < 1e-12, "
        f"bracket-vs-L/2k {worst_bracket:.2e} < 1e-12, 1000 draws each",
    )


def test_criterion_5_asymptotic_expansions():
    worst = 0.0
    for energy, strength in ((1.0, 20.0), (4.0, 10.0), (0.5, 7.0)):
        p = Particle(energy)
        geo = _geometry(p, strength)
        width = 15.0 / (geo.rho * geo.sin_phi)
        xi, _, _, chi, _, _, beta = cell_part(geo, width)
        growth = math.exp(2.0 * beta)
        coeffs = hartman_coeffs(p, strength)
        worst = max(worst, abs(xi / growth / coeffs.f1 - 1.0))
        worst = max(worst, abs(chi / xi / coeffs.gamma - 1.0))
        for n in (1, 2, 3, 4):
            t_n, u_n1 = cheb_pair(n, xi)
            worst = max(worst, abs(u_n1 / t_n * xi - 1.0))
    ok = worst < 1e-4
    assert _report(
        "criterion 5 (asymptotic expansions)",
        ok,
        f"max ratio deviation at growth exponent 15: {worst:.2e} < 1e-4",
    )


def test_criterion_6_square_barrier_baseline():
    energy, height = 1.0, 20.0
    p = Particle(energy)
    plateau = 1.0 / math.sqrt(height - energy)
    gap_thick = abs(square_barrier_time(p, height, 10.0) - plateau)
    # Linear vanishing at zero width, with the exact slope
    # d(tau)/dL|_0 = (V^2 + k^2 (V - 2E)) / (4 k^3 q^2), q^2 = V - E,
    # which is 418/76 = 5.5 at E=1, V=20.  The O(L^2) remainder at
    # L = 1e-6 is ~9e-11 relative, well inside the 1e-9 tolerance.
    k = math.sqrt(energy)
    slope = (height**2 + k**2 * (height - 2.0 * energy)) / (
        4.0 * k**3 * (height - energy)
    )
    width_thin = 1e-6
    slope_gap = abs(square_barrier_time(p, height, width_thin) / width_thin - slope)
    tau_zero = square_barrier_time(p, height, 0.0)
    ok = gap_thick < 1e-6 and slope_gap <= 1e-9 * slope and tau_zero == 0.0
    assert _report(
        "criterion 6 (square-barrier baseline)",
        ok,
        f"|tau(10) - 1/sqrt(19)| = {gap_thick:.2e} < 1e-6, "
        f"|tau(1e-6)/1e-6 - {slope:.4g}| / {slope:.4g} = {slope_gap / slope:.2e} "
        f"<= 1e-9, tau(0) = {tau_zero:g}",
    )


def test_criterion_7_free_space_exactness():
    p = Particle(1.0)
    cell = CellSpec(0.0, 1.0)
    worst_t = 0.0
    worst_tau = 0.0
    for n in range(1, 101):
        worst_t = max(worst_t, abs(transmission_closed(p, cell, n) - 1.0))
        expected = free_propagation_time(p, 2.0 * n * cell.width)
        worst_tau = max(
            worst_tau, abs(tunneling_time(p, cell, n) - expected) / expected
        )
    ok = worst_t < 1e-12 and worst_tau < 1e-12
    assert _report(
        "criterion 7 (free-space exactness)",
        ok,
        f"|t - 1| {worst_t:.2e} < 1e-12 abs, tau gap {worst_tau:.2e} < 1e-12 rel, "
        f"N = 1..100",
    )


def test_criterion_8_determinism(tmp_path):
    config = SweepConfig(
        energy=1.0,
        potentials=(20.0,),
        cells=(1, 2, 3, 4),
        grid=GridSpec(0.05, 5.0, 100),
    )
    first = rows_to_csv(run_sweep_b(config), SWEEP_B_COLUMNS)
    second = rows_to_csv(run_sweep_b(config), SWEEP_B_COLUMNS)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    path_a.write_text(first, newline="")
    path_b.write_text(second, newline="")
    ok = path_a.read_bytes() == path_b.read_bytes()
    assert _report(
        "criterion 8 (determinism)",
        ok,
        f"two identical sweeps, {len(first.splitlines()) - 1} rows, byte-identical",
    )
