"""Output checks, run outside the timed region.

Two kinds of finding are kept apart:

- a *miss*: one row or point disagrees with the independent mpmath
  reference (:mod:`reference`).  It is a failed operation and counts in
  ``failed``; the run stays correct.
- a *violation*: a property that holds on any correct output (free-space
  values, phase range, exact round trip, byte-identical rewrites, det M = 1,
  PT generalized unitarity, the limits report) is broken.  It makes the run
  incorrect.

Tolerances, each with the measurement behind it:

- tau is compared with the reference relative to max(|tau|, TAU_FLOOR * L/2k).
  tau passes through 0 near resonances, so |tau| alone is no scale there;
  the floor is a small share of the free time L/2k because thick rows
  saturate at a Hartman time far below L/2k, where L/2k itself would admit
  relative errors of 1e-4;
- TAU_RTOL for analytic times; measured misses on regular rows are 1e-12
  or below;
- on sweep-n, also the offset tau - L/2k, which the program reports as
  rel_gap: to OFFSET_RTOL of the reference's offset, or OFFSET_FLOOR of
  L/2k where the offset is too small for a double tau to carry it.  On
  thin cells the offset is down to 1e-9 of tau at N = 500, so TAU_RTOL
  alone would pass an offset of the wrong sign.  OFFSET_RTOL asks for its
  two leading digits; OFFSET_FLOOR is 64 ulp of L/2k;
- FD_TAU_RTOL for the finite-difference oracle time, once the central
  difference's own truncation error h^2 theta'''/(12k), at the package's
  documented step h = 1e-6 k, is added to the reference.  That error
  reaches 3.7e-5 of tau near sharp resonances at N ~ 100; what is left
  after it is rounding noise, measured at or below 2e-9;
- the phase theta to PHASE_ATOL * max(1, kL), since the program subtracts
  kL before wrapping.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass

from reference import lattice_phase_third_derivative, lattice_reference

TAU_RTOL = 1e-8
TAU_FLOOR = 1e-3
OFFSET_RTOL = 1e-2
FD_TAU_RTOL = 1e-6
FD_REL_STEP = 1e-6  # tunneling_time_fd's default rel_step
T_RTOL = 1e-9
PHASE_ATOL = 1e-10
FREE_RTOL = 1e-12
PT_UNITARITY_TOL = 1e-10
DET_ULPS_PER_BARRIER = 32
EPS = sys.float_info.epsilon
OFFSET_FLOOR = 64 * EPS
LN_TINY = -700.0  # |t| written as 0.0 must be below exp(LN_TINY)

METHODS = ("analytic", "hartman-limit", "fd-fallback")
FLAGS = ("SpectralSingularity", "XiAtUnity", "Overflow")


class Findings:
    def __init__(self) -> None:
        self.violations: list[str] = []
        self.misses: list[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.violations.append(what)


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def free_time(energy: float, span: float) -> float:
    return span / (2.0 * math.sqrt(energy))


def _tau_miss(tau: float, ref_tau: float, free: float, rtol: float) -> float:
    return abs(tau - ref_tau) / max(abs(ref_tau), TAU_FLOOR * free) / rtol


def _phase_miss(theta: float, ref_theta: float, kl: float) -> float:
    return abs(math.remainder(theta - ref_theta, math.tau)) / (PHASE_ATOL * max(1.0, kl))


@dataclass(frozen=True)
class ReferencePoint:
    """Inputs of one lattice point and the reference values there, as doubles."""

    energy: float
    strength: float
    width: float
    n_cells: int
    tau: float
    t_abs: float
    log_t_abs: float
    theta: float

    @property
    def span(self) -> float:
        return 2.0 * self.n_cells * self.width


def reference_at(energy: float, strength: float, width: float, n_cells: int) -> ReferencePoint:
    ref = lattice_reference(energy, strength, width, n_cells)
    return ReferencePoint(energy, strength, width, n_cells,
                          float(ref.tau), ref.t_abs, ref.log_t_abs, ref.theta)


def reference_misses(ref: ReferencePoint, tau: float, t_abs: float, theta: float, *, tau_rtol: float = TAU_RTOL) -> list[str]:
    """Disagreements of one (tau, |t|, theta) triple with the reference."""
    where = f"E={ref.energy!r} V={ref.strength!r} b={ref.width!r} N={ref.n_cells}"
    misses = []
    if _tau_miss(tau, ref.tau, free_time(ref.energy, ref.span), tau_rtol) > 1.0:
        misses.append(f"{where}: tau {tau!r} vs reference {ref.tau!r}")
    if t_abs == 0.0:
        if ref.log_t_abs > LN_TINY:
            misses.append(f"{where}: |t| written 0 but reference ln|t| = {ref.log_t_abs:.1f}")
    elif abs(t_abs - ref.t_abs) > T_RTOL * ref.t_abs:
        misses.append(f"{where}: |t| {t_abs!r} vs reference {ref.t_abs!r}")
    kl = math.sqrt(ref.energy) * ref.span
    if _phase_miss(theta, ref.theta, kl) > 1.0:
        misses.append(f"{where}: theta {theta!r} vs reference {ref.theta!r}")
    return misses


def offset_misses(ref: ReferencePoint, tau: float) -> list[str]:
    """Disagreement of tau - L/2k with the reference's offset."""
    free = free_time(ref.energy, ref.span)
    offset = ref.tau - free
    if abs(tau - ref.tau) <= max(OFFSET_RTOL * abs(offset), OFFSET_FLOOR * free):
        return []
    where = f"E={ref.energy!r} V={ref.strength!r} b={ref.width!r} N={ref.n_cells}"
    return [f"{where}: tau - L/2k {tau - free:.6e} vs reference {offset:.6e}"]


def fd_truncation(ref: ReferencePoint) -> float:
    """Central-difference error h^2 theta'''/6 of d theta/dk, as a time (over 2k)."""
    k = math.sqrt(ref.energy)
    h = FD_REL_STEP * k
    third = lattice_phase_third_derivative(ref.energy, ref.strength, ref.width, ref.n_cells)
    return h * h / 6.0 * third / (2.0 * k)


def saturation_time(energy: float, strength: float) -> float:
    """Reference tau at one cell with growth exponent beta = 20.

    Beyond beta ~ 15 the time no longer depends on b or N to double
    precision, so this is the thick-cell limit the hartman-limit rows and
    the tau_inf column must reproduce.
    """
    growth = abs((complex(energy, strength) ** 0.5).imag)
    return float(lattice_reference(energy, strength, 20.0 / growth, 1).tau)


# ---------------------------------------------------------------------------
# Tabular outputs
# ---------------------------------------------------------------------------


def _row_value(row, column: str):
    return {
        "E": row.energy, "V": row.strength, "N": row.n_cells, "b": row.width,
        "L": row.span, "tau": row.tau, "tau_method": row.tau_method,
        "tau_inf": row.tau_inf, "tau_free": row.tau_free, "rel_gap": row.rel_gap,
        "t_abs": row.t_abs, "theta": row.theta, "flags": ";".join(row.flags),
    }[column]


def check_round_trip(rows, text: str, columns, fmt: str, findings: Findings, what: str) -> None:
    """Every written number parses back to the row's float exactly."""
    if fmt == "json":
        payload = json.loads(text)
        findings.require(payload["schema"]["columns"] == list(columns), f"{what}: JSON columns")
        written = [[record[c] for c in columns] for record in payload["rows"]]
    else:
        table = list(csv.reader(io.StringIO(text)))
        findings.require(table[0] == list(columns), f"{what}: CSV header")
        written = table[1:]
    findings.require(len(written) == len(rows), f"{what}: {len(written)} rows written, {len(rows)} computed")
    for row, record in zip(rows, written):
        for column, cell in zip(columns, record):
            value = _row_value(row, column)
            if isinstance(value, str):
                ok = cell == value
            elif isinstance(value, int):
                ok = int(cell) == value
            else:
                ok = same_float(float(cell), value)
            if not ok:
                findings.require(False, f"{what}: {column} written {cell!r}, row has {value!r}")
                return


def check_row_properties(row, findings: Findings) -> None:
    where = f"row E={row.energy!r} V={row.strength!r} b={row.width!r} N={row.n_cells}"
    findings.require(row.tau_method in METHODS, f"{where}: method {row.tau_method!r}")
    findings.require(all(f in FLAGS for f in row.flags), f"{where}: flags {row.flags!r}")
    findings.require(
        abs(row.span - 2.0 * row.n_cells * row.width) <= 4 * EPS * row.span,
        f"{where}: L = {row.span!r} is not 2Nb",
    )
    if not math.isnan(row.theta):
        findings.require(-math.pi < row.theta <= math.pi, f"{where}: theta {row.theta!r} outside (-pi, pi]")
    findings.require(
        math.isfinite(row.tau) or "SpectralSingularity" in row.flags,
        f"{where}: tau {row.tau!r} without a flag that explains it",
    )
    if row.strength == 0.0:
        tf = free_time(row.energy, row.span)
        findings.require(abs(row.tau - tf) <= FREE_RTOL * tf, f"{where}: free tau {row.tau!r} vs L/2k {tf!r}")
        findings.require(abs(row.t_abs - 1.0) <= FREE_RTOL, f"{where}: free |t| {row.t_abs!r}")


def check_sweep_n_row(row, findings: Findings) -> None:
    where = f"row E={row.energy!r} V={row.strength!r} N={row.n_cells}"
    tf = free_time(row.energy, row.span)
    findings.require(abs(row.tau_free - tf) <= 4 * EPS * tf, f"{where}: tau_free {row.tau_free!r} vs L/2k {tf!r}")
    gap = abs(row.tau - row.tau_free) / row.tau_free
    findings.require(
        abs(row.rel_gap - gap) <= 4 * EPS * (1.0 + abs(row.tau) / row.tau_free),
        f"{where}: rel_gap {row.rel_gap!r} vs recomputed {gap!r}",
    )


# ---------------------------------------------------------------------------
# Direct-product oracle points
# ---------------------------------------------------------------------------


def check_matrix_identities(matrix, lat, findings: Findings, where: str) -> None:
    """det M = 1 and |T - 1| = sqrt(R_L R_R) for the PT-symmetric lattice.

    det M is formed from rounded elements after 2N barrier products, each
    carrying impedance factors mu +- 1/mu with |mu|^2 = sqrt(E^2 + V^2)/E,
    so its rounding error scales with 2N, that mismatch and max|m|^2.
    Over 9,600 seeded lattices the worst error was 5.9 of those units.
    """
    elements = (matrix.m11, matrix.m12, matrix.m21, matrix.m22)
    peak = max(abs(m) for m in elements)
    det = matrix.m11 * matrix.m22 - matrix.m12 * matrix.m21
    mismatch = math.hypot(lat.energy, lat.strength) / lat.energy
    det_tol = DET_ULPS_PER_BARRIER * 2 * lat.n_cells * EPS * mismatch * max(1.0, peak * peak)
    findings.require(abs(det - 1.0) <= det_tol, f"{where}: |det M - 1| = {abs(det - 1.0):.3e} > {det_tol:.3e}")
    # Left incidence: t = 1/m22, r_L = -m21/m22; right incidence: r_R = m12/m22.
    trans = 1.0 / abs(matrix.m22) ** 2
    refl = abs(matrix.m12 * matrix.m21) / abs(matrix.m22) ** 2
    residual = abs(abs(trans - 1.0) - refl) / (1.0 + trans + refl)
    findings.require(residual <= PT_UNITARITY_TOL, f"{where}: PT unitarity residual {residual:.3e}")
