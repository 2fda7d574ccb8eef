"""Parameter sweeps, the limit-validation report, and tabular output.

Each grid point is evaluated independently and becomes one row; numerical
conditions (spectral singularity, band edge, overflow handoff) never abort a
sweep, they only annotate the row's ``flags``.  Output is deterministic:
identical configuration produces byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, TextIO

from .chebyshev import cheb_T, cheb_U
from .errors import OverflowGuardError, SpectralSingularityError
from .model import CellSpec, Particle, _Geometry, _geometry, _scaled, _Validated
from .timing import (
    BETA_MAX,
    ClosedForm,
    HartmanCoeffs,
    _cell_scalars,
    _closed_form,
    _limit_time,
    _wrap_phase,
    closed_form,
    free_propagation_time,
    hartman_coeffs,
    n_infinity_bracket,
    tunneling_time_fd,
)
from .transfer import lattice_matrix_direct, transmission_from_matrix

__all__ = [
    "SCHEMA_VERSION",
    "SWEEP_B_COLUMNS",
    "SWEEP_N_COLUMNS",
    "POINT_COLUMNS",
    "GridSpec",
    "SweepConfig",
    "SweepRow",
    "LimitCheck",
    "LimitsReport",
    "evaluate_point",
    "run_point",
    "run_sweep_b",
    "run_sweep_n",
    "run_limits",
    "rows_to_csv",
    "rows_to_json",
    "write_text",
    "oracle_triangle_residuals",
    "draw_regular_point",
]

SCHEMA_VERSION = "1"

SWEEP_B_COLUMNS = ("E", "V", "N", "b", "L", "tau", "tau_method", "tau_inf", "t_abs", "theta", "flags")
SWEEP_N_COLUMNS = ("E", "V", "N", "b", "L", "tau", "tau_free", "rel_gap", "t_abs", "theta", "flags")
POINT_COLUMNS = ("E", "V", "N", "b", "L", "tau", "tau_method", "t_abs", "theta", "flags")

METHOD_ANALYTIC = "analytic"
METHOD_HARTMAN = "hartman-limit"

FLAG_SINGULARITY = "SpectralSingularity"
FLAG_BAND_EDGE = "XiAtUnity"
FLAG_OVERFLOW = "Overflow"

_NAN = float("nan")
_LIMITS_SEED = 20210614


class _GridSpecFields(NamedTuple):
    start: float
    stop: float
    count: int
    log: bool = False


class GridSpec(_Validated, _GridSpecFields):
    """Inclusive 1-D grid, linear or logarithmic, parsed from start:stop:count[:log]."""

    __slots__ = ()

    def __new__(cls, start: float, stop: float, count: int, log: bool = False) -> GridSpec:
        if count < 1:
            raise ValueError("grid count must be >= 1")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("grid endpoints must be finite")
        if log and (start <= 0.0 or stop <= 0.0):
            raise ValueError("log grid requires positive endpoints")
        return super().__new__(cls, start, stop, count, log)

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"grid must be start:stop:count[:log], got {text!r}")
        log = False
        if len(parts) == 4:
            if parts[3] != "log":
                raise ValueError(f"unknown grid spacing {parts[3]!r} (expected 'log')")
            log = True
        return cls(float(parts[0]), float(parts[1]), int(parts[2]), log)

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.start]
        if self.log:
            ratio = self.stop / self.start
            return [
                self.start * ratio ** (i / (self.count - 1)) for i in range(self.count)
            ]
        step = (self.stop - self.start) / (self.count - 1)
        return [self.start + i * step for i in range(self.count)]

    def integer_values(self) -> list[int]:
        """Grid rounded to unique ascending integers (for repetition counts)."""
        seen: list[int] = []
        for v in sorted(self.values()):
            n = int(round(v))
            if n >= 1 and (not seen or seen[-1] != n):
                seen.append(n)
        return seen


class _SweepConfigFields(NamedTuple):
    mode: str
    energy: float = 1.0
    potentials: tuple[float, ...] = ()
    cells: tuple[int, ...] = ()
    width: float | None = None
    span: float | None = None
    grid: GridSpec | None = None
    output: str | None = None
    format: str = "csv"


class SweepConfig(_Validated, _SweepConfigFields):
    """Resolved inputs of one command invocation (CLI flags over config file)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SweepConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in ("point", "sweep-b", "sweep-n", "limits"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        return self


class SweepRow(NamedTuple):
    """One evaluated parameter point; reference columns are nan when not applicable."""

    energy: float
    strength: float
    n_cells: int
    width: float
    span: float
    tau: float
    tau_method: str
    t_abs: float
    theta: float
    flags: tuple[str, ...]
    tau_inf: float = _NAN
    tau_free: float = _NAN
    rel_gap: float = _NAN


# Column name -> SweepRow field, shared by the CSV and JSON writers.
_COLUMN_FIELDS = {
    "E": "energy", "V": "strength", "N": "n_cells", "b": "width", "L": "span",
    **{c: c for c in ("tau", "tau_method", "tau_inf", "tau_free", "rel_gap", "t_abs", "theta", "flags")},
}


class _Shared(NamedTuple):
    """What every row at one (E, V) shares: the width-free cell geometry, the
    thick-cell coefficients of V > 0 (each None where it leaves double range;
    coeffs also where no row hands off) and the sweep's reference columns."""

    geometry: _Geometry | None
    coeffs: HartmanCoeffs | None = None
    tau_inf: float = _NAN
    tau_free: float = _NAN


# The record of a point whose (E, V) geometry leaves double range.
_NO_GEOMETRY = ClosedForm(_NAN, _NAN, None)


def _or_none(function, *args):
    """function(*args), or None where that leaves double range."""
    with contextlib.suppress(OverflowGuardError):
        return function(*args)
    return None


def evaluate_point(
    particle: Particle, cell: CellSpec, n_cells: int, *, _shared: _Shared | None = None
) -> SweepRow:
    """Evaluate tau, |t| and theta at one point, downgrading failures to flags.

    Selection of the time path:
      - beta > BETA_MAX: thick-barrier limit (method 'hartman-limit', flagged
        Overflow) -- the exact expressions leave double range there;
      - N^2 |xi^2 - 1| < tolerance: analytic endpoint fallback, flagged XiAtUnity;
      - otherwise the plain analytic expression.
    A row at a spectral singularity is flagged SpectralSingularity, with
    |t| = inf; any other row without a finite tau or t is flagged Overflow.
    The sweeps pass ``_shared``, computed once for all their rows at (E, V =
    cell.strength); its reference columns fill tau_inf, tau_free and rel_gap.
    Its geometry is None where (E, V) leaves double range: an Overflow row.
    """
    shared = _shared or _Shared(_geometry(particle, cell.strength))
    geometry = shared.geometry
    record = _closed_form(geometry, cell.width, n_cells) if geometry else _NO_GEOMETRY
    span = 2.0 * n_cells * cell.width
    flags: list[str] = []
    tau, theta = record.tau, record.theta
    if record.handoff:
        flags.append(FLAG_OVERFLOW)
        t_abs = 0.0
        coeffs = shared.coeffs if _shared else _or_none(hartman_coeffs, particle, cell.strength)
        if coeffs is not None:
            theta = _wrap_phase(math.atan(coeffs.gamma) - particle.k * span)
            with contextlib.suppress(OverflowGuardError):
                tau = _limit_time(coeffs, particle.k)
    else:
        if record.band_edge:
            flags.append(FLAG_BAND_EDGE)
        singular = isinstance(record.error, SpectralSingularityError)
        if singular:
            flags.append(FLAG_SINGULARITY)
        elif record.error is not None or not math.isfinite(tau):
            flags.append(FLAG_OVERFLOW)
        if record.t is not None:
            t_abs = abs(record.t)
        elif singular:
            t_abs = math.inf
        else:
            # |t| underflows where the bounded-ratio phase is left; where the
            # phase itself leaves double range, |t| is unknown.
            t_abs = 0.0 if math.isfinite(theta) else _NAN
    return SweepRow(
        energy=particle.energy,
        strength=cell.strength,
        n_cells=n_cells,
        width=cell.width,
        span=span,
        tau=tau,
        tau_method=METHOD_HARTMAN if record.handoff else METHOD_ANALYTIC,
        t_abs=t_abs,
        theta=theta,
        flags=tuple(flags),
        tau_inf=shared.tau_inf,
        tau_free=shared.tau_free,
        rel_gap=abs(tau - shared.tau_free) / shared.tau_free,
    )


def run_point(config: SweepConfig) -> SweepRow:
    """Evaluate the single (E, V, b, N) point described by the config."""
    if config.width is None:
        raise ValueError("point mode requires a cell width")
    if len(config.potentials) != 1:
        raise ValueError("point mode requires exactly one potential strength")
    if len(config.cells) != 1:
        raise ValueError("point mode requires exactly one repetition count")
    particle = Particle(config.energy)
    cell = CellSpec(config.potentials[0], config.width)
    return evaluate_point(particle, cell, config.cells[0])


def run_sweep_b(config: SweepConfig) -> list[SweepRow]:
    """Width sweep: rows over (V, N, b) with b ascending innermost.

    Every row carries the V-specific thick-barrier asymptote tau_inf for
    reference (nan for a free-space V = 0 control).
    """
    if config.grid is None:
        raise ValueError("sweep-b requires a width grid")
    if not config.cells:
        raise ValueError("sweep-b requires an explicit repetition list")
    if not config.potentials:
        raise ValueError("sweep-b requires at least one potential strength")
    particle = Particle(config.energy)
    widths = sorted(config.grid.values())
    rows: list[SweepRow] = []
    for strength in config.potentials:
        coeffs, tau_inf = None, _NAN
        if strength > 0.0:
            with contextlib.suppress(OverflowGuardError):
                coeffs = hartman_coeffs(particle, strength)
                tau_inf = _limit_time(coeffs, particle.k)
        shared = _Shared(_or_none(_geometry, particle, strength), coeffs, tau_inf=tau_inf)
        for n_cells in config.cells:
            for width in widths:
                cell = CellSpec(strength, width)
                rows.append(evaluate_point(particle, cell, n_cells, _shared=shared))
    return rows


def run_sweep_n(config: SweepConfig) -> list[SweepRow]:
    """Repetition sweep at fixed total span: b = L/(2N) for each grid N.

    Thick-cell coefficients are computed once per V, if the widest cell
    (smallest N) hands off to the limit."""
    if config.grid is None:
        raise ValueError("sweep-n requires a repetition grid")
    if config.span is None or config.span <= 0.0:
        raise ValueError("sweep-n requires a positive span")
    if not config.potentials:
        raise ValueError("sweep-n requires at least one potential strength")
    particle = Particle(config.energy)
    span = config.span
    tau_free = free_propagation_time(particle, span)
    counts = config.grid.integer_values()
    rows: list[SweepRow] = []
    for strength in config.potentials:
        geometry = _or_none(_geometry, particle, strength)
        coeffs = None
        if geometry and counts and _scaled(geometry, span / (2.0 * counts[0]))[1] > BETA_MAX:
            coeffs = _or_none(hartman_coeffs, particle, strength)
        shared = _Shared(geometry, coeffs, tau_free=tau_free)
        for n_cells in counts:
            cell = CellSpec(strength, span / (2.0 * n_cells))
            rows.append(evaluate_point(particle, cell, n_cells, _shared=shared))
    return rows


# ---------------------------------------------------------------------------
# Limit-validation report
# ---------------------------------------------------------------------------


class LimitCheck(NamedTuple):
    """One record of the report; the fields are its JSON keys, in order."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str


class LimitsReport(NamedTuple):
    checks: tuple[LimitCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> str:
        payload = {
            "version": SCHEMA_VERSION,
            "passed": self.passed,
            "checks": [check._asdict() for check in self.checks],
        }
        return json.dumps(payload, indent=2)


def _limit_check(name: str, residual: float, tolerance: float, detail: str) -> LimitCheck:
    return LimitCheck(name, residual < tolerance, residual, tolerance, detail)


def draw_regular_point(rng: random.Random) -> tuple[Particle, CellSpec, int]:
    """Draw a random (particle, cell, N <= 20) away from singular sets.

    Rejects points whose direct 2N-barrier product would overflow
    (beta*N > 200), points within 1e-6 of a band edge, where the
    analytic and finite-difference times cannot be compared, and in-band
    points within 1e-2 of a root of T_N, a margin kept only so that the
    drawn points, and so the ``limits`` report, do not move.
    """
    while True:
        particle = Particle(rng.uniform(0.1, 50.0))
        cell = CellSpec(rng.uniform(0.0, 100.0), rng.uniform(1e-3, 3.0))
        n_cells = rng.randint(1, 20)
        geo = _geometry(particle, cell.strength)
        scaled = _scaled(geo, cell.width)
        if scaled[1] * n_cells > 200.0:
            continue
        xi = _cell_scalars(geo, scaled).xi
        if abs((xi - 1.0) * (xi + 1.0)) < 1e-6:
            continue
        if abs(xi) < 1.0:
            if abs(math.cos(n_cells * math.acos(xi))) < 1e-2:
                continue
        return particle, cell, n_cells


def oracle_triangle_residuals(
    rng: random.Random, count: int
) -> tuple[float, float, int]:
    """Worst residuals of the two oracle comparisons over `count` drawn points.

    Returns (transmission residual, time residual, points actually used):
    closed-form t against the direct matrix product, and analytic tau against
    the finite-difference phase delay.
    """
    worst_t = 0.0
    worst_tau = 0.0
    used = 0
    while used < count:
        particle, cell, n_cells = draw_regular_point(rng)
        record = closed_form(particle, cell, n_cells)
        if record.t is None:
            continue
        try:
            t_direct = transmission_from_matrix(
                lattice_matrix_direct(particle, cell, n_cells)
            )
            tau_fd = tunneling_time_fd(particle, cell, n_cells)
        except (SpectralSingularityError, OverflowGuardError):
            continue
        worst_t = max(worst_t, abs(record.t - t_direct) / abs(t_direct))
        worst_tau = max(worst_tau, abs(record.tau - tau_fd) / max(abs(tau_fd), 1e-300))
        used += 1
    return worst_t, worst_tau, used


def run_limits() -> LimitsReport:
    """Machine-checkable validation of every analytic limit the library claims.

    Covers the thick-barrier coefficient identity g2 - gamma*f4 = 0, the
    thin-cell bracket identity (value = L/2k), the four thick-cell asymptotic
    ratios at beta = 15, and the oracle triangle (closed form against matrix
    product, analytic time against finite differences).
    """
    rng = random.Random(_LIMITS_SEED)
    checks: list[LimitCheck] = []

    worst = 0.0
    for _ in range(1000):
        particle = Particle(rng.uniform(0.1, 50.0))
        strength = rng.uniform(0.1, 100.0)
        c = hartman_coeffs(particle, strength)
        worst = max(worst, abs(c.g2 - c.gamma * c.f4) / max(abs(c.g2), 1.0))
    checks.append(_limit_check(
        "thick-cell-coefficient-identity", worst, 1e-12,
        "max scaled |g2 - gamma*f4| over 1000 draws",
    ))

    worst = 0.0
    for _ in range(1000):
        particle = Particle(rng.uniform(0.1, 50.0))
        strength = rng.uniform(0.0, 100.0)
        span = rng.uniform(0.1, 10.0)
        value = n_infinity_bracket(particle, strength, span)
        reference = free_propagation_time(particle, span)
        worst = max(worst, abs(value - reference) / reference)
    checks.append(_limit_check(
        "thin-cell-bracket-identity", worst, 1e-12,
        "max relative |bracket-form - L/2k| over 1000 draws",
    ))

    worst = 0.0
    for energy, strength in ((1.0, 20.0), (4.0, 10.0), (0.5, 7.0), (2.0, 50.0)):
        particle = Particle(energy)
        geo = _geometry(particle, strength)
        scaled = _scaled(geo, 15.0 / (geo.rho * geo.sin_phi))
        coeffs = hartman_coeffs(particle, strength)
        scalars = _cell_scalars(geo, scaled)
        xi, chi = scalars.xi, scalars.chi
        growth = math.exp(2.0 * scaled[1])
        worst = max(worst, abs(xi / growth / coeffs.f1 - 1.0))
        worst = max(worst, abs(chi / growth / (0.25 * geo.u_minus * geo.sin_phi) - 1.0))
        worst = max(worst, abs(chi / xi / coeffs.gamma - 1.0))
        for n_cells in (1, 2, 3, 4):
            worst = max(worst, abs(cheb_U(n_cells - 1, xi) / cheb_T(n_cells, xi) * xi - 1.0))
    checks.append(_limit_check(
        "thick-cell-asymptotic-ratios", worst, 1e-4,
        "xi*e^-2beta/f1, chi*e^-2beta/(U-/4 sin phi), chi/(xi*gamma), q*xi at beta=15",
    ))

    worst_t, worst_tau, used = oracle_triangle_residuals(rng, 200)
    checks.append(_limit_check(
        "oracle-triangle-transmission", worst_t, 1e-9,
        f"closed form vs direct 2N-barrier product over {used} points",
    ))
    checks.append(_limit_check(
        "oracle-triangle-time", worst_tau, 1e-5,
        f"analytic tau vs finite-difference phase delay over {used} points",
    ))
    return LimitsReport(tuple(checks))


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


# CSV: the columns the package computes as floats, and those that carry the
# caller's inputs.
_CSV_FLOAT_COLUMNS = frozenset(("L", "tau", "tau_inf", "tau_free", "rel_gap", "t_abs", "theta"))
_INPUT_COLUMNS = frozenset(("E", "V", "N", "b"))


def _column(rows: list[SweepRow], column: str) -> Iterator:
    """One column's values over the rows, flags joined with ';'."""
    if column == "flags":
        return map(";".join, map(attrgetter("flags"), rows))
    return map(attrgetter(_COLUMN_FIELDS[column]), rows)


def _csv_column(rows: list[SweepRow], column: str) -> Iterable:
    values = _column(rows, column)
    if column in _INPUT_COLUMNS:
        # A library caller may pass an int E, V or b (N is one); str keeps
        # every digit where %.17g would round it past 2**53.
        return [str(v) if isinstance(v, int) else "%.17g" % v for v in values]
    return values


def rows_to_csv(rows: Iterable[SweepRow], columns: tuple[str, ...]) -> str:
    """Render rows as CSV: fixed header, ',' delimiter, 17 significant digits, LF.

    Each row goes through one template for the column set; ``columns``
    names one or more columns.
    """
    rows = list(rows)
    template = ",".join("%.17g" if c in _CSV_FLOAT_COLUMNS else "%s" for c in columns)
    cells = zip(*(_csv_column(rows, c) for c in columns))
    return "\n".join([",".join(columns), *map(template.__mod__, cells)]) + "\n"


def rows_to_json(rows: Iterable[SweepRow], columns: tuple[str, ...], mode: str) -> str:
    """Render rows as the document ``json.dumps(payload, indent=2)`` gives for
    {"schema": {mode, version, columns}, "rows": [{column: value}, ...]}.

    json's C encoder turns every value into its JSON text in one pass (an
    indent would send json to its pure-Python encoder); '\\n' never occurs
    inside that text, so it separates the values, which a row template for
    the column set then lays out.  ``columns`` names one or more columns.
    """
    rows = list(rows)
    values = [mode, SCHEMA_VERSION, *columns]
    values += chain.from_iterable(zip(*(_column(rows, c) for c in columns)))
    mode_text, version_text, *texts = json.dumps(values, separators=("\n", ":"))[1:-1].split("\n")
    keys, texts = texts[: len(columns)], texts[len(columns) :]
    row_template = "    {\n" + ",\n".join(f"      {key}: %s" for key in keys) + "\n    }"
    row_list = "[]"
    if rows:
        row_list = "[\n" + ",\n".join([row_template] * len(rows)) % tuple(texts) + "\n  ]"
    return (
        '{\n  "schema": {\n    "mode": %s,\n    "version": %s,\n    "columns": [\n      %s\n    ]\n'
        '  },\n  "rows": %s\n}\n' % (mode_text, version_text, ",\n      ".join(keys), row_list)
    )


def write_text(text: str, destination: str | TextIO) -> None:
    """Write exactly `text` (LF endings preserved) to a path or stream."""
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        destination.write(text)


_MODE_COLUMNS = {"sweep-b": SWEEP_B_COLUMNS, "sweep-n": SWEEP_N_COLUMNS, "point": POINT_COLUMNS}


def columns_for_mode(mode: str) -> tuple[str, ...]:
    if mode not in _MODE_COLUMNS:
        raise ValueError(f"no tabular columns for mode {mode!r}")
    return _MODE_COLUMNS[mode]
