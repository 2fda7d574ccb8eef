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
import os
import random
import stat
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, TextIO

from .chebyshev import cheb_pair
from .errors import OverflowGuardError, SpectralSingularityError
from .model import (_LARGEST, CellSpec, Particle, _check_cell_spec, _check_cells, _geometry,
                    _record, _Validated)
from .timing import (
    _cell,
    _closed_form,
    _hartman_coeffs,
    _limit_time,
    _wrap_phase,
    closed_form,
    free_propagation_time,
    hartman_coeffs,
    n_infinity_bracket,
)
from .transfer import lattice_oracle

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
]

SCHEMA_VERSION = "1"

SWEEP_B_COLUMNS = ("E", "V", "N", "b", "L", "tau", "tau_method", "tau_inf", "t_abs", "theta", "flags")
SWEEP_N_COLUMNS = ("E", "V", "N", "b", "L", "tau", "tau_free", "rel_gap", "t_abs", "theta", "flags")
POINT_COLUMNS = ("E", "V", "N", "b", "L", "tau", "tau_method", "t_abs", "theta", "flags")

METHOD_ANALYTIC = "analytic"
METHOD_HARTMAN = "hartman-limit"

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
        if type(count) is not int:  # not isinstance: a bool is no count
            raise ValueError(f"grid count must be an int, got {count!r}")
        if count < 1:
            raise ValueError("grid count must be >= 1")
        if not (abs(start) <= _LARGEST and abs(stop) <= _LARGEST):
            raise ValueError("grid endpoints must be finite")
        if log and (start <= 0.0 or stop <= 0.0):
            raise ValueError("log grid requires positive endpoints")
        if log and not 0.0 < stop / start < math.inf:  # the ratio each value is a power of
            raise ValueError("log grid requires stop/start in double range")
        if not log and not abs(stop - start) <= _LARGEST:  # the span each step is a part of
            raise ValueError("linear grid requires stop - start in double range")
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
        # every exact grid value lies between the endpoints, so one that
        # rounding took past the largest double (to +-inf: a value is never
        # nan) counts as that double
        start, count, big = self.start, self.count, _LARGEST
        if count == 1:
            return [start]
        if self.log:  # every value is >= 0
            ratio = self.stop / start
            return [v if (v := start * ratio ** (i / (count - 1))) <= big else big for i in range(count)]
        step = (self.stop - start) / (count - 1)
        return [v if -big <= (v := start + i * step) <= big else math.copysign(big, v)
                for i in range(count)]

    def integer_values(self) -> list[int]:
        """Grid rounded to unique ascending integers (for repetition counts)."""
        seen: list[int] = []
        for v in sorted(self.values()):
            n = int(round(v))
            if n >= 1 and (not seen or seen[-1] != n):
                seen.append(n)
        return seen


class _SweepConfigFields(NamedTuple):
    energy: float = 1.0
    potentials: tuple[float, ...] = ()
    cells: tuple[int, ...] = ()
    width: float | None = None
    span: float | None = None
    grid: GridSpec | None = None
    output: str | None = None
    format: str = "csv"


class SweepConfig(_Validated, _SweepConfigFields):
    """Resolved settings of one command (CLI flags over config file), not the command itself."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SweepConfig:
        self = super().__new__(cls, *args, **kwargs)
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


def evaluate_point(particle: Particle, cell: CellSpec, n_cells: int) -> SweepRow:
    """Evaluate tau, |t| and theta at one point, downgrading failures to flags.

    Selection of the time path, as ``ClosedForm.path`` names it:
      - ``handoff`` (beta > BETA_MAX): the thick-barrier limit tau_inf (method
        'hartman-limit', flagged Overflow), as the exact forms leave double range;
      - any other path: the analytic expression, the same on a band edge, where
        N^2 |xi^2 - 1| < BAND_EDGE_TOL flags the row XiAtUnity.
    |t| is ``ClosedForm.t_abs``.  A ``singular`` row is flagged
    SpectralSingularity; any other row with an error or without a finite tau
    (every row whose (E, V) geometry leaves double range among them) is
    flagged Overflow.  The row carries tau_inf of its (E, V), nan at V = 0;
    tau_free and rel_gap are nan.  Raises ValueError unless N is an int, not
    a bool, in [0, the largest double].
    """
    return _rows(particle, (cell.strength,), [(n_cells, [cell.width])])[0]


def _rows(particle: Particle, potentials: tuple[float, ...], blocks: list[tuple[int, list[float]]],
          tau_free: float = _NAN) -> list[SweepRow]:
    """The rows of every command: over ``potentials`` (outer), then the
    (N, widths) ``blocks`` in order, then each block's widths, every row
    with ``tau_free`` and its rel_gap.  Each V's record is built once, and
    its cell parts (:func:`timing._cell`) once per widths list: a block
    whose list is the previous block's object reuses them, for its own N.
    Before any row, each widths list's widths are checked once and each
    block's N once, for the first error in row order: CellSpec's for the
    first V with each b, then each N, then CellSpec's for each later V.
    No row raises."""
    first, *later = potentials
    last = None
    for _, widths in blocks:
        if widths is not last:
            last = widths
            for width in widths:
                _check_cell_spec(first, width)
    for n_cells, _ in blocks:
        _check_cells(n_cells)
    for strength in later:
        _check_cell_spec(strength, blocks[0][1][0])  # every b has passed, so only V can fail
    energy, k = particle.energy, particle.k
    rows: list[SweepRow] = []
    for strength in potentials:
        # What every row at one (E, V) shares: the width-free cell geometry
        # (None where it leaves double range), and the thick-cell gamma and
        # limit time tau_inf of V > 0 (each nan at V = 0 or where it leaves
        # double range).
        geometry, gamma, tau_inf = None, _NAN, _NAN
        with contextlib.suppress(OverflowGuardError):
            geometry = _geometry(particle, strength)
        if strength > 0.0 and geometry is not None:
            with contextlib.suppress(OverflowGuardError):
                coeffs = _hartman_coeffs(particle, strength, geometry)
                gamma = coeffs.gamma  # a handoff row keeps its phase where tau_inf leaves range
                tau_inf = _limit_time(coeffs, k)
        last = None
        for n_cells, widths in blocks:
            if widths is not last:  # a loop, as a comprehension's frame outweighs a one-b list
                last, cells = widths, []
                for width in widths:  # no cell part without a geometry
                    cells.append((width, None if geometry is None else _cell(geometry, width)))
            for width, cell in cells:
                record = _closed_form(geometry, cell, width, n_cells)
                tau, theta, _, error, _, band_edge, path = record
                span = 2.0 * (n_cells * width)  # 2N itself is inf past half the largest double
                method = METHOD_ANALYTIC
                if path == "handoff":
                    tau = tau_inf
                    theta = _wrap_phase(math.atan(gamma) - k * span)
                    method = METHOD_HARTMAN
                flags = (FLAG_BAND_EDGE,) if band_edge else ()
                if error is not None:
                    flags += (error.code,)
                elif not math.isfinite(tau):
                    flags += (FLAG_OVERFLOW,)
                # nan where tau_free is nan (no span) or L/2k underflows to 0
                rel_gap = abs(tau - tau_free) / tau_free if tau_free else _NAN
                rows.append(_record(SweepRow, (energy, strength, n_cells, width, span, tau, method,
                                               record.t_abs, theta, flags, tau_inf, tau_free,
                                               rel_gap)))
    return rows


def run_point(config: SweepConfig) -> SweepRow:
    """Evaluate the single (E, V, b, N) point described by the config."""
    if config.width is None:
        raise ValueError("point mode requires a cell width")
    if len(config.potentials) != 1:
        raise ValueError("point mode requires exactly one potential strength")
    if len(config.cells) != 1:
        raise ValueError("point mode requires exactly one repetition count")
    return _rows(Particle(config.energy), config.potentials, [(config.cells[0], [config.width])])[0]


def run_sweep_b(config: SweepConfig) -> list[SweepRow]:
    """Width sweep: rows over (V, N, b) with b ascending innermost.

    The sweep prints tau_inf, the V-specific thick-barrier asymptote that
    every row carries for reference (nan for a free-space V = 0 control).
    """
    if config.grid is None:
        raise ValueError("sweep-b requires a width grid")
    if not config.cells:
        raise ValueError("sweep-b requires an explicit repetition list")
    if not config.potentials:
        raise ValueError("sweep-b requires at least one potential strength")
    widths = sorted(config.grid.values())
    return _rows(Particle(config.energy), config.potentials, [(n_cells, widths) for n_cells in config.cells])


def run_sweep_n(config: SweepConfig) -> list[SweepRow]:
    """Repetition sweep at fixed total span: b = L/(2N) for each grid N.

    Every row carries the free time tau_free = L/2k and its relative gap
    rel_gap to tau; the thick-cell coefficients are computed once per V,
    whether or not a row hands off to the limit.  Raises ValueError where the
    grid rounds to no N >= 1."""
    if config.grid is None:
        raise ValueError("sweep-n requires a repetition grid")
    if config.span is None or config.span <= 0.0:
        raise ValueError("sweep-n requires a positive span")
    if not config.potentials:
        raise ValueError("sweep-n requires at least one potential strength")
    counts = config.grid.integer_values()
    if not counts:
        raise ValueError("sweep-n grid holds no repetition count N >= 1")
    particle, span = Particle(config.energy), config.span
    tau_free = free_propagation_time(particle, span)  # the span rule, before any b = (L/2)/N is formed
    blocks = [(n_cells, [0.5 * span / n_cells]) for n_cells in counts]  # 2N may be inf
    return _rows(particle, config.potentials, blocks, tau_free)


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
    """A random (particle, cell, N <= 20) with beta*N <= 200, where the lattice product stays in
    double range; points near a band edge are kept, as the analytic time is exact there too."""
    while True:
        particle = Particle(rng.uniform(0.1, 50.0))
        cell = CellSpec(rng.uniform(0.0, 100.0), rng.uniform(1e-3, 3.0))
        n_cells = rng.randint(1, 20)
        # b rho <= 3 (50^2 + 100^2)^(1/4) < 32: the cell part is a tuple ending in beta
        beta = _cell(_geometry(particle, cell.strength), cell.width)[-1]
        if beta * n_cells <= 200.0:
            return particle, cell, n_cells


def oracle_triangle_residuals(rng: random.Random, count: int) -> tuple[float, float, int]:
    """Worst residuals of the two oracle comparisons over `count` drawn points.

    Returns (transmission residual, time residual, points actually used):
    closed-form t and tau against those of one (M, dM/dk) lattice product.
    """
    worst_t, worst_tau, used = 0.0, 0.0, 0
    while used < count:
        particle, cell, n_cells = draw_regular_point(rng)
        record = closed_form(particle, cell, n_cells)
        if record.t is None:
            continue
        try:
            t_direct, tau_direct = lattice_oracle(particle, cell, n_cells)
        except (SpectralSingularityError, OverflowGuardError):
            continue
        worst_t = max(worst_t, abs(record.t - t_direct) / abs(t_direct))
        worst_tau = max(worst_tau, abs(record.tau - tau_direct) / max(abs(tau_direct), 1e-300))
        used += 1
    return worst_t, worst_tau, used


def run_limits() -> LimitsReport:
    """Machine-checkable validation of every analytic limit the library claims.

    Covers the thick-barrier coefficient identity g2 - gamma*f4 = 0, the
    thin-cell bracket identity (value = L/2k), the four thick-cell asymptotic
    ratios at beta = 15, and the oracle triangle (closed-form t and tau
    against :func:`transfer.lattice_oracle`)."""
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
        xi, _, _, chi, _, _, beta = _cell(geo, 15.0 / (geo.rho * geo.sin_phi))
        coeffs = _hartman_coeffs(particle, strength, geo)
        growth = math.exp(2.0 * beta)
        worst = max(worst, abs(xi / growth / coeffs.f1 - 1.0))
        worst = max(worst, abs(chi / growth / (0.25 * geo.u_minus * geo.sin_phi) - 1.0))
        worst = max(worst, abs(chi / xi / coeffs.gamma - 1.0))
        for n_cells in (1, 2, 3, 4):
            t_n, u_n1 = cheb_pair(n_cells, xi)
            worst = max(worst, abs(u_n1 / t_n * xi - 1.0))
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
        "oracle-triangle-time", worst_tau, 1e-10,
        f"analytic tau vs exact k-derivative of the 2N-barrier product over {used} points",
    ))
    return LimitsReport(tuple(checks))


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


# CSV: the columns the package computes as floats for each row, and those
# whose texts are formatted once per run of rows that share the value's object.
_CSV_FLOAT_COLUMNS = frozenset(("L", "tau", "rel_gap", "t_abs", "theta"))
_CSV_RUN_COLUMNS = frozenset(("E", "V", "N", "b", "tau_inf", "tau_free"))


def _column(rows: list[SweepRow], column: str) -> Iterator:
    """One column's values over the rows, flags joined with ';'."""
    if column == "flags":
        return map(";".join, map(attrgetter("flags"), rows))
    return map(attrgetter(_COLUMN_FIELDS[column]), rows)


def _run_text(value: float) -> str:
    # N is an int, and a library caller may put one in E, V, b, tau_inf or
    # tau_free; str keeps every digit where %.17g would round it past 2**53.
    return str(value) if isinstance(value, int) else "%.17g" % value


def _texts_by_run(values: Iterable, text) -> list[str]:
    """``text(value)`` of each value, called once per run of the same object
    (not of == values: 0.0 and -0.0, or two nan objects, keep their own text)."""
    texts: list[str] = []
    last = texts  # no value is this list
    for value in values:
        if value is not last:
            last, shared = value, text(value)
        texts.append(shared)
    return texts


def _csv_column(rows: list[SweepRow], column: str) -> Iterable:
    # The rows of one (E, V) in a sweep share their E, V, tau_inf and
    # tau_free objects, and those of one N its int, so these are formatted
    # once per run; b is its own object on each row.
    values = _column(rows, column)
    return _texts_by_run(values, _run_text) if column in _CSV_RUN_COLUMNS else values


def rows_to_csv(rows: Iterable[SweepRow], columns: tuple[str, ...]) -> str:
    """Render rows as CSV: fixed header, ',' delimiter, 17 significant digits, LF.

    Each row goes through one template for the column set; the E, V, N,
    tau_inf and tau_free texts are formatted once per run of rows that share
    the value's object, as the rows of one (E, V) in a sweep do.  ``columns``
    names one or more columns.
    """
    rows = list(rows)
    template = ",".join("%.17g" if c in _CSV_FLOAT_COLUMNS else "%s" for c in columns)
    cells = zip(*(_csv_column(rows, c) for c in columns))
    return "\n".join([",".join(columns), *map(template.__mod__, cells)]) + "\n"


# JSON: one encoder for every value, with '\n' between a list's items.
_json_text = json.JSONEncoder(separators=("\n", ":")).encode

# The columns whose objects the rows of one (E, V) in a sweep share.
_JSON_SHARED_COLUMNS = frozenset(("E", "V", "tau_inf", "tau_free"))


def rows_to_json(rows: Iterable[SweepRow], columns: tuple[str, ...], mode: str) -> str:
    """Render rows as the document ``json.dumps(payload, indent=2)`` gives for
    {"schema": {mode, version, columns}, "rows": [{column: value}, ...]}.

    json's C encoder turns the values into their JSON texts (an indent would
    send json to its pure-Python encoder): the E, V, tau_inf and tau_free of
    each column once per run of rows that share the value's object, as the
    rows of one (E, V) in a sweep do, and every other value in one pass over
    a flat list, where '\\n', which never occurs inside a text, separates
    them.  A row template for the column set then lays the texts out.
    ``columns`` names one or more columns.
    """
    rows = list(rows)
    flat = [c for c in columns if c not in _JSON_SHARED_COLUMNS]
    values = [mode, SCHEMA_VERSION, *columns]
    values += chain.from_iterable(_column(rows, c) for c in flat)
    mode_text, version_text, *texts = _json_text(values)[1:-1].split("\n")
    keys, texts = texts[: len(columns)], texts[len(columns) :]
    n = len(rows)
    by_column = {c: texts[j * n : (j + 1) * n] for j, c in enumerate(flat)}
    cells = zip(*(by_column[c] if c in by_column else _texts_by_run(_column(rows, c), _json_text)
                  for c in columns))
    row_template = "    {\n" + ",\n".join(f"      {key}: %s" for key in keys) + "\n    }"
    row_list = "[]"
    if rows:
        row_list = "[\n" + ",\n".join([row_template] * n) % tuple(chain.from_iterable(cells)) + "\n  ]"
    return (
        '{\n  "schema": {\n    "mode": %s,\n    "version": %s,\n    "columns": [\n      %s\n    ]\n'
        '  },\n  "rows": %s\n}\n' % (mode_text, version_text, ",\n      ".join(keys), row_list)
    )


def write_text(text: str, destination: str | os.PathLike | TextIO) -> None:
    """Write exactly `text`, UTF-8 with LF endings kept, to a path or stream.

    A path is opened for writing without O_TRUNC (mode 0o666 & ~umask for a
    new file) and the bytes are written over the file's old head, with
    os.write repeated until all are written; a regular file longer than
    the bytes is then cut to their length.  The result is the same bytes,
    inode and mode that a truncating open gives.  Truncating to zero first
    is what a rewrite costs most on ext4, which frees the old blocks and
    then starts writeback at close for a file truncated and rewritten.
    Devices and pipes (/dev/null, /dev/stdout) are written, never cut.  No
    fsync is made either way; a write interrupted part way leaves the new
    head over the old tail, where a truncating open would leave a short
    file, and the file is never empty in between.
    """
    if not isinstance(destination, (str, os.PathLike)):
        destination.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(destination, os.O_WRONLY | os.O_CREAT | os.O_CLOEXEC, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):  # a short write
            written += os.write(fd, data[written:])
        status = os.fstat(fd)
        if stat.S_ISREG(status.st_mode) and status.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
