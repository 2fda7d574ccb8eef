import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import random
import re
import stat
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pttunnel

from conftest import PATH_POINTS, bisect_width_for_xi
from test_golden import COMMANDS as GOLDEN_COMMANDS, GOLDEN
from pttunnel import (
    CellSpec,
    ClosedForm,
    GridSpec,
    OverflowGuardError,
    Particle,
    SpectralSingularityError,
    SweepConfig,
    SweepRow,
    closed_form,
    evaluate_point,
    free_propagation_time,
    hartman_limit_time,
    lattice_matrix_direct,
    lattice_oracle,
    run_limits,
    run_point,
    run_sweep_b,
    run_sweep_n,
    transmission_from_matrix,
    tunneling_time,
)
from pttunnel import sweep as sweep_mod
from pttunnel.cli import _MODES, _SETTINGS, _parse, build_parser, main
from pttunnel.sweep import (
    POINT_COLUMNS,
    SWEEP_B_COLUMNS,
    SWEEP_N_COLUMNS,
    oracle_triangle_residuals,
    rows_to_csv,
    rows_to_json,
    write_text,
)
from pttunnel.model import _geometry as real_geometry
from pttunnel.timing import _hartman_coeffs as real_hartman_coeffs_from_geometry
from pttunnel.timing import hartman_coeffs as real_hartman_coeffs


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_parse_and_values():
    linear = GridSpec.parse("0.5:2.5:5")
    assert linear.values() == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5])
    logarithmic = GridSpec.parse("1:4096:13:log")
    assert logarithmic.log
    assert logarithmic.integer_values() == [2**i for i in range(13)]
    assert GridSpec.parse("3:9:1").values() == [3.0]


def test_grid_rejects_malformed():
    with pytest.raises(ValueError):
        GridSpec.parse("1:2")
    with pytest.raises(ValueError):
        GridSpec.parse("1:2:3:linear")
    with pytest.raises(ValueError):
        GridSpec.parse("0:2:3:log")
    with pytest.raises(ValueError):
        GridSpec(1.0, 2.0, 0)
    # stop/start overflows or underflows, so no value between the ends is finite and > 0
    for start, stop in ((5e-324, 1.0), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="^log grid requires stop/start in double range$"):
            GridSpec(start, stop, 2, log=True)
    # stop - start overflows, so the step is inf and the values nan or inf
    for text in ("-1e308:1e308:3", "1e308:-1e308:3"):
        with pytest.raises(ValueError, match="^linear grid requires stop - start in double range$"):
            GridSpec.parse(text)


def test_grid_values_rounded_past_the_largest_double_count_as_it():
    # every exact grid value lies between the endpoints, whatever rounds past them
    largest = sys.float_info.max
    assert GridSpec.parse("3:1.7976931348623157e308:3:log").values()[-1] == largest
    assert GridSpec.parse("0:-1.7976931348623157e308:4").values()[-1] == -largest
    assert GridSpec.parse("3:1.7976931348623157e308:3:log").integer_values()[-1] == int(largest)


@pytest.mark.parametrize("command, widths, count", [
    # the last width rounds past the largest double (default V = 20, N = 1..4)
    ("sweep-b --grid 3:1.7976931348623157e308:3:log", (3.0, 2.3223004552785471e+154, sys.float_info.max), 12),
    # 2N is inf, so b = (L/2)/N and L = 2(Nb): L is the default span 1 again (V = 5, 10, 20)
    ("sweep-n --grid 1e308:1e308:1", (0.5 / 1e308,), 3),
])
def test_grid_ends_near_the_largest_double_end_in_rows(command, widths, count, capsys):
    assert main(command.split()) == 0
    out, err = capsys.readouterr()
    rows = out.splitlines()
    header = rows[0].split(",")
    assert err == "" and len(rows) == 1 + count
    for line in rows[1:]:
        row = dict(zip(header, line.split(",")))
        assert float(row["b"]) in widths
        if command.startswith("sweep-n"):
            # t_abs is 0.7071 in these rows, not the 1 of free space: see the
            # known miss below, which only the Overflow of their nan tau flags
            assert abs(float(row["L"]) - 1.0) <= 1e-15 and row["flags"] == "Overflow"


@pytest.mark.xfail(strict=True, reason="xi - 1 ~ -2(kb)^2 leaves double range past N ~ 1e155")
def test_thin_cell_t_abs_past_double_range_known_miss():
    # L = 1 at N = 1e300: the lattice tends to free space, but xi - 1 is 0.0
    # there, and the band-edge form G = cos(N psi)(1 - i chi q), q = N, gives
    # |G| = sqrt(2) although N psi is O(1)
    row = evaluate_point(Particle(1.0), CellSpec(5.0, 0.5 / 1e300), 10**300)
    assert abs(row.t_abs - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# row evaluation
# ---------------------------------------------------------------------------


def test_point_row_free_space():
    row = evaluate_point(Particle(1.0), CellSpec(0.0, 1.0), 3)
    assert row.tau == pytest.approx(3.0, rel=1e-12)
    assert row.t_abs == pytest.approx(1.0, rel=1e-12)
    assert row.tau_method == "analytic"
    assert row.flags == ()


def test_point_row_deep_cell_switches_to_limit():
    row = evaluate_point(Particle(1.0), CellSpec(20.0, 120.0), 2)
    assert row.tau_method == "hartman-limit"
    assert "Overflow" in row.flags
    assert row.t_abs == 0.0
    assert math.isfinite(row.theta)


def test_point_row_band_edge_flag():
    p = Particle(1.0)
    width = bisect_width_for_xi(p, 20.0, 1.0, 0.15, 0.2)
    row = evaluate_point(p, CellSpec(20.0, width), 2)
    assert "XiAtUnity" in row.flags
    assert row.tau_method == "analytic"
    assert math.isfinite(row.tau)


def test_point_row_analytic_at_root_of_t(lattice_reference):
    # the arctan parameterization jumps by pi at a root of T_N; its
    # k-derivative, the time, does not
    p = Particle(4.0)
    width = bisect_width_for_xi(p, 2.0, math.cos(math.pi / 6.0), 0.1, 0.5)
    row = evaluate_point(p, CellSpec(2.0, width), 3)
    assert (row.tau_method, row.flags) == ("analytic", ())
    reference = float(lattice_reference(4.0, 2.0, width, 3, dps=60).tau)
    assert row.tau == pytest.approx(reference, rel=1e-13)
    assert math.isfinite(row.t_abs)  # transmission itself is regular there


def test_point_row_limit_survives_an_infinite_span():
    # L = 2*10*1e308 is inf: the phase k*L is undefined, the thick-cell
    # time does not depend on L
    row = evaluate_point(Particle(1.0), CellSpec(1.0, 1e308), 10)
    assert row.span == math.inf
    assert (row.tau_method, row.flags) == ("hartman-limit", ("Overflow",))
    assert row.tau == hartman_limit_time(Particle(1.0), 1.0)
    assert math.isnan(row.theta)


def test_point_row_empty_lattice():
    row = evaluate_point(Particle(2.0), CellSpec(30.0, 0.5), 0)
    assert row.tau == 0.0
    assert row.t_abs == 1.0
    assert row.span == 0.0


def test_run_point_matches_library():
    config = SweepConfig(energy=1.0, potentials=(20.0,), cells=(2,), width=0.25)
    row = run_point(config)
    assert row.tau == pytest.approx(
        tunneling_time(Particle(1.0), CellSpec(20.0, 0.25), 2), rel=1e-14
    )


def test_point_row_spectral_singularity_flagged(monkeypatch):
    # an injected record with a nan tau, the case that exits 4; the true
    # lasing point of test_real_spectral_singularity_row has a finite tau
    def singular(geometry, cell, width, n_cells):
        nan = float("nan")
        return ClosedForm(nan, nan, None, SpectralSingularityError(0.0), 0.5, path="singular")

    monkeypatch.setattr(sweep_mod, "_closed_form", singular)
    row = evaluate_point(Particle(1.0), CellSpec(20.0, 0.25), 2)
    assert row.tau_method == "analytic"
    assert row.flags == ("SpectralSingularity",)
    assert math.isnan(row.tau)
    assert row.t_abs == math.inf  # transmission diverges at a lasing point


def test_real_spectral_singularity_row(capsys):
    # a zero of G = T_N - i chi U_{N-1} (Mostafazadeh, PRL 102, 220402, 2009):
    # chi = 0 bisected in b, then cos(N psi) = 0 in E along that curve
    energy, strength, width, n_cells = 0.547149018018704, 1.0, 1.4393530230212068, 7
    particle, cell = Particle(energy), CellSpec(strength, width)
    record = closed_form(particle, cell, n_cells)
    assert isinstance(record.error, SpectralSingularityError) and record.t is None
    assert record.error.magnitude < 1e-14
    with pytest.raises(SpectralSingularityError) as raised:
        transmission_from_matrix(lattice_matrix_direct(particle, cell, n_cells))
    assert raised.value.magnitude < 1e-14 and raised.value.scale == pytest.approx(2.577, rel=1e-3)
    row = evaluate_point(particle, cell, n_cells)
    assert (row.tau_method, row.flags) == ("analytic", ("SpectralSingularity",))
    assert row.t_abs == math.inf and math.isnan(row.theta)
    assert row.tau == pytest.approx(1.866467350630215e14, rel=1e-12)  # finite: exit 0
    argv = ["--energy", repr(energy), "--potential", "1", "--width", repr(width), "--cells", "7"]
    rc, written, err = _point_row(*argv, capsys=capsys)
    assert (rc, err) == (0, "")
    assert (written["t_abs"], written["theta"], written["flags"]) == ("inf", "nan", "SpectralSingularity")


def test_cli_point_numeric_failure_exit_code(monkeypatch, capsys):
    import pttunnel.cli as cli_mod

    nan = float("nan")
    failing_row = sweep_mod.SweepRow(
        energy=1.0,
        strength=20.0,
        n_cells=2,
        width=0.25,
        span=1.0,
        tau=nan,
        tau_method="analytic",
        t_abs=math.inf,
        theta=nan,
        flags=("SpectralSingularity",),
    )
    monkeypatch.setattr(cli_mod, "run_point", lambda config: failing_row)
    rc = main(
        ["point", "--energy", "1", "--potential", "20", "--width", "0.25", "--cells", "2"]
    )
    assert rc == 4
    assert "SpectralSingularity" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _sweep_b_config(**overrides):
    base = dict(
        energy=1.0,
        potentials=(20.0,),
        cells=(1, 2),
        grid=GridSpec(0.1, 1.0, 10),
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_sweep_b_row_order_and_reference_column():
    rows = run_sweep_b(_sweep_b_config())
    assert len(rows) == 20
    # N outer, b inner ascending
    assert [r.n_cells for r in rows[:10]] == [1] * 10
    widths = [r.width for r in rows[:10]]
    assert widths == sorted(widths)
    assert all(r.tau_inf == rows[0].tau_inf for r in rows)
    assert all(r.span == 2.0 * r.n_cells * r.width for r in rows)


def test_sweep_b_free_space_rows_are_free_passage():
    rows = run_sweep_b(_sweep_b_config(potentials=(0.0,)))
    for row in rows:
        assert row.tau == pytest.approx(row.span / 2.0, rel=1e-12)
        assert math.isnan(row.tau_inf)


def test_sweep_n_derives_width_from_span():
    config = SweepConfig(
        energy=4.0,
        potentials=(10.0,),
        span=1.0,
        grid=GridSpec(1, 64, 7, log=True),
    )
    rows = run_sweep_n(config)
    assert [r.n_cells for r in rows] == [1, 2, 4, 8, 16, 32, 64]
    for row in rows:
        assert row.width == pytest.approx(1.0 / (2.0 * row.n_cells), rel=1e-15)
        assert row.tau_free == 0.25
        assert row.rel_gap == pytest.approx(abs(row.tau - 0.25) / 0.25, rel=1e-12)


def test_sweep_n_free_space_control_exact():
    config = SweepConfig(
        energy=1.0,
        potentials=(0.0,),
        span=1.0,
        grid=GridSpec(1, 256, 9, log=True),
    )
    for row in run_sweep_n(config):
        assert row.rel_gap < 1e-12


def _same(a, b):
    return a == b or (a != a and b != b)  # nan equals nan here


# Sweep-b and sweep-n runs whose rows take every kernel path a sweep can
# reach (ClosedForm.path: all but a spectral singularity), V = 0 and the
# XiAtUnity band edge.
_PATH_CONFIGS = (
    _sweep_b_config(
        energy=1.0, potentials=(20.0, 0.0, 3.0), cells=(3, 12),
        grid=GridSpec(1e-3, 300.0, 40, log=True),
    ),
    SweepConfig(
        energy=1.0, potentials=(0.0, 0.5, 5.0), span=1.0,
        grid=GridSpec(1, 1e6, 25, log=True),
    ),
    SweepConfig(
        energy=1.0, potentials=(20.0,), span=3000.0,
        grid=GridSpec(1, 64, 7, log=True),
    ),
    # kL = 1e-6: N^2 |xi^2 - 1| ~ (kL)^2 puts every row on the band-edge branch
    SweepConfig(
        energy=1.0, potentials=(5.0,), span=1e-6,
        grid=GridSpec(1, 4096, 13, log=True),
    ),
    # the cell phase 2bk leaves double range at b = 1e307, k = 10: not evaluated
    _sweep_b_config(
        energy=100.0, potentials=(0.0,), cells=(1,),
        grid=GridSpec(1e306, 1e307, 2, log=True),
    ),
    # one cell part per (V, b) serves every N: N = 0 (empty) on cells that
    # hand off (V = 20, b > 350) or whose phase 2bk leaves double range
    # (V = 0, b = 1e307), and the evaluated rows of the other N
    _sweep_b_config(
        energy=100.0, potentials=(20.0, 0.0), cells=(0, 1, 3),
        grid=GridSpec(0.1, 1e307, 24, log=True),
    ),
)


def test_sweep_rows_equal_point_rows():
    # the sweeps compute the (E, V) work once; every row must still be the
    # row evaluate_point gives at its own point, plus the reference columns
    paths, flags, free, empty_on = set(), set(), False, set()
    for config in _PATH_CONFIGS:
        particle = Particle(config.energy)
        run = run_sweep_b if config.span is None else run_sweep_n
        rows = run(config)
        assert rows
        for row in rows:
            cell = CellSpec(row.strength, row.width)
            expected = evaluate_point(particle, cell, row.n_cells)
            # every row, point and sweep-n ones too, carries tau_inf of its (E, V)
            tau_inf = hartman_limit_time(particle, row.strength) if row.strength else math.nan
            assert _same(expected.tau_inf, tau_inf)
            if run is run_sweep_n:
                tau_free = free_propagation_time(particle, config.span)
                rel_gap = abs(expected.tau - tau_free) / tau_free
                expected = expected._replace(tau_free=tau_free, rel_gap=rel_gap)
            for field in SweepRow._fields:
                assert _same(getattr(row, field), getattr(expected, field)), (
                    field, row, expected,
                )
            paths.add(closed_form(particle, cell, row.n_cells).path)
            if row.n_cells == 0:  # the path of the cell the empty row shares
                empty_on.add(closed_form(particle, cell, 1).path)
            flags.update(row.flags)
            free |= row.strength == 0.0
    documented = set(re.findall(r"``([a-z-]+)`` \(", ClosedForm.__doc__))
    assert len(documented) == 7
    assert paths == documented - {"singular"}
    assert free and "XiAtUnity" in flags
    assert {"handoff", "not-evaluated", "in-band"} <= empty_on


def test_sweep_validation_errors():
    with pytest.raises(ValueError):
        run_sweep_b(_sweep_b_config(cells=()))
    with pytest.raises(ValueError):
        run_sweep_b(_sweep_b_config(grid=None))
    with pytest.raises(ValueError):
        run_sweep_n(SweepConfig(potentials=(1.0,), grid=GridSpec(1, 8, 4)))


# A sweep checks each V once and each b once, before its first row, yet
# raises the ValueError a per-row CellSpec raises for the same first (V, b) pair.
_CELL_ERRORS = {
    "negative-V-and-zero-b": (
        run_sweep_b, SweepConfig(potentials=(-1.0,), cells=(2,), grid=GridSpec(0.0, 1.0, 3)),
        "strength must be finite and >= 0, got -1.0",
    ),
    "bool-b": (
        run_sweep_b, SweepConfig(potentials=(20.0, -1.0), cells=(1, 2), grid=GridSpec(True, 2.0, 1)),
        "strength and width must be numbers, got CellSpec(strength=20.0, width=True)",
    ),
    "zero-b-from-a-linear-grid": (
        run_sweep_b, SweepConfig(potentials=(20.0,), cells=(1, 3), grid=GridSpec(0.0, 0.5, 6)),
        "width must be finite and > 0, got 0.0",
    ),
    "nan-V": (
        run_sweep_b, SweepConfig(potentials=(math.nan,), cells=(1,), grid=GridSpec(0.1, 1.0, 3)),
        "strength must be finite and >= 0, got nan",
    ),
    "second-V-invalid": (
        run_sweep_b, SweepConfig(potentials=(20.0, -3.0), cells=(1,), grid=GridSpec(0.1, 1.0, 3)),
        "strength must be finite and >= 0, got -3.0",
    ),
    "second-V-invalid-sweep-n": (
        run_sweep_n, SweepConfig(potentials=(1.0, -math.inf), span=1.0, grid=GridSpec(1, 8, 4)),
        "strength must be finite and >= 0, got -inf",
    ),
    "bool-V": (
        run_sweep_b, SweepConfig(potentials=(False,), cells=(1,), grid=GridSpec(0.1, 1.0, 3)),
        "strength and width must be numbers, got CellSpec(strength=False, width=0.1)",
    ),
    "true-V": (
        run_sweep_b, SweepConfig(potentials=(True,), cells=(1,), grid=GridSpec(0.1, 1.0, 3)),
        "strength and width must be numbers, got CellSpec(strength=True, width=0.1)",
    ),
    "infinite-V": (
        run_sweep_b, SweepConfig(potentials=(math.inf,), cells=(1,), grid=GridSpec(0.1, 1.0, 3)),
        "strength must be finite and >= 0, got inf",
    ),
}


@pytest.fixture
def closed_form_calls(monkeypatch):
    """The kernel calls a sweep has made so far: those of its cell part
    ``_cell`` and of its N part ``_closed_form``."""
    calls = []
    for name in ("_cell", "_closed_form"):
        real = getattr(sweep_mod, name)
        monkeypatch.setattr(sweep_mod, name, lambda *args, real=real: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("name", list(_CELL_ERRORS))
def test_sweep_rejects_a_cell_as_its_per_row_cellspec_did(name, closed_form_calls):
    run, config, message = _CELL_ERRORS[name]
    with pytest.raises(ValueError) as raised:
        run(config)
    assert type(raised.value) is ValueError and str(raised.value) == message
    assert closed_form_calls == []  # no row was evaluated first
    # the same error as the CellSpec of the first rejected pair, in row order
    if run is run_sweep_b:
        widths = sorted(config.grid.values())
    else:
        widths = [config.span / (2.0 * n) for n in config.grid.integer_values()]
    with pytest.raises(ValueError) as per_row:
        for strength in config.potentials:
            for width in widths:
                CellSpec(strength, width)
    assert str(per_row.value) == message


# A negative N raises after the first V and every b are checked, and before
# any later V is: the order in which the rows of a sweep meet them.
_ORDERED_ERRORS = {
    "negative-N-after-a-row": ((20.0,), (2, -1), 0.1, "n_cells must be >= 0"),
    "negative-N-before-a-later-V": ((20.0, -3.0), (2, -1), 0.1, "n_cells must be >= 0"),
    "first-V-before-negative-N": ((-3.0, 20.0), (2, -1), 0.1,
                                  "strength must be finite and >= 0, got -3.0"),
    "b-before-negative-N": ((20.0,), (-1,), 0.0, "width must be finite and > 0, got 0.0"),
}


@pytest.mark.parametrize("name", list(_ORDERED_ERRORS))
def test_sweep_raises_its_first_error_before_any_row(name, closed_form_calls):
    potentials, cells, start, message = _ORDERED_ERRORS[name]
    config = SweepConfig(potentials=potentials, cells=cells, grid=GridSpec(start, 1.0, 3))
    with pytest.raises(ValueError) as raised:
        run_sweep_b(config)
    assert (type(raised.value), str(raised.value), closed_form_calls) == (ValueError, message, [])


# ---------------------------------------------------------------------------
# output formats and determinism
# ---------------------------------------------------------------------------


def test_csv_round_trip_precision(tmp_path):
    rows = run_sweep_b(_sweep_b_config())
    text = rows_to_csv(rows, SWEEP_B_COLUMNS)
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_B_COLUMNS)
    cells = lines[1].split(",")
    assert float(cells[5]) == rows[0].tau  # 17 significant digits round-trip


# The writers as they were before the per-column-set templates: one
# formatting call per cell, and json.dumps with an indent.
_FIELDS = {"E": "energy", "V": "strength", "N": "n_cells", "b": "width", "L": "span"}


def _reference_value(row, column):
    if column == "flags":
        return ";".join(row.flags)
    return getattr(row, _FIELDS.get(column, column))


def _reference_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    x = float(value)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _reference_csv(rows, columns):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_reference_cell(_reference_value(row, c)) for c in columns))
    return "\n".join(lines) + "\n"


def _reference_json(rows, columns, mode):
    payload = {
        "schema": {"mode": mode, "version": "1", "columns": list(columns)},
        "rows": [{c: _reference_value(row, c) for c in columns} for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


class _Float(float):
    """A float subclass, as a numpy scalar is, that renders itself wrongly."""

    def __repr__(self):
        return "_Float()"

    __str__ = __repr__

    def __format__(self, spec):
        return "_Float()"


def _writer_rows():
    odd = SweepRow(
        energy=_Float(1.5), strength=_Float(-0.0), n_cells=7, width=_Float(0.1),
        span=-0.0, tau=math.nan, tau_method="hartman-limit", t_abs=math.inf,
        theta=-math.inf, flags=("XiAtUnity", "Overflow"), tau_inf=-0.0,
        tau_free=_Float(math.inf), rel_gap=_Float(-math.inf),
    )
    # int E, V and b from a library caller; 2**60 + 1 is past what %.17g keeps
    exact = evaluate_point(Particle(2**60 + 1), CellSpec(20, 1), 2)
    ints = evaluate_point(Particle(1), CellSpec(20, 1), 2)
    swept = run_sweep_b(_PATH_CONFIGS[0])[::7] + run_sweep_n(_PATH_CONFIGS[1])[::5]
    floats = run_sweep_n(
        SweepConfig(
            energy=_Float(1.5), potentials=(_Float(3.0),),
            span=_Float(2.0), grid=GridSpec(1, 9, 3),
        )
    )
    return [odd, exact, ints, *swept, *floats]


@pytest.mark.parametrize(
    "columns",
    [SWEEP_B_COLUMNS, SWEEP_N_COLUMNS, POINT_COLUMNS, ("flags", "N", "theta"), ("E",)],
)
def test_writers_match_reference_bytes(columns):
    rows = _writer_rows()
    assert isinstance(rows[-1].energy, _Float)
    for sample in (rows, rows[:1], []):
        assert rows_to_csv(sample, columns) == _reference_csv(sample, columns)
        for mode in ("sweep-b", "sweep-n", "point"):
            assert rows_to_json(sample, columns, mode) == _reference_json(sample, columns, mode)


def test_csv_runs_of_shared_values_are_keyed_on_the_object():
    # adjacent rows whose shared columns hold 0.0 then -0.0, or two distinct
    # nan objects, each keep their own text, and an int keeps every digit
    row = run_sweep_b(_PATH_CONFIGS[0])[0]
    nan_a, nan_b = float("nan"), -float("nan")
    assert nan_a is not nan_b
    rows = [
        row._replace(energy=value, strength=value, tau_inf=value, tau_free=value)
        for value in (0.0, -0.0, 0.0, nan_a, nan_b, nan_b, 2**60 + 1, -0.0, 1.5)
    ]
    for columns in (SWEEP_B_COLUMNS, SWEEP_N_COLUMNS):
        text = rows_to_csv(rows, columns)
        assert text == _reference_csv(rows, columns)
        assert [line[:5] for line in text.splitlines()[1:4]] == ["0,0,3", "-0,-0", "0,0,3"]


def test_csv_of_interleaved_sweeps_matches_reference_bytes():
    # rows of two (E, V) taken in turn break every run of shared objects
    first = run_sweep_b(_sweep_b_config(energy=1.0, potentials=(20.0,), cells=(2, 3)))
    second = run_sweep_n(SweepConfig(energy=2.0, potentials=(0.0,), span=1.0, grid=GridSpec(1, 64, 8)))
    mixed = [row for pair in zip(first, second) for row in pair] + first[len(second):]
    for rows in (mixed, mixed[::-1], first + second):
        for columns in (SWEEP_B_COLUMNS, SWEEP_N_COLUMNS, POINT_COLUMNS):
            assert rows_to_csv(rows, columns) == _reference_csv(rows, columns)


def test_json_runs_of_shared_values_match_reference_bytes():
    # rows_to_json renders E, V, tau_inf and tau_free once per run of the
    # same object: runs of 0.0, -0.0 and distinct nan objects, and rows of
    # two (E, V) taken in turn, which break every run
    row = run_sweep_b(_PATH_CONFIGS[0])[0]
    runs = [
        row._replace(energy=value, strength=value, tau_inf=value, tau_free=value)
        for value in (0.0, -0.0, 0.0, float("nan"), -float("nan"), 2**60 + 1, -0.0, 1.5)
    ]
    first = run_sweep_b(_sweep_b_config(energy=1.0, potentials=(20.0,), cells=(2, 3)))
    second = run_sweep_n(SweepConfig(energy=2.0, potentials=(0.0,), span=1.0, grid=GridSpec(1, 64, 8)))
    mixed = [row for pair in zip(first, second) for row in pair] + first[len(second):]
    for rows in (runs, mixed, mixed[::-1], first + second):
        for columns in (SWEEP_B_COLUMNS, SWEEP_N_COLUMNS, ("tau_free", "V", "E", "tau_inf")):
            assert rows_to_json(rows, columns, "sweep-n") == _reference_json(rows, columns, "sweep-n")


def test_sweep_output_is_byte_identical(tmp_path):
    config = _sweep_b_config()
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_text(rows_to_csv(run_sweep_b(config), SWEEP_B_COLUMNS), str(path_a))
    write_text(rows_to_csv(run_sweep_b(config), SWEEP_B_COLUMNS), str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()
    assert b"\r" not in path_a.read_bytes()


def test_json_output_shape():
    rows = run_sweep_n(
        SweepConfig(
            energy=1.0,
            potentials=(5.0,),
            span=1.0,
            grid=GridSpec(1, 4, 3, log=True),
        )
    )
    payload = json.loads(rows_to_json(rows, SWEEP_N_COLUMNS, "sweep-n"))
    assert payload["schema"]["columns"] == list(SWEEP_N_COLUMNS)
    assert payload["schema"]["version"] == "1"
    assert len(payload["rows"]) == len(rows)
    assert payload["rows"][0]["E"] == 1.0


# ---------------------------------------------------------------------------
# limits report
# ---------------------------------------------------------------------------


def test_limits_report_passes_and_carries_residuals():
    report = run_limits()
    assert report.passed
    payload = json.loads(report.to_json())
    assert payload["passed"] is True
    for check in payload["checks"]:
        assert math.isfinite(check["residual"])
        assert check["residual"] < check["tolerance"]


def test_limits_report_catches_sign_mutation(monkeypatch):
    def flipped(particle, strength):
        c = real_hartman_coeffs(particle, strength)
        return type(c)(f1=c.f1, f2=c.f2, f4=-c.f4, g2=c.g2, g3=c.g3, gamma=c.gamma)

    monkeypatch.setattr(sweep_mod, "hartman_coeffs", flipped)
    report = run_limits()
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert "thick-cell-coefficient-identity" in failing


def test_oracle_triangle_skips_a_point_without_t_and_one_the_oracle_refuses(monkeypatch):
    # the singular point has no closed-form t; at E = 1, V = 20, b = 52.5,
    # N = 2 the out-of-band t (1.4e-281) exists, but the lattice product
    # leaves the guard: neither may count as a used point or move a residual
    energy, strength, width, n_cells = PATH_POINTS["singular"]
    no_t = (Particle(energy), CellSpec(strength, width), n_cells)
    refused = (Particle(1.0), CellSpec(20.0, 52.5), 2)
    assert closed_form(*no_t).t is None
    assert closed_form(*refused).path == "out-of-band" and closed_form(*refused).t is not None
    with pytest.raises(OverflowGuardError):
        lattice_oracle(*refused)
    expected = oracle_triangle_residuals(random.Random(7), 20)
    skipped = iter([no_t, refused])
    draw = sweep_mod.draw_regular_point
    monkeypatch.setattr(sweep_mod, "draw_regular_point", lambda rng: next(skipped, None) or draw(rng))
    worst_t, worst_tau, used = oracle_triangle_residuals(random.Random(7), 20)
    assert used == 20
    assert (worst_t, worst_tau) == expected[:2]


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def run_cli(*args):
    # the child imports the same pttunnel as this process, installed or not
    src = os.path.dirname(os.path.dirname(pttunnel.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pttunnel.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_point_free_space():
    proc = run_cli(
        "point", "--energy", "1", "--potential", "0", "--width", "1", "--cells", "3"
    )
    assert proc.returncode == 0
    assert "tau   = 3.0" in proc.stdout
    assert "analytic" in proc.stdout


def test_cli_point_invalid_energy():
    proc = run_cli(
        "point", "--energy", "-1", "--potential", "2", "--width", "1", "--cells", "1"
    )
    assert proc.returncode == 2
    assert "InvalidEnergy" in proc.stderr


def test_cli_point_missing_width():
    proc = run_cli("point", "--energy", "1", "--potential", "2", "--cells", "1")
    assert proc.returncode == 2


def _point_row(*args, capsys):
    rc = main(["point", *args])
    out, err = capsys.readouterr()
    return rc, dict(zip(out.splitlines()[-2].split(","), out.splitlines()[-1].split(","))), err


def test_cli_point_huge_potential_flags_overflow(capsys):
    # rho^3 of the thick-cell expansion leaves double range at V = 1e300
    rc, row, err = _point_row(
        "--energy", "1", "--potential", "1e300", "--width", "0.25", "--cells", "2",
        capsys=capsys,
    )
    assert rc == 4
    assert "error: Overflow:" in err
    assert (row["tau"], row["tau_method"], row["flags"]) == ("nan", "hartman-limit", "Overflow")


def test_cli_point_huge_energy_flags_overflow(capsys):
    # the k-derivatives are inf/inf at E = 1e300, so the analytic tau is nan
    rc, row, err = _point_row(
        "--energy", "1e300", "--potential", "20", "--width", "0.25", "--cells", "2",
        capsys=capsys,
    )
    assert rc == 4
    assert "error: Overflow:" in err
    assert (row["tau"], row["tau_method"], row["flags"]) == ("nan", "analytic", "Overflow")
    assert float(row["t_abs"]) == pytest.approx(1.0)


@pytest.mark.parametrize("energy, width, cells", [("100", "1e307", "1"), ("1", "1e307", "100")])
def test_cli_point_huge_width_flags_overflow(energy, width, cells, capsys):
    # the cell phase 2*b*k (b = 1e307, k = 10) or the lattice phase k*L
    # (L = 2e309) leaves double range; every input is finite and valid
    rc, row, err = _point_row(
        "--energy", energy, "--potential", "0", "--width", width, "--cells", cells,
        capsys=capsys,
    )
    assert rc == 4
    assert "error: Overflow:" in err
    assert (row["tau"], row["tau_method"], row["flags"]) == ("nan", "analytic", "Overflow")
    assert (row["t_abs"], row["theta"]) == ("nan", "nan")


@pytest.mark.parametrize("strength", [0.0, 1e-300, 1.0])
@pytest.mark.parametrize("energy", [1e-300, 1e-200, 5e-324])
def test_tiny_energy_ends_in_a_row_or_a_typed_error(energy, strength, capsys):
    # rho^5 = (E^2 + V^2)^(5/4) underflows to 0 unless V = 1, and at
    # E = 5e-324 rho^2/E overflows; every input is finite and valid
    argv = ["point", "--energy", repr(energy), "--potential", repr(strength)]
    argv += ["--width", "1", "--cells", "1"]
    if strength == 1.0 and energy > 5e-324:
        row = evaluate_point(Particle(energy), CellSpec(strength, 1.0), 1)
        assert (row.tau_method, row.flags) == ("analytic", ())
        # tau*k settles as k -> 0; ptbench/reference.py gives 1.74229460681128
        # at E = 1e-20 and 1e-60
        assert row.tau * math.sqrt(energy) == pytest.approx(1.74229460681128, rel=1e-13)
        assert main(argv) == 0
    else:
        # the (E, V) geometry leaves double range: an Overflow row, as for
        # any other point without a finite time
        row = evaluate_point(Particle(energy), CellSpec(strength, 1.0), 1)
        assert (row.tau_method, row.flags) == ("analytic", ("Overflow",))
        assert all(math.isnan(x) for x in (row.tau, row.t_abs, row.theta))
        rc, written, err = _point_row(*argv[1:], capsys=capsys)
        assert rc == 4
        assert err == "error: Overflow: no finite tunneling time at this point\n"
        assert [written[c] for c in ("tau", "t_abs", "theta", "flags")] == ["nan"] * 3 + ["Overflow"]


def test_cli_sweep_b_huge_potential_has_nan_limit(tmp_path):
    out = tmp_path / "rows.csv"
    rc = main(
        [
            "sweep-b",
            "--energy", "1",
            "--potential", "1e300",
            "--cells", "2",
            "--grid", "0.1:0.5:3",
            "--output", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 3
    for row in rows:
        assert (row["tau"], row["tau_inf"], row["flags"]) == ("nan", "nan", "Overflow")


def test_cli_sweep_b_tiny_potential_has_nan_limit(capsys):
    # f1 = sin^2(phi)/2 underflows to 0 at V = 1e-300: no thick-cell limit,
    # but every row below BETA_MAX is a regular analytic one
    argv = ["sweep-b", "--energy", "1", "--potential", "1e-300", "--cells", "1"]
    assert main([*argv, "--grid", "0.1:1:3"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 3
    for row in rows:
        assert (row["tau_method"], row["tau_inf"], row["flags"]) == ("analytic", "nan", "")
        assert float(row["tau"]) == pytest.approx(float(row["b"]), rel=1e-12)
    # past BETA_MAX the rows hand off to that missing limit: tau is nan, but
    # gamma is finite, so each row keeps the phase atan(gamma) - kL
    assert main([*argv, "--grid", "1e303:1e304:2"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [row["theta"] for row in rows] == ["-1.1536067324003199", "1.2836105472605723"]
    for row in rows:
        assert (row["tau_method"], row["flags"]) == ("hartman-limit", "Overflow")
        assert (row["tau"], row["tau_inf"], row["t_abs"]) == ("nan", "nan", "0")


def test_cli_point_cancelled_growth_scale_flags_overflow(capsys):
    # xi + 1 cancels to 0 outside the band (see test_timing): a typed
    # Overflow row and exit 4, not a ZeroDivisionError
    rc, row, err = _point_row(
        "--energy", "1e300", "--potential", "1e150", "--width", "120", "--cells", "1000000000",
        capsys=capsys,
    )
    assert rc == 4
    assert err == "error: Overflow: no finite tunneling time at this point\n"
    assert (row["tau"], row["tau_method"], row["flags"]) == ("nan", "analytic", "Overflow")
    assert (row["t_abs"], row["theta"]) == ("nan", "nan")


# Each command of the sequence below, in the order it runs (twice over).
_REPEATED = {
    "point": ["point", "--energy", "1", "--potential", "20", "--width", "0.25", "--cells", "2"],
    "bad-flag": ["sweep-b", "--no-such-flag"],
    "sweep-b": ["sweep-b", "--potential", "20", "--potential", "0", "--grid", "1e-3:300:40:log"],
    "help": ["sweep-n", "--help"],
    "sweep-n": ["sweep-n", "--format", "json"],
    "limits": ["limits"],
}


def test_main_called_repeatedly_writes_what_a_fresh_call_writes(capsys, monkeypatch):
    # main parses every call in a process with one parser; each call must
    # still write what it writes in a fresh interpreter, failed parses and
    # help included
    monkeypatch.setenv("COLUMNS", "80")  # usage and help wrap at this width
    fresh = {}
    for name, argv in _REPEATED.items():
        proc = run_cli(*argv)
        fresh[name] = (proc.returncode, proc.stdout, proc.stderr)
    assert [fresh[name][0] for name in _REPEATED] == [0, 2, 0, 0, 0, 0]
    for _ in range(2):
        for name, argv in _REPEATED.items():
            code = main(argv)
            assert (code, *capsys.readouterr()) == fresh[name], name
    assert build_parser() is not build_parser()


def _read_csv(path):
    lines = path.read_text().splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


@pytest.mark.parametrize("mode", ["sweep-b", "sweep-n"])
def test_cli_sweep_out_of_range_potential_gives_overflow_rows(mode, tmp_path, capsys):
    # at E = 1e-300, V = 0 the cell's k-derivatives leave double range, but
    # V = 1 is computable: the sweep writes both, and exits 0
    out = tmp_path / "rows.csv"
    argv = [mode, "--energy", "1e-300", "--potential", "0", "--potential", "1"]
    if mode == "sweep-b":
        argv += ["--cells", "1", "--cells", "3", "--grid", "0.1:2:4"]
        reference = "tau_inf"
    else:
        argv += ["--span", "1", "--grid", "1:8:4"]
        reference = "rel_gap"
    assert main([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = _read_csv(out)
    bad = [row for row in rows if row["V"] == "0"]
    good = [row for row in rows if row["V"] == "1"]
    assert len(bad) == len(good) == len(rows) // 2 > 0
    for row in bad:
        assert row["flags"] == "Overflow"
        assert [row[c] for c in ("tau", "t_abs", "theta", reference)] == ["nan"] * 4
        if mode == "sweep-n":
            assert float(row["tau_free"]) == free_propagation_time(Particle(1e-300), 1.0)
    for row in good:
        expected = evaluate_point(Particle(1e-300), CellSpec(1.0, float(row["b"])), int(row["N"]))
        assert row["flags"] == ""
        assert row["tau"] == "%.17g" % expected.tau
        assert row["theta"] == "%.17g" % expected.theta


def test_sweep_n_computes_thick_cell_coefficients_once(monkeypatch, tmp_path):
    # the coefficients come from the one (E, V) geometry of the sweep
    calls, geometries = [], []

    def counted(particle, strength, geo):
        calls.append(strength)
        assert geo is geometries[-1]
        return real_hartman_coeffs_from_geometry(particle, strength, geo)

    def built(particle, strength):
        geometries.append(real_geometry(particle, strength))
        return geometries[-1]

    monkeypatch.setattr(sweep_mod, "_hartman_coeffs", counted)
    monkeypatch.setattr(sweep_mod, "_geometry", built)
    # span 3000: the four widest cells hand off to the thick-cell limit
    config = _PATH_CONFIGS[2]
    methods = [row.tau_method for row in run_sweep_n(config)]
    assert methods.count("hartman-limit") == 4
    assert calls == [20.0]
    calls.clear()
    argv = ["sweep-n", "--energy", "1", "--potential", "20", "--grid", "1:64:7:log"]
    out = tmp_path / "rows.csv"
    assert main([*argv, "--span", "3000", "--output", str(out)]) == 0
    assert calls == [20.0]
    # span 1: no row hands off, but the coefficients are still computed once
    calls.clear()
    assert main([*argv, "--span", "1", "--output", str(out)]) == 0
    assert calls == [20.0] and len(geometries) == 3


def test_cli_sweep_b_writes_deterministic_file(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = (
        "sweep-b",
        "--energy", "1",
        "--potential", "20",
        "--cells", "1",
        "--cells", "2",
        "--grid", "0.1:0.5:5",
    )
    assert main([*args, "--output", str(out_a)]) == 0
    assert main([*args, "--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()[0]
    assert header == ",".join(SWEEP_B_COLUMNS)


# ---------------------------------------------------------------------------
# the file write: in place, cut to length
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("as_path", [str, pathlib.Path], ids=["str", "Path"])
@pytest.mark.parametrize("old", [b"\xff" * 65536, b"x"], ids=["64KiB", "1B"])
def test_write_text_rewrites_a_file_in_place(old, as_path, tmp_path):
    text = "E,V,flags\n1,20,\n" * 40
    path = tmp_path / "rows.csv"
    path.write_bytes(old)
    link = tmp_path / "link.csv"
    os.link(path, link)
    write_text(text, as_path(path))
    assert path.read_bytes() == text.encode()
    assert link.read_bytes() == text.encode()  # the same inode


def test_write_text_finishes_short_writes_and_cuts_only_a_longer_file(tmp_path, monkeypatch):
    real_write, cuts = os.write, []

    def short_write(fd, data):  # at most 7 bytes a call, as a signal may leave it
        return real_write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", short_write)
    monkeypatch.setattr(os, "ftruncate", lambda fd, length: cuts.append(length))
    text = "E,V,flags\n1,20,Overflow\n" * 3
    path = tmp_path / "rows.csv"
    for old in (b"", b"#" * len(text), b"#" * (len(text) + 1)):
        path.write_bytes(old)
        write_text(text, str(path))
        assert path.read_bytes()[: len(text)] == text.encode()
    assert cuts == [len(text)]


@pytest.mark.parametrize("name", sorted(set(GOLDEN_COMMANDS) - {"point.txt"}))
def test_cli_output_over_a_longer_file_writes_the_golden(name, tmp_path):
    # point.txt is the stdout of `point`, not what it writes to --output
    golden = (GOLDEN / name).read_bytes()
    out = tmp_path / name
    out.write_bytes(b"#" * (len(golden) + 65536))
    assert main([*GOLDEN_COMMANDS[name], "--output", str(out)]) == 0
    assert out.read_bytes() == golden


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null on this system")
def test_cli_output_to_dev_null(capsys):
    assert main(["sweep-b", "--cells", "1", "--grid", "1:2:2", "--output", "/dev/null"]) == 0
    assert capsys.readouterr() == ("wrote 2 rows to /dev/null\n", "")


def test_write_text_creates_a_file_with_the_mode_open_gives(tmp_path):
    umask = os.umask(0o022)
    try:
        write_text("x\n", str(tmp_path / "new.csv"))
        with open(tmp_path / "beside.csv", "w"):
            pass
    finally:
        os.umask(umask)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("new.csv", "beside.csv")]
    assert modes[0] == modes[1]


def test_cli_sweep_n_json_stdout(capsys):
    rc = main(
        [
            "sweep-n",
            "--energy", "1",
            "--potential", "5",
            "--span", "1",
            "--grid", "1:16:5:log",
            "--format", "json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"]["mode"] == "sweep-n"
    assert len(payload["rows"]) == 5


def test_cli_limits_exit_code(tmp_path):
    out = tmp_path / "limits.json"
    assert main(["limits", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_cli_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "energy = 4\n"
        "potential = 5, 10\n"
        "cells = 1,2\n"
        "grid = 0.1:0.4:4\n"
        "# comment line\n"
        "format = csv\n"
    )
    out = tmp_path / "rows.csv"
    rc = main(
        [
            "sweep-b",
            "--config", str(config),
            "--energy", "9",
            "--output", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 4
    first = lines[1].split(",")
    assert float(first[0]) == 9.0  # CLI flag wins over config file
    assert float(first[1]) == 5.0  # config potentials preserved


def test_cli_unknown_config_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("wavelength = 3\n")
    rc = main(["sweep-b", "--config", str(config)])
    assert rc == 2


# A small run of each command, written to {tmp}/rows.out.
_CONFIG_RUNS = {
    "point": "point --energy 1 --potential 20 --width 0.25 --cells 2",
    "sweep-b": "sweep-b --cells 2 --grid 0.1:1:4",
    "sweep-n": "sweep-n --potential 5 --grid 1:8:4 --format json",
    "limits": "limits",
}


@pytest.mark.parametrize("mode", list(_CONFIG_RUNS))
def test_cli_config_keys_a_command_does_not_declare_are_ignored(mode, tmp_path, capsys):
    # a command reads only its own settings: a known key it has no flag for
    # may hold any text, and the command writes what it writes without it
    undeclared = [key for key in _SETTINGS if key not in _MODES[mode].flags]
    assert undeclared
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{key} = x\n" for key in undeclared))
    out = tmp_path / "rows.out"
    argv = [*_CONFIG_RUNS[mode].split(), "--output", str(out)]

    def run(*extra):
        code = main([*argv, *extra])
        return code, *capsys.readouterr(), out.read_bytes()

    plain = run()
    assert plain[0] == 0
    assert run("--config", str(config)) == plain


# Inputs that must end in a typed error, or, where a flag overrides a bad
# config value, in a row, or, for a point without a finite tau, in its row
# and exit 4: command, config-file text (written to {tmp}/run.cfg) or None,
# exit code, stdout and stderr, where {tmp} stands for the test's own folder.
_BAD_INPUTS = {
    "point-no-energy": (
        "point --potential 1 --width 1 --cells 1", None,
        2, "",
        "error: InvalidInput: point requires --energy\n",
    ),
    "point-two-potentials": (
        "point --energy 1 --potential 1 --potential 2 --width 1 --cells 1", None,
        2, "",
        "error: InvalidInput: point mode requires exactly one potential strength\n",
    ),
    "negative-cells": (
        "point --energy 1 --potential 1 --width 1 --cells -1", None,
        2, "",
        "error: InvalidInput: n_cells must be >= 0\n",
    ),
    "negative-cells-without-geometry": (
        "point --energy 5e-324 --potential 1 --width 1 --cells -1", None,
        2, "",
        "error: InvalidInput: n_cells must be >= 0\n",
    ),
    "sweep-b-negative-cells-without-geometry": (
        "sweep-b --energy 5e-324 --potential 1 --cells -1 --grid 1:2:2", None,
        2, "",
        "error: InvalidInput: n_cells must be >= 0\n",
    ),
    "point-two-cell-counts": (
        "point --energy 1 --potential 1 --width 1 --cells 1 --cells 2", None,
        2, "",
        "error: InvalidInput: point mode requires exactly one repetition count\n",
    ),
    "config-energy-abc": (
        "point --config {tmp}/run.cfg --potential 0 --width 1 --cells 3", "energy = abc\n",
        2, "",
        "error: InvalidInput: could not convert string to float: 'abc'\n",
    ),
    "config-energy-abc-overridden": (
        "point --config {tmp}/run.cfg --energy 1 --potential 0 --width 1 --cells 3",
        "energy = abc\n",
        0,
        "E = 1  V = 0  N = 3  b = 1  L = 6\ntau   = 3.0  [analytic]\n|t|   = 1.0\n"
        "theta = 0.0\nflags = (none)\n"
        "E,V,N,b,L,tau,tau_method,t_abs,theta,flags\n1,0,3,1,6,3,analytic,1,0,\n",
        "",
    ),
    "config-unknown-key": (
        "sweep-b --config {tmp}/run.cfg", "wavelength = 3\n",
        2, "",
        "error: InvalidInput: {tmp}/run.cfg:1: unknown config key 'wavelength'\n",
    ),
    "config-format-xml": (
        "sweep-b --config {tmp}/run.cfg", "format = xml\n",
        2, "",
        "error: InvalidInput: format must be csv or json, got 'xml'\n",
    ),
    "config-empty-potential": (
        "sweep-b --config {tmp}/run.cfg", "potential =\n",
        2, "",
        "error: InvalidInput: sweep-b requires at least one potential strength\n",
    ),
    "config-empty-grid": (
        "sweep-b --config {tmp}/run.cfg", "grid =\n",
        2, "",
        "error: InvalidInput: sweep-b requires a width grid\n",
    ),
    "sweep-n-config-empty-grid": (
        "sweep-n --config {tmp}/run.cfg", "grid =\n",
        2, "",
        "error: InvalidInput: sweep-n requires a repetition grid\n",
    ),
    "sweep-n-grid-without-counts": (
        "sweep-n --grid 0.1:0.4:3 --format json", None,
        2, "",
        "error: InvalidInput: sweep-n grid holds no repetition count N >= 1\n",
    ),
    "sweep-n-config-empty-potential": (
        "sweep-n --config {tmp}/run.cfg", "potential =\n",
        2, "",
        "error: InvalidInput: sweep-n requires at least one potential strength\n",
    ),
    "config-line-without-equals": (
        "sweep-b --config {tmp}/run.cfg", "energy 1\n",
        2, "",
        "error: InvalidInput: {tmp}/run.cfg:1: expected key = value, got 'energy 1\\n'\n",
    ),
    "config-missing-file": (
        "sweep-b --config {tmp}/missing.cfg", None,
        2, "",
        "error: InvalidInput: [Errno 2] No such file or directory: '{tmp}/missing.cfg'\n",
    ),
    "grid-two-parts": (
        "sweep-b --grid 1:2", None,
        2, "",
        "error: InvalidInput: grid must be start:stop:count[:log], got '1:2'\n",
    ),
    "grid-lin-spacing": (
        "sweep-b --grid 1:2:3:lin", None,
        2, "",
        "error: InvalidInput: unknown grid spacing 'lin' (expected 'log')\n",
    ),
    "grid-log-from-zero": (
        "sweep-n --grid 0:2:3:log", None,
        2, "",
        "error: InvalidInput: log grid requires positive endpoints\n",
    ),
    "grid-log-ratio-out-of-range": (
        "sweep-n --grid 5e-324:1:2:log", None,
        2, "",
        "error: InvalidInput: log grid requires stop/start in double range\n",
    ),
    "grid-zero-count": (
        "sweep-n --grid 1:2:0", None,
        2, "",
        "error: InvalidInput: grid count must be >= 1\n",
    ),
    "sweep-n-negative-span": (
        "sweep-n --span -1", None,
        2, "",
        "error: InvalidInput: sweep-n requires a positive span\n",
    ),
    "limits-bad-config": (
        "limits --config {tmp}/run.cfg", "foo = 1\n",
        2, "",
        "error: InvalidInput: {tmp}/run.cfg:1: unknown config key 'foo'\n",
    ),
    "limits-energy-flag": (
        "limits --energy 1", None,
        2, "",
        "usage: pttunnel [-h] {point,sweep-b,sweep-n,limits} ...\n"
        "pttunnel: error: unrecognized arguments: --energy 1\n",
    ),
    "unwritable-output": (
        "sweep-b --cells 1 --grid 1:2:2 --output {tmp}/missing/rows.csv", None,
        2, "",
        "error: InvalidInput: [Errno 2] No such file or directory: '{tmp}/missing/rows.csv'\n",
    ),
    "output-is-a-directory": (
        "sweep-b --cells 1 --grid 1:2:2 --output {tmp}", None,
        2, "",
        "error: InvalidInput: [Errno 21] Is a directory: '{tmp}'\n",
    ),
    "point-energy-text": (
        "point --energy x --potential 0 --width 1 --cells 1", None,
        2, "",
        "usage: pttunnel point [-h] [--energy ENERGY] [--potential POTENTIAL]\n"
        "                      [--cells CELLS] [--output OUTPUT] [--format {csv,json}]\n"
        "                      [--config CONFIG] [--width WIDTH]\n"
        "pttunnel point: error: argument --energy: invalid float value: 'x'\n",
    ),
    "point-infinite-tau": (
        "point --energy 1e-6 --potential 1e4 --width 4.935605332928882 --cells 3", None,
        4,
        "E = 1e-06  V = 10000  N = 3  b = 4.93561  L = 29.6136\ntau   = inf  [analytic]\n"
        "|t|   = 0.0\ntheta = -1.6003958166568464\nflags = Overflow\n"
        "E,V,N,b,L,tau,tau_method,t_abs,theta,flags\n9.9999999999999995e-07,10000,3,"
        "4.9356053329288816,29.61363199757329,inf,analytic,0,-1.6003958166568464,Overflow\n",
        "error: Overflow: no finite tunneling time at this point\n",
    ),
    "point-nan-tau-on-a-band-edge": (
        "point --energy 5.5205975777660905e+280 --potential 2.091927076106252e+225"
        " --width 1.3370782596999076e-140 --cells 3", None,
        4,
        "E = 5.5206e+280  V = 2.09193e+225  N = 3  b = 1.33708e-140  L = 8.02247e-140\n"
        "tau   = nan  [analytic]\n|t|   = 1.0\ntheta = 2.6645352591003757e-15\n"
        "flags = XiAtUnity;Overflow\nE,V,N,b,L,tau,tau_method,t_abs,theta,flags\n"
        "5.5205975777660905e+280,2.0919270761062521e+225,3,1.3370782596999076e-140,"
        "8.0224695581994458e-140,nan,analytic,1,2.6645352591003757e-15,XiAtUnity;Overflow\n",
        "error: Overflow: no finite tunneling time at this point\n",
    ),
    "point-no-width": (
        "point --energy 1 --potential 0 --cells 1", None,
        2, "",
        "error: InvalidInput: point mode requires a cell width\n",
    ),
    "point-negative-potential": (
        "point --energy 1 --potential -1 --width 1 --cells 1", None,
        2, "",
        "error: InvalidInput: strength must be finite and >= 0, got -1.0\n",
    ),
    "sweep-b-zero-energy": (
        "sweep-b --energy 0", None,
        2, "",
        "error: InvalidEnergy: energy must be positive, got 0.0\n",
    ),
    "sweep-n-linear-grid-overflow": (
        "sweep-n --grid=-1e308:1e308:3", None,
        2, "",
        "error: InvalidInput: linear grid requires stop - start in double range\n",
    ),
    "sweep-b-linear-grid-overflow": (
        "sweep-b --grid=1e308:-1e308:3", None,
        2, "",
        "error: InvalidInput: linear grid requires stop - start in double range\n",
    ),
    "cells-past-the-largest-double": (
        f"point --energy 1 --potential 1 --width 1 --cells {2**1024}", None,
        2, "",
        "error: InvalidInput: n_cells must be at most 1.7976931348623157e+308, the largest double\n",
    ),
    "sweep-n-cells": (
        "sweep-n --cells 5 --potential 0 --grid 1:8:4", None,
        2, "",
        "usage: pttunnel [-h] {point,sweep-b,sweep-n,limits} ...\n"
        "pttunnel: error: unrecognized arguments: --cells 5\n",
    ),
}


@pytest.mark.parametrize("name", list(_BAD_INPUTS))
def test_cli_bad_input_exit_code_and_messages(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at this width
    command, config, code, stdout, stderr = _BAD_INPUTS[name]
    tmp = str(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
    assert main([arg.replace("{tmp}", tmp) for arg in command.split()]) == code
    assert capsys.readouterr() == (stdout.replace("{tmp}", tmp), stderr.replace("{tmp}", tmp))


_USAGE = "usage: pttunnel [-h] {point,sweep-b,sweep-n,limits} ...\n"
_HELP = _USAGE + """
Transmission and stationary-phase tunneling times for layered gain/loss
(+iV/-iV) barrier lattices.

positional arguments:
  {point,sweep-b,sweep-n,limits}
    point               evaluate a single (E, V, b, N) point
    sweep-b             sweep the cell width at fixed repetitions
    sweep-n             sweep repetitions at fixed total span
    limits              run the analytic limit validation report

options:
  -h, --help            show this help message and exit
"""
# the mode choices as an invalid-choice error lists them: older argparse
# releases quote each one, newer ones do not
_MODE_CHOICES = ("'point', 'sweep-b', 'sweep-n', 'limits'", "point, sweep-b, sweep-n, limits")
_INVALID_MODE = _USAGE + "pttunnel: error: argument mode: invalid choice: {value} (choose from {choices})\n"

# The inputs whose first argument names no mode, which only the full parser
# reads: argv, exit code, stdout and stderr.
_FULL_PARSER_INPUTS = {
    "no-arguments": ([], 2, "", _USAGE + "pttunnel: error: the following arguments are required: mode\n"),
    "unknown-mode": (["sweep", "--energy", "1"], 2, "", _INVALID_MODE.replace("{value}", "'sweep'")),
    "top-level-help": (["--help"], 0, _HELP, ""),
    "help-before-the-mode": (["-h", "sweep-b", "--energy", "1"], 0, _HELP, ""),
    # the full parser takes the option's value for the mode
    "option-before-the-mode": (["--energy", "1", "point"], 2, "", _INVALID_MODE.replace("{value}", "'1'")),
}


@pytest.mark.parametrize("name", list(_FULL_PARSER_INPUTS))
def test_cli_full_parser_input_exit_code_and_messages(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at this width
    argv, code, stdout, stderr = _FULL_PARSER_INPUTS[name]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == stdout
    assert err in {stderr.replace("{choices}", choices) for choices in _MODE_CHOICES}


def test_main_without_arguments_reads_sys_argv(capsysbinary, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["pttunnel", *GOLDEN_COMMANDS["sweep-b.csv"]])
    assert main() == 0
    assert capsysbinary.readouterr() == ((GOLDEN / "sweep-b.csv").read_bytes(), b"")
    monkeypatch.setattr(sys, "argv", ["pttunnel", "limits", "--energy", "1"])
    assert main() == 2
    assert capsysbinary.readouterr() == (
        b"", _USAGE.encode() + b"pttunnel: error: unrecognized arguments: --energy 1\n")
    monkeypatch.setattr(sys, "argv", ["pttunnel"])
    assert main() == 2
    assert capsysbinary.readouterr().err.endswith(b"the following arguments are required: mode\n")


def _parse_outcome(parse, argv):
    """The namespace ``parse(argv)`` returns, as a dict, or the exit code with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


# Beyond the inputs above: what one pass over a mode's arguments must read
# as the full parser does.
_DISPATCH_ARGVS = [
    ["sweep-b", "--ener", "2", "--pot", "3"],  # abbreviations
    ["sweep-b", "--energy=2", "--grid=-1:1:3"],
    ["sweep-b", "--", "--energy", "2"],
    ["sweep-b", "--energy", "1", "--", "extra"],
    ["sweep-n", "--energy", "1", "extra", "--bogus", "x"],
    ["sweep-n", "--format", "xml"],
    ["point", "--energy", "abc"],
    ["point", "--cells", "1.5"],
    ["point", "-h"],
    ["limits", "--help", "--energy", "1"],
    ["sweep-b", "sweep-b"],
    ["sweep-b", "--energy"],
    ["point", "--width", "-1"],
]


def test_main_parses_every_command_as_the_full_parser_does(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage and help wrap at this width
    commands = [command.split() for command, *_ in _BAD_INPUTS.values()]
    commands += list(GOLDEN_COMMANDS.values())
    commands += [argv for argv, *_ in _FULL_PARSER_INPUTS.values()] + _DISPATCH_ARGVS
    full = build_parser().parse_args
    for argv in commands:
        assert _parse_outcome(_parse, argv) == _parse_outcome(full, argv), argv


# Every double, nan and the infinities among them; half the draws are positive
# and finite, so that most commands get as far as their rows.
_DOUBLES = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), st.floats())


@st.composite
def _commands(draw):
    """A point, sweep-b or sweep-n command: E, V, b, L and both grids' ends
    over every double, N from -1 to 2**1024 (past the largest double), and
    grids of one to three points.  A value goes as --flag=value, so that
    argparse takes -1e-300 as a value and not as a flag."""
    mode = draw(st.sampled_from(("point", "sweep-b", "sweep-n")))
    argv = [mode, f"--energy={draw(_DOUBLES)!r}", f"--potential={draw(_DOUBLES)!r}"]
    cells = f"--cells={draw(st.integers(-1, 2**1024))}"
    if mode == "point":
        return argv + [f"--width={draw(_DOUBLES)!r}", cells]
    grid = f"--grid={draw(_DOUBLES)!r}:{draw(_DOUBLES)!r}:{draw(st.integers(1, 3))}"
    grid += draw(st.sampled_from(("", ":log")))
    return argv + [grid, cells if mode == "sweep-b" else f"--span={draw(_DOUBLES)!r}"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_commands())
# L/2k underflows to 0, which rel_gap divided by
@example(["sweep-n", "--span=1e-300", "--energy=1e300", "--potential=1", "--grid=1:2:2"])
# tau = inf, flagged Overflow
@example(["point", "--energy=1e-6", "--potential=1e4", "--width=4.935605332928882", "--cells=3"])
# N^2 past double range, which escaped as OverflowError from the int N
@example(["sweep-n", "--grid=1e200:1e200:1", "--span=1"])
@example(["point", "--energy=1", "--potential=1", "--width=1e-200", f"--cells={10**190}"])
# q ~ N/psi in a thin cell, so (q*chi)^2 leaves double range
@example(["point", "--energy=1e-300", "--potential=1", "--width=1e-200", f"--cells={10**221}"])
def test_cli_ends_every_command_in_a_row_or_a_typed_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 4)
    if argv[0] == "point" and code != 2:
        header, line = out.getvalue().splitlines()[-2:]
        row = dict(zip(header.split(","), line.split(",")))
        assert (code == 4) == (not math.isfinite(float(row["tau"])))
        if code == 4:  # the last flag says why
            flag = row["flags"].split(";")[-1]
            assert err.getvalue() == f"error: {flag}: no finite tunneling time at this point\n"


# Every real input as a library caller may pass it: every double (nan, the
# infinities, the subnormals and the largest double among them), the bools,
# and ints from -1 to 10**400, past the largest double, at every magnitude.
_REALS = st.one_of(
    st.floats(),
    st.sampled_from((5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308)),
    st.booleans(),
    st.integers(-1, 10**400),
    st.integers(0, 400).map(lambda digits: 10**digits),
)
_INPUTS = {
    "real": _REALS,
    "N": st.integers(-1, 10**400) | st.integers(0, 400).map(lambda digits: 10**digits),
    "potential": _REALS | st.complex_numbers(),
    "count": st.integers(1, 3),
    "log": st.booleans(),
}


def _sweep_config(energy, strength, start, stop, count, log, **setting):
    return SweepConfig(energy=energy, potentials=(strength,), grid=GridSpec(start, stop, count, log), **setting)


def _at_point(function):
    return lambda energy, strength, width, n_cells: function(Particle(energy), CellSpec(strength, width), n_cells)


# entry point -> (call, the inputs it takes, in order)
_LIBRARY_CALLS = {
    "Particle": (Particle, ("real",)),
    "CellSpec": (CellSpec, ("real", "real")),
    "hartman_coeffs": (lambda e, v: pttunnel.hartman_coeffs(Particle(e), v), ("real", "real")),
    "hartman_limit_time": (lambda e, v: hartman_limit_time(Particle(e), v), ("real", "real")),
    "n_infinity_bracket": (lambda e, v, span: pttunnel.n_infinity_bracket(Particle(e), v, span),
                           ("real", "real", "real")),
    "free_propagation_time": (lambda e, span: free_propagation_time(Particle(e), span), ("real", "real")),
    "square_barrier_time": (lambda e, v, span: pttunnel.square_barrier_time(Particle(e), v, span),
                            ("real", "real", "real")),
    "barrier_matrix": (lambda e, potential, b: pttunnel.barrier_matrix(Particle(e), potential, b),
                       ("real", "potential", "real")),
    "GridSpec": (GridSpec, ("real", "real", "count", "log")),
    "run_sweep_b": (lambda e, v, n, *grid: run_sweep_b(_sweep_config(e, v, *grid, cells=(n,))),
                    ("real", "real", "N", "real", "real", "count", "log")),
    "run_sweep_n": (lambda e, v, span, *grid: run_sweep_n(_sweep_config(e, v, *grid, span=span)),
                    ("real", "real", "real", "real", "real", "count", "log")),
    "closed_form": (_at_point(closed_form), ("real", "real", "real", "N")),
    "evaluate_point": (_at_point(evaluate_point), ("real", "real", "real", "N")),
    "transmission_closed": (_at_point(pttunnel.transmission_closed), ("real", "real", "real", "N")),
    "tunneling_time": (_at_point(tunneling_time), ("real", "real", "real", "N")),
    "tunneling_time_fd": (_at_point(pttunnel.tunneling_time_fd), ("real", "real", "real", "N")),
    "lattice_matrix_direct": (_at_point(lattice_matrix_direct), ("real", "real", "real", "N")),
    "lattice_oracle": (_at_point(pttunnel.lattice_oracle), ("real", "real", "real", "N")),
}


@st.composite
def _library_calls(draw):
    name = draw(st.sampled_from(sorted(_LIBRARY_CALLS)))
    return name, tuple(draw(_INPUTS[kind]) for kind in _LIBRARY_CALLS[name][1])


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_library_calls())
# an int past the largest double, which math.isfinite could not convert
@example(("CellSpec", (10**400, 1.0)))
@example(("barrier_matrix", (1.0, 10**400, 1.0)))
# an int V whose exact square passes the largest double
@example(("hartman_coeffs", (1.0, 10**200)))
@example(("square_barrier_time", (1.0, 10**200, 1.0)))
# 4*k*rho^3 underflows to 0, which the bracket divided by
@example(("n_infinity_bracket", (1e-300, 1.5536935964664274e-122, 1.0)))
# the last value of the log grid rounds past the largest double, which no N can be
@example(("run_sweep_n", (1.0, 1.0, 1.0, 3, 1.7976931348623157e308, 3, True)))
# |kc|*k**2 underflows to 0, which dmu/dk = U/(kc k**2) must not divide by
@example(("lattice_oracle", (1e-220, 0.0, 1.0, 1)))
def test_library_ends_every_call_in_a_value_or_a_typed_error(call):
    # a bare OverflowError or ZeroDivisionError, or any other exception, fails
    name, args = call
    with contextlib.suppress(pttunnel.PtTunnelError, ValueError):
        _LIBRARY_CALLS[name][0](*args)


# Two values for every flag a subcommand may have; --config is checked above.
_FLAG_VALUES = {
    "--energy": ("1", "2"),
    "--potential": ("20", "5"),
    "--cells": ("2", "3"),
    "--width": ("0.25", "0.5"),
    "--span": ("1", "2"),
    "--grid": ("1:8:4", "1:8:3"),
    "--output": ("a.out", "b.out"),
    "--format": ("csv", "json"),
}


def _subcommand_flags():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        mode: [
            option
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help", "--config")
        ]
        for mode, sub in subparsers.choices.items()
    }


@pytest.mark.parametrize(
    "mode, flag",
    [(mode, flag) for mode, flags in _subcommand_flags().items() for flag in flags],
)
def test_cli_every_flag_changes_what_the_command_writes(mode, flag, tmp_path, capsys, monkeypatch):
    # a subcommand that accepts a flag must read it: changing its value
    # changes the exit status or the bytes written to stdout, stderr or a file
    monkeypatch.chdir(tmp_path)
    flags = _subcommand_flags()[mode]

    def run(changed):
        argv = [mode]
        for option in flags:
            argv += [option, _FLAG_VALUES[option][option == changed]]
        code = main(argv)
        files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        for path in tmp_path.iterdir():
            path.unlink()
        return code, *capsys.readouterr(), files

    assert run(flag) != run(None)


def test_cli_defaults_reproduce_figures(tmp_path):
    # sweep-b defaults: E=1, V=20, N in {1..4}, 100 widths
    out = tmp_path / "fig_b.csv"
    assert main(["sweep-b", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4 * 100
    # sweep-n defaults: E=1, V in {5,10,20}, N log grid to 4096
    out_n = tmp_path / "fig_n.csv"
    assert main(["sweep-n", "--output", str(out_n)]) == 0
    rows = out_n.read_text().splitlines()
    assert len(rows) == 1 + 3 * 13
    last = rows[-1].split(",")
    assert int(last[2]) == 4096
    assert float(last[7]) < 1e-3  # rel_gap column: converged at the last point
