import json
import math
import os
import subprocess
import sys

import pytest

import pttunnel

from conftest import bisect_width_for_xi
from pttunnel import (
    CellSpec,
    GridSpec,
    OverflowGuardError,
    Particle,
    SweepConfig,
    SweepRow,
    closed_form,
    evaluate_point,
    free_propagation_time,
    hartman_limit_time,
    run_limits,
    run_point,
    run_sweep_b,
    run_sweep_n,
    tunneling_time,
)
from pttunnel import sweep as sweep_mod
from pttunnel.cli import build_parser, main
from pttunnel.sweep import (
    POINT_COLUMNS,
    SWEEP_B_COLUMNS,
    SWEEP_N_COLUMNS,
    rows_to_csv,
    rows_to_json,
    write_text,
)
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
    config = SweepConfig(
        mode="point", energy=1.0, potentials=(20.0,), cells=(2,), width=0.25
    )
    row = run_point(config)
    assert row.tau == pytest.approx(
        tunneling_time(Particle(1.0), CellSpec(20.0, 0.25), 2), rel=1e-14
    )


def test_point_row_spectral_singularity_flagged(monkeypatch):
    # a true lasing point needs two parameters tuned at once, so the row
    # plumbing is exercised by injection
    from pttunnel.errors import SpectralSingularityError
    from pttunnel.timing import ClosedForm

    def singular(geometry, width, n_cells):
        nan = float("nan")
        return ClosedForm(nan, nan, None, SpectralSingularityError(0.0), 0.5)

    monkeypatch.setattr(sweep_mod, "_closed_form", singular)
    row = evaluate_point(Particle(1.0), CellSpec(20.0, 0.25), 2)
    assert row.tau_method == "analytic"
    assert row.flags == ("SpectralSingularity",)
    assert math.isnan(row.tau)
    assert row.t_abs == math.inf  # transmission diverges at a lasing point


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
        mode="sweep-b",
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
        mode="sweep-n",
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
        mode="sweep-n",
        energy=1.0,
        potentials=(0.0,),
        span=1.0,
        grid=GridSpec(1, 256, 9, log=True),
    )
    for row in run_sweep_n(config):
        assert row.rel_gap < 1e-12


def _same(a, b):
    return a == b or (a != a and b != b)  # nan equals nan here


# One sweep-b and two sweep-n runs whose rows take every path of
# evaluate_point: V = 0, in band and out of band, log-domain |t|, the
# XiAtUnity band edge and the hartman-limit handoff.
_PATH_CONFIGS = (
    _sweep_b_config(
        energy=1.0, potentials=(20.0, 0.0, 3.0), cells=(3, 12),
        grid=GridSpec(1e-3, 300.0, 40, log=True),
    ),
    SweepConfig(
        mode="sweep-n", energy=1.0, potentials=(0.0, 0.5, 5.0), span=1.0,
        grid=GridSpec(1, 1e6, 25, log=True),
    ),
    SweepConfig(
        mode="sweep-n", energy=1.0, potentials=(20.0,), span=3000.0,
        grid=GridSpec(1, 64, 7, log=True),
    ),
    # kL = 1e-6: N^2 |xi^2 - 1| ~ (kL)^2 puts every row on the band-edge branch
    SweepConfig(
        mode="sweep-n", energy=1.0, potentials=(5.0,), span=1e-6,
        grid=GridSpec(1, 4096, 13, log=True),
    ),
)


def test_sweep_rows_equal_point_rows():
    # the sweeps compute the (E, V) work once; every row must still be the
    # row evaluate_point gives at its own point, plus the reference columns
    paths = set()
    for config in _PATH_CONFIGS:
        particle = Particle(config.energy)
        run = run_sweep_b if config.mode == "sweep-b" else run_sweep_n
        rows = run(config)
        assert rows
        for row in rows:
            cell = CellSpec(row.strength, row.width)
            expected = evaluate_point(particle, cell, row.n_cells)
            if config.mode == "sweep-b":
                tau_inf = hartman_limit_time(particle, row.strength) if row.strength else math.nan
                expected = expected._replace(tau_inf=tau_inf)
            else:
                tau_free = free_propagation_time(particle, config.span)
                rel_gap = abs(expected.tau - tau_free) / tau_free
                expected = expected._replace(tau_free=tau_free, rel_gap=rel_gap)
            for field in SweepRow._fields:
                assert _same(getattr(row, field), getattr(expected, field)), (
                    field, row, expected,
                )
            xi = closed_form(particle, cell, row.n_cells).xi
            paths.add(row.tau_method)
            paths.update(row.flags)
            if row.strength == 0.0:
                paths.add("free")
            if row.tau_method == "analytic":
                paths.add("in-band" if abs(xi) < 1.0 else "out-of-band")
                if row.t_abs == 0.0:
                    paths.add("log-domain")
    assert paths >= {
        "free", "in-band", "out-of-band", "log-domain", "XiAtUnity", "hartman-limit",
    }


def test_sweep_validation_errors():
    with pytest.raises(ValueError):
        run_sweep_b(_sweep_b_config(cells=()))
    with pytest.raises(ValueError):
        run_sweep_b(_sweep_b_config(grid=None))
    with pytest.raises(ValueError):
        run_sweep_n(SweepConfig(mode="sweep-n", potentials=(1.0,), grid=GridSpec(1, 8, 4)))


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
            mode="sweep-n", energy=_Float(1.5), potentials=(_Float(3.0),),
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
    empty = run_sweep_n(_PATH_CONFIGS[1]._replace(grid=GridSpec.parse("0.1:0.2:3")))
    assert empty == []
    for sample in (rows, rows[:1], empty):
        assert rows_to_csv(sample, columns) == _reference_csv(sample, columns)
        for mode in ("sweep-b", "sweep-n", "point"):
            assert rows_to_json(sample, columns, mode) == _reference_json(sample, columns, mode)


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
            mode="sweep-n",
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
        with pytest.raises(OverflowGuardError):
            evaluate_point(Particle(energy), CellSpec(strength, 1.0), 1)
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Overflow: the cell's k-derivatives leave double range")


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
    # but every row is a regular analytic one
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
    calls = []

    def counted(particle, strength):
        calls.append(strength)
        return real_hartman_coeffs(particle, strength)

    monkeypatch.setattr(sweep_mod, "hartman_coeffs", counted)
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
    # span 1: no row hands off, so no coefficients
    calls.clear()
    assert main([*argv, "--span", "1", "--output", str(out)]) == 0
    assert calls == []


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
