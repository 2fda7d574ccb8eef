"""The public records are NamedTuples: immutable, equal by value, and checked
on every way of building them; importing the CLI loads no ``dataclasses``.
Each real input rule, and the rule for N, has one text at every entry point
that takes the input."""

import copy
import math
import os
import pickle
import subprocess
import sys

import pytest

import pttunnel
from pttunnel import (
    CellSpec,
    ClosedForm,
    DegeneratePotentialError,
    GridSpec,
    HartmanCoeffs,
    InvalidEnergyError,
    LimitsReport,
    Particle,
    SweepConfig,
    SweepRow,
    TransferMatrix,
    barrier_matrix,
    closed_form,
    evaluate_point,
    free_propagation_time,
    hartman_coeffs,
    lattice_matrix_direct,
    lattice_oracle,
    n_infinity_bracket,
    run_point,
    run_sweep_b,
    run_sweep_n,
    square_barrier_time,
    transmission_closed,
    tunneling_time,
    tunneling_time_fd,
)
from pttunnel.sweep import LimitCheck

# Every field set, and none nan: a nan is unequal to its own pickled copy.
RECORDS = [
    Particle(1.0),
    CellSpec(20.0, 0.25),
    ClosedForm(0.5, -1.0, 0.5 + 0.5j, None, 0.9, False, "in-band"),
    HartmanCoeffs(0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
    TransferMatrix(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j),
    GridSpec(0.05, 5.0, 100),
    SweepConfig(potentials=(20.0,), grid=GridSpec(0.05, 5.0, 100)),
    SweepRow(1.0, 20.0, 2, 0.25, 1.0, 0.3, "analytic", 0.9, 0.1, (), 0.4, 0.5, 0.6),
    LimitCheck("check", True, 1e-15, 1e-12, "detail"),
    LimitsReport((LimitCheck("check", True, 1e-15, 1e-12, "detail"),)),
]


def test_importing_the_cli_loads_no_dataclasses():
    src = os.path.dirname(os.path.dirname(pttunnel.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pttunnel.cli; print('dataclasses' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_record_is_immutable_and_equal_by_value(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = None
    twin = copy.deepcopy(record)
    assert twin == record and hash(twin) == hash(record) and type(twin) is type(record)
    assert pickle.loads(pickle.dumps(record)) == record
    assert record._replace() == record
    # a NamedTuple also equals the plain tuple of its values
    assert record == tuple(record)
    fields = ", ".join(f"{name}={value!r}" for name, value in record._asdict().items())
    assert repr(record) == f"{type(record).__name__}({fields})"


# (record, field changes that make it invalid, error type, message)
INVALID = [
    (Particle(1.0), {"energy": -1.0}, InvalidEnergyError, "energy must be positive, got -1.0"),
    (Particle(1.0), {"energy": math.inf}, InvalidEnergyError, "energy must be a finite number, got inf"),
    (CellSpec(20.0, 0.25), {"width": 0.0}, ValueError, "width must be finite and > 0, got 0.0"),
    (CellSpec(20.0, 0.25), {"strength": -1.0}, ValueError, "strength must be finite and >= 0, got -1.0"),
    (
        CellSpec(20.0, 0.25),
        {"strength": True},
        ValueError,
        "strength and width must be numbers, got CellSpec(strength=True, width=0.25)",
    ),
    (GridSpec(0.05, 5.0, 100), {"count": 0}, ValueError, "grid count must be >= 1"),
    (GridSpec(0.05, 5.0, 100), {"count": 2.5}, ValueError, "grid count must be an int, got 2.5"),
    (GridSpec(0.05, 5.0, 100), {"count": 3.0}, ValueError, "grid count must be an int, got 3.0"),
    (GridSpec(0.05, 5.0, 100), {"count": True}, ValueError, "grid count must be an int, got True"),
    (GridSpec(0.05, 5.0, 100), {"stop": math.nan}, ValueError, "grid endpoints must be finite"),
    (GridSpec(0.05, 5.0, 100), {"log": True, "start": 0.0}, ValueError, "log grid requires positive endpoints"),
    (GridSpec(0.05, 5.0, 100), {"log": True, "stop": -1.0}, ValueError, "log grid requires positive endpoints"),
    (SweepConfig(), {"format": "xml"}, ValueError, "format must be csv or json, got 'xml'"),
]


@pytest.mark.parametrize("record, changes, error, message", INVALID)
def test_validated_record_rejects_bad_input_on_every_path(record, changes, error, message):
    cls = type(record)
    values = {**record._asdict(), **changes}
    builds = {
        "positional": lambda: cls(*values.values()),
        "keyword": lambda: cls(**values),
        "_make": lambda: cls._make(values.values()),
        "_replace": lambda: record._replace(**changes),
    }
    for path, build in builds.items():
        with pytest.raises(error) as raised:
            build()
        assert str(raised.value) == message, path


# One rule, one text: every entry point that takes V or b raises the
# ValueError of the rule in pttunnel.model that owns the input.  The bad
# value sits in a cell of V = 20.0 and b = 0.25.
_V_TEXT = "strength must be finite and >= 0, got {!r}"
_B_TEXT = "width must be finite and > 0, got {!r}"
_BOOL_TEXT = "strength and width must be numbers, got CellSpec(strength={!r}, width={!r})"
_BAD_V = (math.nan, math.inf, -1.0, True)
_BAD_B = (0.0, -1.0, math.nan, math.inf, True)


def _sweep_b(strength, width):
    return run_sweep_b(SweepConfig(potentials=(strength,), cells=(1,), grid=GridSpec(width, width, 1)))


def _point(strength, width):
    return run_point(SweepConfig(potentials=(strength,), cells=(1,), width=width))


# entry point -> call at (V, b); the cell entry points take both, and a bool
# in either gets CellSpec's text that names both
_CELL_ENTRIES = {
    "CellSpec": CellSpec,
    "run_sweep_b": _sweep_b,
    "run_point": _point,
}
_V_ENTRIES = {
    **_CELL_ENTRIES,
    "hartman_coeffs": lambda strength, width: hartman_coeffs(Particle(1.0), strength),
    "n_infinity_bracket": lambda strength, width: n_infinity_bracket(Particle(1.0), strength, 1.0),
}
_B_ENTRIES = {
    **_CELL_ENTRIES,
    "barrier_matrix": lambda strength, width: barrier_matrix(Particle(1.0), 1j, width),
}
# GridSpec rejects a nan or inf endpoint before run_sweep_b sees a width
_RULE_CASES = [
    *(("V", entry, value) for entry in _V_ENTRIES for value in _BAD_V),
    *(("b", entry, value) for entry in _B_ENTRIES for value in _BAD_B
      if entry != "run_sweep_b" or math.isfinite(value)),
]


@pytest.mark.parametrize("kind, entry, value", _RULE_CASES,
                         ids=[f"{entry}-{kind}={value!r}" for kind, entry, value in _RULE_CASES])
def test_each_input_rule_raises_one_text_everywhere(kind, entry, value):
    strength, width = (value, 0.25) if kind == "V" else (20.0, value)
    error, message = ValueError, (_V_TEXT if kind == "V" else _B_TEXT).format(value)
    if isinstance(value, bool) and entry in _CELL_ENTRIES:
        message = _BOOL_TEXT.format(strength, width)
    elif entry == "hartman_coeffs" and value < 0.0:  # its own V > 0 rule comes first
        error, message = DegeneratePotentialError, "thick-barrier expansion requires strength > 0"
    with pytest.raises(ValueError) as raised:
        (_V_ENTRIES if kind == "V" else _B_ENTRIES)[entry](strength, width)
    assert (type(raised.value), str(raised.value)) == (error, message)


# One rule for every real input: each bad value, at each entry point that
# takes it, raises the type and text of the rule that owns the input.  The
# rules compare rather than convert, so an int past the largest double gets
# the same text as inf, not an OverflowError.
_BAD_REALS = {"nan": math.nan, "inf": math.inf, "-1.0": -1.0, "True": True, "10**400": 10**400}
_SPAN_TEXT = "span must be finite and >= 0, got {!r}"


def _sweep_n(span):
    return run_sweep_n(SweepConfig(potentials=(20.0,), span=span, grid=GridSpec(1.0, 4.0, 4)))


# (entry point, input) -> (call at the value, the owning rule's type and text)
_REAL_ENTRIES = {
    ("Particle", "E"): (Particle, InvalidEnergyError, "energy must be a finite number, got {!r}"),
    ("CellSpec", "V"): (lambda value: CellSpec(value, 0.25), ValueError, _V_TEXT),
    ("CellSpec", "b"): (lambda value: CellSpec(20.0, value), ValueError, _B_TEXT),
    ("hartman_coeffs", "V"): (lambda value: hartman_coeffs(Particle(1.0), value), ValueError, _V_TEXT),
    ("n_infinity_bracket", "V"): (lambda value: n_infinity_bracket(Particle(1.0), value, 1.0), ValueError,
                                  _V_TEXT),
    ("n_infinity_bracket", "L"): (lambda value: n_infinity_bracket(Particle(1.0), 20.0, value), ValueError,
                                  "span must be finite and > 0, got {!r}"),
    ("free_propagation_time", "L"): (lambda value: free_propagation_time(Particle(1.0), value), ValueError,
                                     _SPAN_TEXT),
    ("square_barrier_time", "V"): (lambda value: square_barrier_time(Particle(0.5), value, 1.0), ValueError,
                                   "barrier_height must be finite and > 0, got {!r}"),
    ("square_barrier_time", "L"): (lambda value: square_barrier_time(Particle(1.0), 20.0, value), ValueError,
                                   _SPAN_TEXT),
    ("barrier_matrix", "b"): (lambda value: barrier_matrix(Particle(2.0), 1j, value), ValueError, _B_TEXT),
    ("barrier_matrix", "potential"): (lambda value: barrier_matrix(Particle(2.0), value, 1.0), ValueError,
                                      "potential must be finite, got {!r}"),
    ("GridSpec", "start"): (lambda value: GridSpec(value, 5.0, 3), ValueError, "grid endpoints must be finite"),
    ("run_sweep_b", "V"): (lambda value: _sweep_b(value, 0.25), ValueError, _V_TEXT),
    ("run_sweep_b", "b"): (lambda value: _sweep_b(20.0, value), ValueError, _B_TEXT),
    ("run_sweep_n", "L"): (_sweep_n, ValueError, _SPAN_TEXT),
}
# (entry point, input, value) -> the type and text of a rule that comes
# first, or None where the value is a valid input there: a potential and a
# linear grid's start may be any finite number.
_FIRST_RULES = {
    ("Particle", "E", "-1.0"): (InvalidEnergyError, "energy must be positive, got -1.0"),
    ("CellSpec", "V", "True"): (ValueError, _BOOL_TEXT.format(True, 0.25)),
    ("CellSpec", "b", "True"): (ValueError, _BOOL_TEXT.format(20.0, True)),
    ("hartman_coeffs", "V", "-1.0"): (DegeneratePotentialError, "thick-barrier expansion requires strength > 0"),
    ("square_barrier_time", "V", "-1.0"): (ValueError, "square_barrier_time requires barrier_height > energy"),
    ("barrier_matrix", "potential", "-1.0"): None,
    ("barrier_matrix", "potential", "True"): None,
    ("GridSpec", "start", "-1.0"): None,
    ("GridSpec", "start", "True"): None,
    ("run_sweep_b", "V", "True"): (ValueError, _BOOL_TEXT.format(True, 0.25)),
    ("run_sweep_b", "b", "True"): (ValueError, _BOOL_TEXT.format(20.0, True)),
    # GridSpec checks the width grid's endpoints before run_sweep_b sees a width
    **{("run_sweep_b", "b", name): (ValueError, "grid endpoints must be finite")
       for name in ("nan", "inf", "10**400")},
    ("run_sweep_n", "L", "-1.0"): (ValueError, "sweep-n requires a positive span"),
}
_REAL_CASES = [(*entry, name) for entry in _REAL_ENTRIES for name in _BAD_REALS]


@pytest.mark.parametrize("entry, kind, name", _REAL_CASES,
                         ids=[f"{entry}-{kind}={name}" for entry, kind, name in _REAL_CASES])
def test_every_real_input_rule_raises_one_text_everywhere(entry, kind, name):
    call, error, text = _REAL_ENTRIES[entry, kind]
    value = _BAD_REALS[name]
    expected = _FIRST_RULES.get((entry, kind, name), (error, text.format(value)))
    if expected is None:
        call(value)
        return
    with pytest.raises(Exception) as raised:
        call(value)
    assert (type(raised.value), str(raised.value)) == expected


# One rule for N: it is an int, not a bool, in [0, the largest double], and
# each bad count, at each entry point that takes N, raises the rule's one
# ValueError text before a cell geometry or a barrier is built: in a lattice
# of E = 1.0, V = 5.0 and b = 0.1, and in one at E = 1e-300, V = 1e10 and
# b = 1.0, whose cell geometry leaves double range (an OverflowGuardError at
# a valid N).
_BAD_N = {"-1": -1, "2.0": 2.0, "2.5": 2.5, "True": True, "10**400": 10**400}
_N_TEXTS = {
    "-1": "n_cells must be >= 0",
    "10**400": "n_cells must be at most 1.7976931348623157e+308, the largest double",
}
_N_POINTS = {"": (1.0, 5.0, 0.1), "no-geometry-": (1e-300, 1e10, 1.0)}
_N_ENTRIES = {
    **{entry.__name__: lambda energy, strength, width, n_cells, entry=entry:
       entry(Particle(energy), CellSpec(strength, width), n_cells)
       for entry in (closed_form, transmission_closed, tunneling_time, tunneling_time_fd,
                     evaluate_point, lattice_matrix_direct, lattice_oracle)},
    "run_point": lambda energy, strength, width, n_cells: run_point(
        SweepConfig(energy, (strength,), (n_cells,), width)),
    "run_sweep_b": lambda energy, strength, width, n_cells: run_sweep_b(
        SweepConfig(energy, (strength,), (n_cells,), grid=GridSpec(width, 2.0 * width, 2))),
}
_N_CASES = [(entry, point, name) for point in _N_POINTS for entry in _N_ENTRIES for name in _BAD_N]


@pytest.mark.parametrize("entry, point, name", _N_CASES,
                         ids=[f"{entry}-{point}N={name}" for entry, point, name in _N_CASES])
def test_the_n_rule_raises_one_text_everywhere(entry, point, name):
    value = _BAD_N[name]
    with pytest.raises(Exception) as raised:
        _N_ENTRIES[entry](*_N_POINTS[point], value)
    text = _N_TEXTS.get(name, f"n_cells must be an int, got {value!r}")
    assert (type(raised.value), str(raised.value)) == (ValueError, text)
