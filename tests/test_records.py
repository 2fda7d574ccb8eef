"""The public records are NamedTuples: immutable, equal by value, and checked
on every way of building them; importing the CLI loads no ``dataclasses``.
Each cell input rule has one text at every entry point that takes the input."""

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
    hartman_coeffs,
    n_infinity_bracket,
    run_point,
    run_sweep_b,
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
