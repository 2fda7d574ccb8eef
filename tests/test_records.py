"""The public records are NamedTuples: immutable, equal by value, and checked
on every way of building them; importing the CLI loads no ``dataclasses``."""

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
    GridSpec,
    HartmanCoeffs,
    InvalidEnergyError,
    LimitsReport,
    Particle,
    SweepConfig,
    SweepRow,
    TransferMatrix,
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
