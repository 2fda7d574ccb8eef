"""Byte-for-byte guard on the command outputs: the defaults, plus one sweep
that reaches the log-domain and hartman-limit rows the defaults never do.

The files under ``tests/golden/`` are the stdout of each command below.  A
change that alters any of them alters what users get, so it must come with
regenerated files and a stated reason.
"""

import pathlib

import pytest

from pttunnel.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

COMMANDS = {
    "sweep-b.csv": ["sweep-b"],
    "sweep-n.csv": ["sweep-n"],
    "sweep-n.json": ["sweep-n", "--format", "json"],
    "point.txt": ["point", "--energy", "1", "--potential", "20", "--width", "0.25", "--cells", "2"],
    "limits.json": ["limits"],
    # Reaches what the defaults never do: log-domain |t| (Overflow) rows and
    # hartman-limit handoff rows, beside a V = 0 control.
    "sweep-b-handoff.csv": [
        "sweep-b", "--energy", "1", "--potential", "20", "--potential", "0",
        "--cells", "3", "--cells", "12", "--grid", "1e-3:300:40:log",
    ],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_default_output_is_byte_identical(name, capsysbinary):
    assert main(COMMANDS[name]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()
