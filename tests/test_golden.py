"""Byte-for-byte guard on the command outputs: the defaults, plus one sweep
that reaches the underflow and hartman-limit rows the defaults never do.

The files under ``tests/golden/`` are the stdout of each command below.  A
change that alters any of them alters what users get, so it must come with
regenerated files and a stated reason.  Regenerate them all with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/``.
"""

import contextlib
import io
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
    # Reaches what the defaults never do: underflowed |t| (Overflow) rows and
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


def _regenerate() -> None:
    """Write each command's stdout to its file under ``tests/golden/``."""
    for name, argv in COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, name
        (GOLDEN / name).write_bytes(out.getvalue().encode())


if __name__ == "__main__":
    _regenerate()
