"""Byte-for-byte guard on the command outputs: the defaults, plus two sweeps
that reach rows the defaults never do (underflowed |t|, hartman-limit
handoff, and a free time L/2k that underflows to 0).

The files under ``tests/golden/`` are the stdout of each command below,
and ``workloads.sha256`` holds the SHA-256 of each file that the seed-1
sweep-b-wide and sweep-n-thin commands of ``ptbench/workloads.py`` write
(``sha256sum -c`` reads it in the directory of those files).
``oracle-points.sha256`` pins the bits of the oracle point, what ptbench's
oracle-limits workload computes per lattice: one SHA-256 per (E, V, b, N)
over the ``repr`` of each result (or of the error raised), for the oracle
lattices of seeds 1-3 and one point per ``ClosedForm.path``, and
``barrier-points.sha256`` those of ``barrier_matrix``: its gain and loss
barriers at offsets 0, 1 and 2N - 1 of the seed-1 oracle lattices and of
the same path points.  A change that alters any of them alters what users
get, so it must come with regenerated files and a stated reason.
Regenerate them all with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/``.
"""

import contextlib
import hashlib
import importlib.util
import io
import pathlib
import sys
import tempfile

import pytest

from conftest import PATH_POINTS
from pttunnel import (CellSpec, Particle, PtTunnelError, barrier_matrix, closed_form,
                      lattice_matrix_direct, lattice_oracle, transmission_from_matrix,
                      tunneling_time_fd)
from pttunnel.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "ptbench" / "workloads.py"

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
    # L/2k = 1e-300 / 2e150 underflows to 0, so rel_gap is nan.
    "sweep-n-underflow.csv": [
        "sweep-n", "--span", "1e-300", "--energy", "1e300", "--potential", "1", "--grid", "1:2:2",
    ],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_default_output_is_byte_identical(name, capsysbinary):
    assert main(COMMANDS[name]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


def _workloads():
    spec = importlib.util.spec_from_file_location("ptbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks its module up there
    spec.loader.exec_module(workloads)
    return workloads


def _workload_digests(out_dir: str) -> str:
    """Run every seed-1 sweep-b-wide and sweep-n-thin command, each writing
    its file into ``out_dir``, and return the files' digests in
    ``sha256sum`` format, in command order."""
    workloads = _workloads()
    commands = workloads.sweep_b_commands(1, out_dir) + workloads.sweep_n_commands(1, out_dir)
    lines = []
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        path = pathlib.Path(argv[argv.index("--output") + 1])
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n")
    return "".join(lines)


def test_workload_outputs_are_byte_identical(tmp_path):
    digests = _workload_digests(str(tmp_path))
    assert digests.count("\n") == 129
    assert digests == (GOLDEN / "workloads.sha256").read_text()


def _result_text(call, *args) -> str:
    """The repr of ``call(*args)``, or of what it raised."""
    try:
        return repr(call(*args))
    except (PtTunnelError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _oracle_results(energy: float, strength: float, width: float, n_cells: int) -> str:
    """The repr of each oracle-point result at one lattice, or of what it raised."""
    particle, cell = Particle(energy), CellSpec(strength, width)
    calls = (closed_form, lattice_matrix_direct, lattice_oracle, tunneling_time_fd,
             lambda *args: transmission_from_matrix(lattice_matrix_direct(*args)))
    return "\n".join(_result_text(call, particle, cell, n_cells) for call in calls)


def _barrier_results(energy: float, strength: float, width: float, n_cells: int) -> str:
    """The repr of the lattice's gain and loss barrier_matrix at offsets 0, 1
    and 2N - 1 (the last loss barrier's), or of what each raised."""
    particle = Particle(energy)
    return "\n".join(_result_text(barrier_matrix, particle, potential, width, offset)
                     for potential in (1j * strength, -1j * strength)
                     for offset in (0, 1, 2 * n_cells - 1))


def _point_digests(results, seeds) -> str:
    """One ``sha256sum``-style line of ``results`` per pinned lattice, labelled by
    its source: the oracle lattices of ``seeds``, then one point per path."""
    workloads = _workloads()
    points = [(f"seed-{seed}-lattice-{j}", (lat.energy, lat.strength, lat.width, lat.n_cells))
              for seed in seeds for j, lat in enumerate(workloads.oracle_lattices(seed))]
    points += [(f"path-{name}", point) for name, point in PATH_POINTS.items() if point is not None]
    return "".join(f"{hashlib.sha256(results(*point).encode()).hexdigest()}  {label}\n"
                   for label, point in points)


def test_oracle_point_bits_are_pinned():
    digests = _point_digests(_oracle_results, (1, 2, 3))
    assert digests.count("\n") == 3 * 24 + 7
    assert digests == (GOLDEN / "oracle-points.sha256").read_text()


def test_barrier_matrix_bits_are_pinned():
    digests = _point_digests(_barrier_results, (1,))
    assert digests.count("\n") == 24 + 7
    assert digests == (GOLDEN / "barrier-points.sha256").read_text()


def _regenerate() -> None:
    """Write each command's stdout to its file under ``tests/golden/``, the
    workload digests to ``workloads.sha256``, the oracle point's to
    ``oracle-points.sha256`` and barrier_matrix's to ``barrier-points.sha256``."""
    for name, argv in COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, name
        (GOLDEN / name).write_bytes(out.getvalue().encode())
    with tempfile.TemporaryDirectory() as out_dir:
        (GOLDEN / "workloads.sha256").write_text(_workload_digests(out_dir))
    (GOLDEN / "oracle-points.sha256").write_text(_point_digests(_oracle_results, (1, 2, 3)))
    (GOLDEN / "barrier-points.sha256").write_text(_point_digests(_barrier_results, (1,)))


if __name__ == "__main__":
    _regenerate()
