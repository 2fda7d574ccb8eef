"""Seeded inputs of the three benchmark workloads.

Only the standard library is used here, so a fresh interpreter that builds
the inputs pays for nothing but itself and ``import pttunnel``.  Every input
is a function of the workload name and ``--seed``; the package receives the
generated values and nothing else.
"""

from __future__ import annotations

import cmath
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("sweep-b-wide", "sweep-n-thin", "oracle-limits")

# sweep-b-wide: N = 1..25 over a log width grid reaching the hartman-limit
# handoff (beta > 350) at the thick end.  One potential from each band puts
# rows on every closed-form path for every seed; V = 0 is the free control.
# One command per (V, N) keeps each timed request to a few milliseconds
# (README.md, Steadiness).
SWEEP_B_CELLS = tuple(range(1, 26))
SWEEP_B_POINTS = 40
SWEEP_B_BANDS = ((1.0, 4.0), (4.0, 16.0), (16.0, 64.0), (64.0, 128.0))

# sweep-n-thin: thin cells at fixed span, in two parts.
# - Seeded commands: N log-spaced up to 500 at kL in [0.75, 2.4], so
#   |xi^2 - 1| ~ (kL/N)^2 reaches 1e-6 and the cancellation-free offsets
#   xi -+ 1 carry the time.  Over seeds 1..200 the worst offset miss was
#   1.5e-2 of its tolerance (README), so these rows pass whatever the seed.
# - One fixed command, the same for every seed, with as many rows as a
#   seeded one: the thin-cell rows of the band-edge fault (CHANGES.md,
#   FOUND).  N runs up to 1e6, past the switch to the band-edge branch
#   (|xi^2 - 1| < 1e-10, N > kL * 1e5).  Its rows fail on today's code;
#   their inputs do not depend on the seed, so the failed share does not
#   either.  Between N ~ 1e3 and the switch the same loss hits a row or not
#   according to E and V, so seeded rows stay below that range.
SWEEP_N_GRID = "1:500:12:log"
SWEEP_N_KL = (0.75, 2.4)
SWEEP_N_COMMANDS = 3
SWEEP_N_POTENTIALS = 3
SWEEP_N_FAULT = ("1.0", "1.0", ("0.5", "2.0", "5.0"), "30000:1000000:12:log")  # E, L, V, grid

# oracle-limits: lattices up to a few hundred cells whose direct product
# stays far inside double range (beta*N <= 150).  The cell counts are fixed,
# so every seed multiplies the same number of barrier matrices per round.
ORACLE_CELLS = tuple(round(300 ** (i / 23)) for i in range(24))


@dataclass(frozen=True)
class Lattice:
    energy: float
    strength: float
    width: float
    n_cells: int


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def half_trace(energy: float, strength: float, width: float) -> tuple[float, float]:
    """(xi, beta) of one +iV/-iV cell from its real-space slab matrices.

    xi is half the trace of the cell's (psi, psi') matrix, which is real for
    this cell; beta = b * Im sqrt(E + iV) is the growth exponent per slab.
    """
    m = (1.0, 0.0, 0.0, 1.0)
    for u in (1j * strength, -1j * strength):
        kappa = cmath.sqrt(energy - u)
        c = cmath.cos(kappa * width)
        s = cmath.sin(kappa * width)
        a = (c, s / kappa, -kappa * s, c)
        m = (
            a[0] * m[0] + a[1] * m[2],
            a[0] * m[1] + a[1] * m[3],
            a[2] * m[0] + a[3] * m[2],
            a[2] * m[1] + a[3] * m[3],
        )
    beta = width * abs(cmath.sqrt(energy + 1j * strength).imag)
    return ((m[0] + m[3]) / 2).real, beta


def _regular(rng: random.Random, n_cells: int) -> Lattice:
    """An N-cell lattice away from band edges, roots of T_N and double overflow.

    On those sets the analytic time is singular or switches path by design,
    so they are not the regular points these workloads time.
    """
    while True:
        energy = rng.uniform(0.1, 50.0)
        strength = rng.uniform(0.0, 100.0)
        width = _log_uniform(rng, 1e-3, 3.0)
        xi, beta = half_trace(energy, strength, width)
        if beta * n_cells > 150.0:
            continue
        if abs((xi - 1.0) * (xi + 1.0)) < 1e-6:
            continue
        if abs(xi) < 1.0 and abs(math.cos(n_cells * math.acos(xi))) < 1e-2:
            continue
        return Lattice(energy, strength, width, n_cells)


def _num(x: float) -> str:
    return repr(float(x))


def sweep_b_commands(seed: int, out_dir: str) -> list[list[str]]:
    """One `sweep-b` command line per potential and cell count, each writing its own CSV."""
    rng = _rng("sweep-b-wide", seed)
    energy = rng.uniform(0.5, 2.0)
    start = 1e-3 * rng.uniform(0.8, 1.25)
    stop = 2e2 * rng.uniform(0.8, 1.25)
    grid = f"{_num(start)}:{_num(stop)}:{SWEEP_B_POINTS}:log"
    potentials = [_log_uniform(rng, lo, hi) for lo, hi in SWEEP_B_BANDS] + [0.0]
    return [
        ["sweep-b", "--energy", _num(energy), "--potential", _num(v), "--cells", str(n),
         "--grid", grid, "--format", "csv",
         "--output", os.path.join(out_dir, f"sweep-b-{i}-{n}.csv")]
        for i, v in enumerate(potentials)
        for n in SWEEP_B_CELLS
    ]


def sweep_n_commands(seed: int, out_dir: str) -> list[list[str]]:
    """Seeded `sweep-n` command lines plus the fixed fault command, each writing JSON."""
    rng = _rng("sweep-n-thin", seed)
    spec = []
    for _ in range(SWEEP_N_COMMANDS):
        energy = _log_uniform(rng, 0.25, 4.0)
        span = rng.uniform(*SWEEP_N_KL) / math.sqrt(energy)
        potentials = [_num(_log_uniform(rng, 0.5, 40.0)) for _ in range(SWEEP_N_POTENTIALS)]
        spec.append((_num(energy), _num(span), potentials, SWEEP_N_GRID))
    spec.append(SWEEP_N_FAULT)
    return [
        ["sweep-n", "--energy", energy, "--span", span,
         *[arg for v in potentials for arg in ("--potential", v)],
         "--grid", grid, "--format", "json",
         "--output", os.path.join(out_dir, f"sweep-n-{i}.json")]
        for i, (energy, span, potentials, grid) in enumerate(spec)
    ]


def oracle_lattices(seed: int) -> list[Lattice]:
    rng = _rng("oracle-limits", seed)
    return [_regular(rng, n) for n in ORACLE_CELLS]


def build_inputs(workload: str, seed: int, out_dir: str):
    if workload == "sweep-b-wide":
        return sweep_b_commands(seed, out_dir)
    if workload == "sweep-n-thin":
        return sweep_n_commands(seed, out_dir)
    if workload == "oracle-limits":
        return oracle_lattices(seed)
    raise ValueError(f"unknown workload {workload!r}")
