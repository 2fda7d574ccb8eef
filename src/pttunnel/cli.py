"""Command-line interface.

Subcommands: `point` (single parameter point), `sweep-b` (width sweep),
`sweep-n` (repetition sweep at fixed span), `limits` (validation report).
Flags override values from an optional flat key=value config file.

Exit codes: 0 success, 2 invalid input, 3 limit-check failure, 4 numeric
failure on a point query.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Sequence

from .errors import PtTunnelError
from .sweep import (
    GridSpec,
    SweepConfig,
    SweepRow,
    columns_for_mode,
    rows_to_csv,
    rows_to_json,
    run_limits,
    run_point,
    run_sweep_b,
    run_sweep_n,
    write_text,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_LIMIT_FAILURE = 3
EXIT_NUMERIC_FAILURE = 4

# Figure-reproduction defaults, overridable from flags or config file.
_SWEEP_B_DEFAULTS = {
    "energy": 1.0,
    "potentials": (20.0,),
    "cells": (1, 2, 3, 4),
    "grid": "0.05:5:100",
}
_SWEEP_N_DEFAULTS = {
    "energy": 1.0,
    "potentials": (5.0, 10.0, 20.0),
    "span": 1.0,
    "grid": "1:4096:13:log",
}

_CONFIG_KEYS = ("energy", "potential", "cells", "width", "span", "grid", "output", "format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pttunnel",
        description=(
            "Transmission and stationary-phase tunneling times for layered "
            "gain/loss (+iV/-iV) barrier lattices."
        ),
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_common(p: argparse.ArgumentParser, *, grid_help: str | None = None) -> None:
        p.add_argument("--energy", type=float, default=None, help="incident energy E > 0")
        p.add_argument(
            "--potential",
            type=float,
            action="append",
            default=None,
            help="potential strength V >= 0 (repeatable)",
        )
        p.add_argument(
            "--cells",
            type=int,
            action="append",
            default=None,
            help="repetition count N >= 0 (repeatable)",
        )
        if grid_help is not None:
            p.add_argument("--grid", default=None, help=grid_help)
        p.add_argument("--output", default=None, help="output file path (default: stdout)")
        p.add_argument("--format", default=None, choices=("csv", "json"), help="output format")
        p.add_argument("--config", default=None, help="flat key=value config file")

    p_point = sub.add_parser("point", help="evaluate a single (E, V, b, N) point")
    add_common(p_point)
    p_point.add_argument("--width", type=float, default=None, help="barrier width b > 0")

    p_b = sub.add_parser("sweep-b", help="sweep the cell width at fixed repetitions")
    add_common(p_b, grid_help="width grid start:stop:count[:log]")

    p_n = sub.add_parser("sweep-n", help="sweep repetitions at fixed total span")
    add_common(p_n, grid_help="repetition grid start:stop:count[:log]")
    p_n.add_argument("--span", type=float, default=None, help="fixed total span L > 0")

    p_l = sub.add_parser("limits", help="run the analytic limit validation report")
    p_l.add_argument("--output", default=None, help="output file path (default: stdout)")
    p_l.add_argument("--config", default=None, help="flat key=value config file")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call, built on the first; parsing leaves it unchanged.

    This saves the build only where ``main`` runs more than once in one
    process (a script or a test run calling it in a loop); the ``pttunnel``
    console script calls it once per process.
    """
    return build_parser()


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _resolve(args: argparse.Namespace) -> SweepConfig:
    """Merge CLI flags over config-file values over per-mode defaults."""
    file_values = _load_config(args.config) if getattr(args, "config", None) else {}
    defaults: dict = {}
    if args.mode == "sweep-b":
        defaults = _SWEEP_B_DEFAULTS
    elif args.mode == "sweep-n":
        defaults = _SWEEP_N_DEFAULTS

    def pick(flag: object, key: str, convert, default):
        if flag is not None:
            return flag
        if key in file_values:
            return convert(file_values[key])
        return default

    energy = pick(getattr(args, "energy", None), "energy", float, defaults.get("energy"))
    if energy is None:
        if args.mode != "limits":
            raise ValueError(f"{args.mode} requires --energy")
        energy = 1.0  # limits mode runs fixed validation suites
    potentials = pick(
        getattr(args, "potential", None), "potential", _floats, defaults.get("potentials")
    )
    cells = pick(getattr(args, "cells", None), "cells", _ints, defaults.get("cells"))
    width = pick(getattr(args, "width", None), "width", float, None)
    span = pick(getattr(args, "span", None), "span", float, defaults.get("span"))
    grid_text = pick(getattr(args, "grid", None), "grid", str, defaults.get("grid"))
    output = pick(getattr(args, "output", None), "output", str, None)
    fmt = pick(getattr(args, "format", None), "format", str, "csv")
    return SweepConfig(
        mode=args.mode,
        energy=float(energy),
        potentials=tuple(potentials) if potentials else (),
        cells=tuple(cells) if cells else (),
        width=width,
        span=span,
        grid=GridSpec.parse(grid_text) if grid_text else None,
        output=output,
        format=fmt,
    )


def _emit_rows(rows: list[SweepRow], config: SweepConfig) -> None:
    columns = columns_for_mode(config.mode)
    if config.format == "json":
        text = rows_to_json(rows, columns, config.mode)
    else:
        text = rows_to_csv(rows, columns)
    if config.output:
        write_text(text, config.output)
        print(f"wrote {len(rows)} rows to {config.output}")
    else:
        sys.stdout.write(text)


def _run_point(config: SweepConfig) -> int:
    row = run_point(config)
    flags = ";".join(row.flags) if row.flags else "(none)"
    print(
        f"E = {row.energy:g}  V = {row.strength:g}  N = {row.n_cells}  "
        f"b = {row.width:g}  L = {row.span:g}"
    )
    print(f"tau   = {row.tau!r}  [{row.tau_method}]")
    print(f"|t|   = {row.t_abs!r}")
    print(f"theta = {row.theta!r}")
    print(f"flags = {flags}")
    _emit_rows([row], config)
    if math.isnan(row.tau):
        code = row.flags[0] if row.flags else "NumericFailure"
        print(f"error: {code}: no finite tunneling time at this point", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        config = _resolve(args)
        if config.mode == "point":
            return _run_point(config)
        if config.mode == "sweep-b":
            _emit_rows(run_sweep_b(config), config)
            return EXIT_OK
        if config.mode == "sweep-n":
            _emit_rows(run_sweep_n(config), config)
            return EXIT_OK
        report = run_limits()
        text = report.to_json() + "\n"
        if config.output:
            write_text(text, config.output)
        else:
            sys.stdout.write(text)
        return EXIT_OK if report.passed else EXIT_LIMIT_FAILURE
    except PtTunnelError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        if isinstance(exc, ValueError):
            return EXIT_INVALID_INPUT
        return EXIT_NUMERIC_FAILURE
    except (ValueError, OSError) as exc:
        print(f"error: InvalidInput: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
