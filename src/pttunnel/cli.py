"""Command-line interface.

Subcommands: `point` (single parameter point), `sweep-b` (width sweep),
`sweep-n` (repetition sweep at fixed span), `limits` (validation report).
`_MODES` declares each one's flags, defaults and columns, and `_SETTINGS`
each flag's config-file key.  A flag overrides an optional flat key=value
config file, which overrides the subcommand's default.  A subcommand reads
only the config keys it has flags for; an unknown key is invalid input.

Exit codes: 0 success, 2 invalid input, 3 limit-check failure, 4 a point
whose tau is not finite (nan or inf).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable, NamedTuple, Sequence

from .errors import PtTunnelError
from .sweep import (
    POINT_COLUMNS, SWEEP_B_COLUMNS, SWEEP_N_COLUMNS, GridSpec, SweepConfig, SweepRow,
    rows_to_csv, rows_to_json, run_limits, run_point, run_sweep_b, run_sweep_n, write_text,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_LIMIT_FAILURE = 3
EXIT_NUMERIC_FAILURE = 4


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _grid(text: str) -> GridSpec | None:
    return GridSpec.parse(text) if text else None


class _Setting(NamedTuple):
    field: str  # of SweepConfig
    read: Callable[[str], object]  # its text (config file, default or text flag) -> field value
    flag: dict  # add_argument keywords


# Flag dest, which is also its config-file key -> setting, in resolving order.
_SETTINGS = {
    "energy": _Setting("energy", float, {"type": float, "help": "incident energy E > 0"}),
    "potential": _Setting("potentials", _floats, {"type": float, "action": "append",
                          "help": "potential strength V >= 0 (repeatable)"}),
    "cells": _Setting("cells", _ints, {"type": int, "action": "append",
                      "help": "repetition count N >= 0 (repeatable)"}),
    "width": _Setting("width", float, {"type": float, "help": "barrier width b > 0"}),
    "span": _Setting("span", float, {"type": float, "help": "fixed total span L > 0"}),
    "grid": _Setting("grid", _grid, {}),  # help: the mode's grid_help
    "output": _Setting("output", str, {"help": "output file path (default: stdout)"}),
    "format": _Setting("format", str, {"choices": ("csv", "json"), "help": "output format"}),
}
_CONFIG_FLAG = {"help": "flat key=value config file"}


class _Mode(NamedTuple):
    help: str
    flags: tuple[str, ...]  # _SETTINGS keys and "config", in --help order
    defaults: dict[str, str]  # text of the settings no flag or config key sets
    columns: tuple[str, ...] = ()
    grid_help: str | None = None


# sweep-b and sweep-n default to the paper's two figures.
_MODES = {
    "point": _Mode("evaluate a single (E, V, b, N) point",
                   ("energy", "potential", "cells", "output", "format", "config", "width"),
                   {}, POINT_COLUMNS),
    "sweep-b": _Mode("sweep the cell width at fixed repetitions",
                     ("energy", "potential", "cells", "grid", "output", "format", "config"),
                     {"energy": "1", "potential": "20", "cells": "1,2,3,4", "grid": "0.05:5:100"},
                     SWEEP_B_COLUMNS, "width grid start:stop:count[:log]"),
    "sweep-n": _Mode("sweep repetitions at fixed total span",
                     ("energy", "potential", "grid", "output", "format", "config", "span"),
                     {"energy": "1", "potential": "5,10,20", "span": "1", "grid": "1:4096:13:log"},
                     SWEEP_N_COLUMNS, "repetition grid start:stop:count[:log]"),
    "limits": _Mode("run the analytic limit validation report", ("output", "config"), {}),
}


# The add_argument keywords of --dest, as build_parser passes them and _parse reads them.
def _flag(dest: str) -> dict:
    return _SETTINGS[dest].flag if dest in _SETTINGS else _CONFIG_FLAG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pttunnel",
        description=(
            "Transmission and stationary-phase tunneling times for layered "
            "gain/loss (+iV/-iV) barrier lattices."
        ),
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for name, mode in _MODES.items():
        p = sub.add_parser(name, help=mode.help)
        for dest in mode.flags:
            p.add_argument(f"--{dest}", **{"help": mode.grid_help, **_flag(dest)})
    return parser


# The parser of every main() call whose argv _parse cannot read from the flag
# tables, built on the first such call; parsing leaves it unchanged.  This
# saves the build only where main runs more than once in one process (a
# script or a test run calling it in a loop); the pttunnel console script
# calls it once per process.
_parser = functools.cache(build_parser)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``."""
    # A mode followed by --flag value pairs of its own flags, each value not
    # starting with '-' and passing the flag's type and choices, is read from
    # _MODES and the flags' keywords: a repeated flag keeps its last value, an
    # "append" flag a list of all.  Argparse reads any other argv: help, '=',
    # abbreviations, '--' and every error.
    mode = _MODES.get(argv[0]) if argv else None
    if mode is not None and len(argv) % 2:
        values = dict.fromkeys(mode.flags)
        for option, text in zip(argv[1::2], argv[2::2]):
            dest = option[2:]
            if option[:2] != "--" or dest not in values or text[:1] == "-":
                break
            flag = _flag(dest)
            try:
                value = flag.get("type", str)(text)
            except (TypeError, ValueError):
                break
            if value not in flag.get("choices", (value,)):
                break
            values[dest] = [*(values[dest] or ()), value] if "action" in flag else value
        else:
            return argparse.Namespace(mode=argv[0], **values)
    return _parser().parse_args(argv)


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
            if key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> SweepConfig:
    """Merge CLI flags over config-file values over per-mode defaults, for the mode's own flags."""
    mode = _MODES[args.mode]
    file_values = _load_config(args.config) if args.config else {}
    values = {}
    for dest, (field, read, _) in _SETTINGS.items():
        if dest not in mode.flags:
            continue
        value = getattr(args, dest)
        if value is None:
            value = file_values.get(dest, mode.defaults.get(dest))
        if value is None and dest == "energy":
            raise ValueError(f"{args.mode} requires --energy")
        if isinstance(value, str):  # config or default text, or a flag argparse left as text
            value = read(value)
        if value is not None:
            values[field] = tuple(value) if isinstance(value, list) else value
    return SweepConfig(**values)


def _emit_rows(mode: str, rows: list[SweepRow], config: SweepConfig) -> None:
    columns = _MODES[mode].columns
    if config.format == "json":
        text = rows_to_json(rows, columns, mode)
    else:
        text = rows_to_csv(rows, columns)
    write_text(text, config.output or sys.stdout)
    if config.output:
        print(f"wrote {len(rows)} rows to {config.output}")


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
    _emit_rows("point", [row], config)
    if not math.isfinite(row.tau):  # the row's last flag says why
        print(f"error: {row.flags[-1]}: no finite tunneling time at this point", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        config = _resolve(args)
        if args.mode == "point":
            return _run_point(config)
        if args.mode == "limits":
            report = run_limits()
            write_text(report.to_json() + "\n", config.output or sys.stdout)
            return EXIT_OK if report.passed else EXIT_LIMIT_FAILURE
        rows = (run_sweep_b if args.mode == "sweep-b" else run_sweep_n)(config)
        _emit_rows(args.mode, rows, config)
        return EXIT_OK
    except PtTunnelError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT if isinstance(exc, ValueError) else EXIT_NUMERIC_FAILURE
    except (ValueError, OSError) as exc:
        print(f"error: InvalidInput: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
