#!/usr/bin/env python3
"""pttunnel benchmark: one workload, one process, one request at a time.

    python3 ptbench/run.py --workload sweep-b-wide --seed 1 --seconds 10 --trace 0

Workloads (see README.md): sweep-b-wide, sweep-n-thin, oracle-limits.
A run repeats whole rounds of the workload's requests until
``--seconds`` have passed, then checks the outputs against the independent
mpmath reference and the properties in checks.py, outside the timed region.
The human-readable report goes to stderr; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The package is imported from ``src/`` next to this
directory and nowhere else.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import glob
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".ptbench-out")

SETUP_SAMPLES = 21
IMPORT_SAMPLES = 5
SWEEP_B_SAMPLE = 40
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# The per-workload names of the end-to-end metrics, printed beside the generic ones.
ALIASES = {
    ("sweep-b-wide", "items_per_s"): "rows_per_s",
    ("sweep-n-thin", "items_per_s"): "rows_per_s",
    ("oracle-limits", "items_per_s"): "oracle_points_per_s",
}


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric names and units, as BENCHMARK.json defines them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Samples:
    """Wall times of each request over a run's rounds, and of the set-up probes.

    A request is one command line, one oracle point or one run_limits() call;
    each round issues the same requests in the same order.  The machine's
    speed moves in bursts (README.md, Steadiness), and nothing makes a
    request faster than its own work, so items_per_s reads each request's
    fastest time over the run.
    """

    def __init__(self) -> None:
        self.times: dict[object, list[float]] = {}
        self.items: dict[object, int] = {}
        self.setups: list[float] = []
        self.rounds = 0

    def add(self, key, seconds: float, items: int) -> None:
        if key not in self.times:
            self.times[key] = []
            self.items[key] = items
        self.times[key].append(seconds)

    def end_round(self) -> None:
        self.rounds += 1

    def fastest(self, key) -> float:
        return min(self.times[key])

    def item_count(self) -> int:
        """Items over every round."""
        return sum(self.items[key] * len(times) for key, times in self.times.items())

    def rate(self) -> float:
        """Items of one round per second, at each request's fastest time."""
        keys = [key for key, items in self.items.items() if items]
        return sum(self.items[key] for key in keys) / sum(self.fastest(key) for key in keys)

    def log_times(self, key) -> None:
        """Median and tail of one request's wall times, on stderr (not gated)."""
        times = self.times[key]
        pct, value = tail(times)
        log(f"{key}: fastest {min(times):.6g} s, p50 {statistics.median(times):.6g} s, "
            f"p{pct:g} {value:.6g} s of {len(times)}")


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe(workload: str, seed: int, work_dir: str):
    """A function timing one fresh interpreter that imports pttunnel and builds the inputs."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), work_dir]

    def probe() -> float:
        start = perf_counter()
        subprocess.run(argv, env=child_env(), check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - start

    return probe


def import_ms() -> float:
    code = ("import time; t = time.perf_counter(); import pttunnel; "
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                             capture_output=True, text=True).stdout
        values.append(float(out) * 1e3)
    return statistics.median(values)


def src_lines() -> int:
    count = 0
    for path in sorted(glob.glob(os.path.join(SRC, "pttunnel", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            count += sum(1 for line in handle if line.strip() and not line.strip().startswith("#"))
    return count


# ---------------------------------------------------------------------------
# Loads: one round of requests each, timed request by request
# ---------------------------------------------------------------------------


class SweepLoad:
    """`sweep-b` / `sweep-n` command lines through cli.main, each writing a file."""

    def __init__(self, pt, commands: list[list[str]]) -> None:
        self.pt = pt
        self.commands = commands
        self.first: dict[int, str] = {}
        self.rows: dict[int, int] = {}
        self.differing: set[int] = set()
        self.exit_codes: set[int] = set()
        self.sink = io.StringIO()

    def run_round(self, samples: Samples) -> None:
        main = self.pt.cli.main
        for i, argv in enumerate(self.commands):
            self.sink.seek(0)
            self.sink.truncate()
            with contextlib.redirect_stdout(self.sink):
                start = perf_counter()
                code = main(argv)
                elapsed = perf_counter() - start
            self.exit_codes.add(code)
            with open(argv[-1], encoding="utf-8", newline="") as handle:
                text = handle.read()
            if i not in self.first:
                self.first[i] = text
                self.rows[i] = self._count_rows(argv, text)
            elif text != self.first[i]:
                self.differing.add(i)
            samples.add(i, elapsed, self.rows[i])
        samples.end_round()

    @staticmethod
    def _count_rows(argv: list[str], text: str) -> int:
        if argv[argv.index("--format") + 1] == "json":
            return len(json.loads(text)["rows"])
        return text.count("\n") - 1

    def attempted_per_round(self) -> int:
        return sum(self.rows.values())


class OracleLoad:
    """One run_limits() report plus the direct-product oracle on seeded lattices."""

    def __init__(self, pt, lattices) -> None:
        self.pt = pt
        self.lattices = lattices
        self.first_report = None
        self.first_points: list[tuple] = []
        self.differing = 0

    def point(self, lat) -> tuple:
        model, transfer, timing = self.pt.model, self.pt.transfer, self.pt.timing
        particle = model.Particle(lat.energy)
        cell = model.CellSpec(lat.strength, lat.width)
        matrix = transfer.lattice_matrix_direct(particle, cell, lat.n_cells)
        t_direct = transfer.transmission_from_matrix(matrix)
        tau_fd = timing.tunneling_time_fd(particle, cell, lat.n_cells)
        t_closed = timing.transmission_closed(particle, cell, lat.n_cells)
        tau = timing.tunneling_time(particle, cell, lat.n_cells)
        # The comparisons run_limits makes, timed as part of the point.
        t_residual = abs(t_closed - t_direct) / abs(t_direct)
        tau_residual = abs(tau - tau_fd) / abs(tau_fd)
        return matrix, t_direct, t_closed, tau, tau_fd, t_residual, tau_residual

    def run_round(self, samples: Samples) -> None:
        start = perf_counter()
        report = self.pt.sweep.run_limits()
        samples.add("run_limits", perf_counter() - start, 0)
        if self.first_report is None:
            self.first_report = report
        elif report != self.first_report:
            self.differing += 1
        for j, lat in enumerate(self.lattices):
            start = perf_counter()
            result = self.point(lat)
            samples.add(j, perf_counter() - start, 1)
            if len(self.first_points) <= j:
                self.first_points.append(result)
            elif result != self.first_points[j]:
                self.differing += 1
        samples.end_round()

    def attempted_per_round(self) -> int:
        return len(self.lattices) + 1


def measure(load, seconds: float, probe=None) -> Samples:
    """Whole rounds for `seconds`, with SETUP_SAMPLES set-up probes spread among them."""
    samples = Samples()
    start = perf_counter()
    next_probe = 0.0
    while samples.rounds == 0 or perf_counter() - start < seconds:
        if probe is not None and perf_counter() - start >= next_probe:
            samples.setups.append(probe())
            next_probe += seconds / SETUP_SAMPLES
        load.run_round(samples)
    return samples


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_sweeps(workload: str, seed: int, load: SweepLoad, pt, checks, findings) -> tuple[int, dict]:
    """Returns (rows that disagree with the reference, per round; row mix per round)."""
    mix: dict[str, int] = {}
    thin = workload == "sweep-n-thin"
    saturation: dict[tuple[float, float], float] = {}
    rows_found: list[tuple[object, list[str]]] = []  # every row, with its reference misses
    for i, argv in enumerate(load.commands):
        config = pt.cli._resolve(pt.cli.build_parser().parse_args(argv))
        runner = pt.sweep.run_sweep_n if thin else pt.sweep.run_sweep_b
        rows = runner(config)
        columns = pt.sweep.SWEEP_N_COLUMNS if thin else pt.sweep.SWEEP_B_COLUMNS
        checks.check_round_trip(rows, load.first[i], columns, config.format, findings, argv[-1])
        for row in rows:
            mix[f"mix.method.{row.tau_method}"] = mix.get(f"mix.method.{row.tau_method}", 0) + 1
            for flag in row.flags:
                mix[f"mix.flag.{flag}"] = mix.get(f"mix.flag.{flag}", 0) + 1
            checks.check_row_properties(row, findings)
            found: list[str] = []
            rows_found.append((row, found))
            if thin:
                checks.check_sweep_n_row(row, findings)
            elif row.strength > 0.0:
                key = (row.energy, row.strength)
                if key not in saturation:
                    saturation[key] = checks.saturation_time(*key)
                limit = saturation[key]
                if abs(row.tau_inf - limit) > checks.TAU_RTOL * limit:
                    found.append(f"tau_inf {row.tau_inf!r} vs saturated reference {limit!r}")
                if row.tau_method == "hartman-limit" and abs(row.tau - limit) > checks.TAU_RTOL * limit:
                    found.append(f"hartman-limit tau {row.tau!r} vs saturated reference {limit!r}")
            else:
                findings.require(math.isnan(row.tau_inf), f"tau_inf {row.tau_inf!r} at V = 0")
    findings.require(not load.differing, f"rewrites of {sorted(load.differing)} are not byte-identical")
    findings.require(load.exit_codes == {0}, f"exit codes {sorted(load.exit_codes)}")
    if thin:
        sampled = rows_found
    else:
        regular = [entry for entry in rows_found if entry[0].tau_method != "hartman-limit"]
        sampled = random.Random(f"sample/{seed}").sample(regular, SWEEP_B_SAMPLE)
    for row, found in sampled:
        ref = checks.reference_at(row.energy, row.strength, row.width, row.n_cells)
        found += checks.reference_misses(ref, row.tau, row.t_abs, row.theta)
        if thin:
            found += checks.offset_misses(ref, row.tau)
    missed_rows = 0
    for _, found in rows_found:
        findings.misses.extend(found)
        missed_rows += bool(found)
    return missed_rows, mix


def check_oracle(load: OracleLoad, checks, findings) -> int:
    report = load.first_report
    findings.require(report.passed, "run_limits() did not pass: " + ", ".join(
        c.name for c in report.checks if not c.passed))
    findings.require(not load.differing, f"{load.differing} oracle results differ between rounds")
    misses = 0
    for lat, result in zip(load.lattices, load.first_points):
        matrix, t_direct, t_closed, tau, tau_fd = result[:5]
        where = f"lattice E={lat.energy!r} V={lat.strength!r} b={lat.width!r} N={lat.n_cells}"
        checks.check_matrix_identities(matrix, lat, findings, where)
        ref = checks.reference_at(lat.energy, lat.strength, lat.width, lat.n_cells)
        found = checks.reference_misses(ref, tau, abs(t_closed), cmath.phase(t_closed))
        fd_ref = replace(ref, tau=ref.tau + checks.fd_truncation(ref))
        found += checks.reference_misses(fd_ref, tau_fd, abs(t_direct), cmath.phase(t_direct),
                                         tau_rtol=checks.FD_TAU_RTOL)
        findings.misses.extend(found)
        misses += bool(found)
    return misses


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer, samples: Samples, main_calls: int) -> dict[str, float]:
    items = samples.item_count()
    rounds = samples.rounds
    cells = tracer.cells

    def per(value: float, count: int, scale: float = 1.0) -> float:
        return value * scale / count if count else 0.0

    calls = lambda name: tracer.calls.get(name, 0)  # noqa: E731
    own = lambda name: tracer.self_time.get(name, 0.0)  # noqa: E731
    total = lambda name: tracer.total.get(name, 0.0)  # noqa: E731
    return {
        "model.derived_quantities.calls_per_row": per(calls("model.derived_quantities"), items),
        "model.derived_quantities.self_us_per_row": per(own("model.derived_quantities"), items, 1e6),
        "model.derived_quantities.calls": per(calls("model.derived_quantities"), rounds),
        "model.derived_quantities.self_ms": per(own("model.derived_quantities"), rounds, 1e3),
        "timing.tunneling_time_result.self_us_per_row": per(own("timing.tunneling_time_result"), items, 1e6),
        "timing.transmission_closed.self_us_per_row": per(own("timing.transmission_closed"), items, 1e6),
        "timing.phase_theta.calls_per_row": per(calls("timing.phase_theta"), items),
        "timing.hartman_coeffs.calls_per_row": per(calls("timing.hartman_coeffs"), items),
        "timing.tunneling_time_fd.calls": per(calls("timing.tunneling_time_fd"), rounds),
        "chebyshev.calls_per_row": per(tracer.layer_sum(tracer.calls, "chebyshev"), items),
        "chebyshev.self_us_per_row": per(tracer.layer_sum(tracer.self_time, "chebyshev"), items, 1e6),
        "transfer.lattice_matrix_direct.us_per_cell": per(total("transfer.lattice_matrix_direct"), cells, 1e6),
        "transfer.barrier_matrix.calls_per_cell": per(calls("transfer.barrier_matrix"), cells),
        "transfer.compose.calls_per_cell": per(calls("transfer.compose"), cells),
        "transfer.self_ms": per(tracer.layer_sum(tracer.self_time, "transfer"), rounds, 1e3),
        "sweep.evaluate_point.self_us_per_row": per(own("sweep.evaluate_point"), items, 1e6),
        "sweep.run_sweep_b.self_us_per_row": per(own("sweep.run_sweep_b"), items, 1e6),
        "sweep.run_sweep_n.self_us_per_row": per(own("sweep.run_sweep_n"), items, 1e6),
        "sweep.rows_to_csv.us_per_row": per(total("sweep.rows_to_csv"), items, 1e6),
        "sweep.rows_to_json.us_per_row": per(total("sweep.rows_to_json"), items, 1e6),
        "sweep.write_text.us_per_row": per(total("sweep.write_text"), items, 1e6),
        "sweep.run_limits.self_ms": per(own("sweep.run_limits"), rounds, 1e3),
        "sweep.oracle_triangle_residuals.self_ms": per(own("sweep.oracle_triangle_residuals"), rounds, 1e3),
        "cli.main_self_ms": per(tracer.layer_sum(tracer.self_time, "cli"), main_calls, 1e3),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def load_package():
    """Import pttunnel from this checkout's src/, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "pttunnel", "__init__.py")):
        log(f"ptbench: no pttunnel package under {SRC}")
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import pttunnel
    import pttunnel.chebyshev
    import pttunnel.cli
    import pttunnel.model
    import pttunnel.sweep
    import pttunnel.timing
    import pttunnel.transfer

    if os.path.dirname(os.path.dirname(os.path.abspath(pttunnel.__file__))) != SRC:
        log(f"ptbench: pttunnel imported from {pttunnel.__file__}, not {SRC}")
        sys.exit(2)
    return pttunnel


def make_load(workload: str, pt, inputs):
    if workload == "oracle-limits":
        return OracleLoad(pt, inputs)
    return SweepLoad(pt, inputs)


def main() -> int:
    import workloads  # stdlib only; this directory is sys.path[0]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    pt = load_package()

    work_dir = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return run(args, pt, workloads, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, pt, workloads, work_dir: str) -> int:
    workload, seed = args.workload, args.seed
    inputs = workloads.build_inputs(workload, seed, work_dir)
    load = make_load(workload, pt, inputs)
    load.run_round(Samples())  # warm-up: byte caches, first outputs for the checks

    metrics: dict[str, float] = {}
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        plain, samples = Samples(), Samples()
        # Untraced and traced rounds alternate, so that a change in the
        # machine's speed during the run falls on both and not on the overhead.
        start = perf_counter()
        while samples.rounds == 0 or perf_counter() - start < args.seconds:
            load.run_round(plain)
            tracer.install()
            try:
                load.run_round(samples)
            finally:
                tracer.uninstall()
        main_calls = tracer.calls.get("cli.main", 0)
        metrics.update(layer_metrics(tracer, samples, main_calls))
        metrics["cli.import_ms"] = import_ms()
        metrics["trace.overhead_pct"] = (plain.rate() / samples.rate() - 1.0) * 100.0
        rounds = plain.rounds + samples.rounds
        os.makedirs(OUT_ROOT, exist_ok=True)
        tracer.write(os.path.join(OUT_ROOT, f"spans-{workload}-seed{seed}.tsv"))
    else:
        probe = setup_probe(workload, seed, work_dir)
        probe()  # warm-up
        samples = measure(load, args.seconds, probe)
        rounds = samples.rounds
        metrics["setup_s"] = statistics.median(samples.setups)
        metrics["items_per_s"] = samples.rate()
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["src_lines"] = float(src_lines())
        log(f"{len(samples.setups)} set-up probes; request wall times (not gated, see README):")
        for key in list(samples.times)[:3]:
            samples.log_times(key)

    import checks

    findings = checks.Findings()
    mix: dict[str, int] = {}
    if isinstance(load, SweepLoad):
        misses, mix = check_sweeps(workload, seed, load, pt, checks, findings)
    else:
        misses = check_oracle(load, checks, findings)
    end_to_end, per_layer = metric_units()
    if args.trace:
        for name in per_layer:
            if name.startswith("mix."):
                metrics[name] = float(mix.get(name, 0))

    attempted = load.attempted_per_round() * rounds
    failed = misses * rounds
    correct = not findings.violations
    wanted = per_layer if args.trace else end_to_end
    report(workload, args, wanted, metrics, mix, findings, attempted, failed, rounds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


def report(workload, args, units, metrics, mix, findings, attempted, failed, rounds) -> None:
    log(f"workload {workload}  seed {args.seed}  trace {args.trace}  rounds {rounds}")
    for name, unit in units.items():
        alias = ALIASES.get((workload, name))
        log(f"  {name:48s} {metrics[name]:16.6g} {unit}" + (f"   ({alias})" if alias else ""))
    log("  row mix per round: " + (", ".join(f"{k[4:]}={v}" for k, v in sorted(mix.items())) or "none"))
    log(f"  attempted {attempted}  failed {failed}  violations {len(findings.violations)}")
    for line in findings.violations[:10]:
        log(f"  VIOLATION {line}")
    for line in findings.misses[:10]:
        log(f"  MISS {line}")


if __name__ == "__main__":
    sys.exit(main())
