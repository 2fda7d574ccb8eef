"""Export consistency: every exported name exists, and the package exports
exactly what its library modules list in ``__all__``, the one list of each
module's public names.

A name left in an ``__all__`` after its definition is deleted breaks
``from pttunnel.<module> import *``, and so ``import pttunnel``.
"""

import importlib
import pkgutil

import pttunnel

MODULES = {
    info.name: importlib.import_module(f"pttunnel.{info.name}")
    for info in pkgutil.iter_modules(pttunnel.__path__)
}

# The modules whose exports the package star-imports, in its order.
LIBRARY = ("errors", "model", "sweep", "timing", "transfer")

# The 32 names the package exported while its __init__ listed them by hand;
# code that imports them from pttunnel must keep working.
EARLIER_EXPORTS = (
    "BETA_MAX", "CellSpec", "ClosedForm", "DegeneratePotentialError", "GridSpec",
    "HartmanCoeffs", "InvalidEnergyError", "LimitsReport", "OverflowGuardError", "Particle",
    "PtTunnelError", "SpectralSingularityError", "SweepConfig", "SweepRow", "TransferMatrix",
    "barrier_matrix", "closed_form", "evaluate_point", "free_propagation_time",
    "hartman_coeffs", "hartman_limit_time", "lattice_matrix_direct", "n_infinity_bracket",
    "run_limits", "run_point", "run_sweep_b", "run_sweep_n", "square_barrier_time",
    "transmission_closed", "transmission_from_matrix", "tunneling_time", "tunneling_time_fd",
)


def test_every_exported_name_resolves():
    missing = {
        name: [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        for name, module in {**MODULES, "pttunnel": pttunnel}.items()
    }
    assert {name: attrs for name, attrs in missing.items() if attrs} == {}


def test_package_reexports_only_module_exports():
    expected = [attr for name in LIBRARY for attr in MODULES[name].__all__]
    assert pttunnel.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_star_import_binds_each_module_object():
    namespace = {}
    exec("from pttunnel import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pttunnel.__all__)
    rebound = [f"{name}.{attr}" for name in LIBRARY for attr in MODULES[name].__all__
               if namespace[attr] is not getattr(MODULES[name], attr)]
    assert rebound == []


def test_earlier_exports_still_exported():
    assert sorted(set(EARLIER_EXPORTS) - set(pttunnel.__all__)) == []


# Every module and attribute that the benchmark (ptbench/run.py) reaches; a
# cut to this surface should fail here before the benchmark fails to run.
BENCHMARK_SURFACE = {
    "chebyshev": (),
    "cli": ("main", "_resolve", "build_parser"),
    "sweep": ("run_sweep_b", "run_sweep_n", "run_limits", "SWEEP_B_COLUMNS", "SWEEP_N_COLUMNS"),
    "model": ("Particle", "CellSpec"),
    "transfer": ("lattice_matrix_direct", "transmission_from_matrix"),
    "timing": ("tunneling_time_fd", "transmission_closed", "tunneling_time"),
}


def test_benchmark_surface_exists():
    missing = [
        f"{name}.{attr}"
        for name, attrs in BENCHMARK_SURFACE.items()
        for attr in attrs
        if not hasattr(importlib.import_module(f"pttunnel.{name}"), attr)
    ]
    assert missing == []
