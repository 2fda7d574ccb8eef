"""Export consistency: every exported name exists, and the package
re-exports only names that one of its modules exports.

A name left in an ``__all__`` after its definition is deleted breaks
``from pttunnel.<module> import *``.
"""

import importlib
import pkgutil

import pttunnel

MODULES = {
    info.name: importlib.import_module(f"pttunnel.{info.name}")
    for info in pkgutil.iter_modules(pttunnel.__path__)
}


def test_every_exported_name_resolves():
    missing = {
        name: [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        for name, module in {**MODULES, "pttunnel": pttunnel}.items()
    }
    assert {name: attrs for name, attrs in missing.items() if attrs} == {}


def test_package_reexports_only_module_exports():
    exported = {attr for module in MODULES.values() for attr in getattr(module, "__all__", ())}
    assert sorted(set(pttunnel.__all__) - exported) == []


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
