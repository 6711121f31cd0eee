"""Multiblock space-time lattice codes: construction, invariants, simulation.

`import multiblock` loads no submodule.  Each exported name is looked up in
its home module on access (PEP 562), which imports that module the first
time, so a command pays only for the layers it runs.  The name is not
bound in this namespace: it always reads the home module's current object.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "catalog": ("Catalog", "load_catalog"),
    "channel": ("FadingModel", "sample", "transmit"),
    "codebook": ("Codebook", "carve", "scaling_alpha"),
    "cyclic_algebra": ("CyclicAlgebra", "NaturalOrder", "order_lattice"),
    "decoder": ("DecodeResult", "LatticeDecoder", "ml_decode"),
    "lattice": ("InvariantReport", "MatrixLattice", "field_lattice",
                "hermite_invariant", "invariant_report", "min_pdet",
                "normalized_min_det"),
    "numfield": ("FieldElement", "NumberField"),
    "ratecalc": ("chernoff", "digamma", "ergodic_capacity_mc",
                 "expected_logdet_rayleigh", "rate_theorem1", "rate_theorem2"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # any other name raises, so `from . import sim` imports the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
