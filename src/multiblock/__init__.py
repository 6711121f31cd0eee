"""Multiblock space-time lattice codes: construction, invariants, simulation."""

from .catalog import Catalog, load_catalog
from .channel import FadingModel, sample, transmit
from .codebook import Codebook, carve, scaling_alpha
from .cyclic_algebra import (CyclicAlgebra, NaturalOrder, order_lattice,
                             trivial_algebra)
from .decoder import DecodeResult, LatticeDecoder, ml_decode, qr_reduce
from .lattice import (InvariantReport, MatrixLattice, fade, field_lattice,
                      hermite_invariant, invariant_report, min_pdet,
                      normalized_min_det)
from .numfield import FieldElement, NumberField
from .ratecalc import (chernoff_exponent, chernoff_vdelta, digamma,
                       ergodic_capacity_mc, expected_logdet_rayleigh,
                       rate_theorem1, rate_theorem2)

__version__ = "0.1.0"

__all__ = [
    "Catalog", "Codebook",
    "CyclicAlgebra", "DecodeResult", "FadingModel", "FieldElement",
    "InvariantReport", "LatticeDecoder", "MatrixLattice", "NaturalOrder",
    "NumberField", "carve", "chernoff_exponent", "chernoff_vdelta",
    "digamma", "ergodic_capacity_mc", "expected_logdet_rayleigh", "fade",
    "field_lattice", "hermite_invariant", "invariant_report",
    "load_catalog", "min_pdet", "ml_decode",
    "normalized_min_det", "order_lattice", "qr_reduce", "rate_theorem1",
    "rate_theorem2", "sample", "scaling_alpha", "transmit", "trivial_algebra",
]
