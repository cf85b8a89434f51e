"""Numerical laboratory for an extended Dicke model with collective atom-atom coupling.

H = omega a^dag a + g (a^dag + a) Sz - v Sx^2 on the maximal-spin sector
S = N/2, with exact diagonalization, a displaced-frame spin reference
model, semiclassical landscape analysis, a circuit parameter map, and a
sweep CLI.
"""

from .circuit import (
    CircuitParams,
    DerivedSingleAtom,
    RegimeReport,
    derive_model_params,
    flux_radians_from_weber,
    parse_device_text,
    read_device_file,
    validate_regime,
)
from .diagnostics import (
    CatOverlap,
    ConvergenceReport,
    DegeneracyReport,
    OracleEquivalence,
    SplittingGap,
    cat_overlap,
    converge_cutoff,
    degeneracy_classes,
    lowest_levels,
    oracle_spectrum_equivalence,
    splitting_and_gap,
    spin_model_spectrum,
)
from .errors import (
    ConfigError,
    DescentError,
    DickeLabError,
    ResourceError,
    SweepAborted,
    ValidationError,
)
from .model import ModelParams
from .semiclassics import (
    PhasePoint,
    ScalingFit,
    StationaryPoint,
    energy_surface,
    find_minima,
    interference_factor,
    reduced_surface,
    splitting_scaling_fit,
    surface_gradient,
)
from .solvers import SpectrumResult, solve_lowest
from .sweep import (
    CSV_HEADER,
    SweepConfig,
    SweepRow,
    emit_results,
    parse_config,
    run_sweep,
)

__version__ = "0.1.0"

# the test references, re-exported on first use (PEP 562): importing them
# loads scipy.sparse, which nothing on the solve path needs
_REFERENCE_NAMES = frozenset({
    "ParityOperator",
    "SparseOperator",
    "SpinOperatorSet",
    "build_full_hamiltonian",
    "collective_spin_matrices",
    "dense_spectrum",
    "lanczos_lowest",
    "polaron_spin_hamiltonian",
    "symmetry_commutator_norm",
    "symmetry_operator",
})


def __getattr__(name: str):
    if name in _REFERENCE_NAMES:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CSV_HEADER",
    "CatOverlap",
    "CircuitParams",
    "ConfigError",
    "ConvergenceReport",
    "DegeneracyReport",
    "DerivedSingleAtom",
    "DescentError",
    "DickeLabError",
    "ModelParams",
    "OracleEquivalence",
    "ParityOperator",
    "PhasePoint",
    "RegimeReport",
    "ResourceError",
    "ScalingFit",
    "SparseOperator",
    "SpectrumResult",
    "SpinOperatorSet",
    "SplittingGap",
    "StationaryPoint",
    "SweepAborted",
    "SweepConfig",
    "SweepRow",
    "ValidationError",
    "build_full_hamiltonian",
    "cat_overlap",
    "collective_spin_matrices",
    "converge_cutoff",
    "degeneracy_classes",
    "dense_spectrum",
    "derive_model_params",
    "emit_results",
    "energy_surface",
    "find_minima",
    "flux_radians_from_weber",
    "interference_factor",
    "lanczos_lowest",
    "lowest_levels",
    "oracle_spectrum_equivalence",
    "parse_config",
    "parse_device_text",
    "polaron_spin_hamiltonian",
    "read_device_file",
    "reduced_surface",
    "run_sweep",
    "solve_lowest",
    "spin_model_spectrum",
    "splitting_and_gap",
    "splitting_scaling_fit",
    "surface_gradient",
    "symmetry_commutator_norm",
    "symmetry_operator",
    "validate_regime",
]
