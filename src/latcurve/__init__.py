"""Combinatorial, homological, and motivic invariants of reduced
complex-analytic curve germs, with a three-route Cohen-Macaulay type
classifier.

The model layer (``errors``, ``lattice``, ``germ``) and the classifier
are imported with the package.  ``catalog`` and ``series`` (which a
``poincare`` source reads) and the reading layers (``homology`` with
``snf``, ``spectral``, ``motivic``) are imported the first time one of
their names is read from the package (PEP 562), so a process compiles
only the modules it uses.  ``classify`` stays eager: importing a
submodule binds it on the package, and ``latcurve.classify`` must stay
the function.
"""

from importlib import import_module

from .classify import Verdict, classify, classify_unimodal_plane
from .errors import (
    BadParams,
    DescriptorError,
    EulerMismatch,
    GridTooLarge,
    InconsistentInput,
    InconsistentSemigroup,
    InvalidSeries,
    LatcurveError,
    MarginTooSmall,
    PathInconsistency,
    RouteDisagreement,
    TorsionFound,
    TruncationUnsound,
    UndefinedWeight,
    UnknownGerm,
)
from .germ import GermDescriptor, GermModel, build_model, descriptor_from_json
from .lattice import (
    HilbertGrid,
    SemigroupTable,
    WeightGrid,
    delta,
    gorenstein_symmetry,
    hilbert_from_semigroup,
    min_weight,
    semigroup_from_hilbert,
    semigroup_from_low_points,
    weight_from_hilbert,
)

__version__ = "0.1.0"

# module -> the names the package exports from it, imported on first read
_LAZY = {
    "catalog": ("get", "get_entry", "list_entries"),
    "homology": ("HomologyReport", "euler_characteristic", "lattice_homology"),
    "motivic": (
        "LaurentSeries", "QPoly", "motivic_coeff", "omega_substitution",
        "univariate_motivic",
    ),
    "series": ("MultiPoly", "RationalSeries", "expand", "hilbert_from_poincare"),
    "spectral": (
        "E1Entry", "MinimalCycleGroup", "e1_level", "e1_refined",
        "minimal_spectral_cycles", "pe_series",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAZY.items() for name in names}

__all__ = [
    # classify
    "Verdict", "classify", "classify_unimodal_plane",
    # errors
    "BadParams", "DescriptorError", "EulerMismatch", "GridTooLarge",
    "InconsistentInput", "InconsistentSemigroup", "InvalidSeries",
    "LatcurveError", "MarginTooSmall", "PathInconsistency",
    "RouteDisagreement", "TorsionFound", "TruncationUnsound",
    "UndefinedWeight", "UnknownGerm",
    # germ
    "GermDescriptor", "GermModel", "build_model", "descriptor_from_json",
    # lattice
    "HilbertGrid", "SemigroupTable", "WeightGrid", "delta",
    "gorenstein_symmetry", "hilbert_from_semigroup", "min_weight",
    "semigroup_from_hilbert", "semigroup_from_low_points",
    "weight_from_hilbert",
    # catalog, series and the reading layers
    *_LAYER_OF,
]


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
