"""Combinatorial, homological, and motivic invariants of reduced
complex-analytic curve germs, with a three-route Cohen-Macaulay type
classifier."""

from .catalog import get, get_entry, list_entries
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
from .homology import (
    HomologyReport,
    euler_characteristic,
    lattice_homology,
    min_weight,
)
from .lattice import (
    HilbertGrid,
    Rectangle,
    SemigroupTable,
    WeightGrid,
    delta,
    gorenstein_symmetry,
    hilbert_from_semigroup,
    restrict_to_subcurve,
    semigroup_from_hilbert,
    semigroup_from_low_points,
    validate_semigroup_consistency,
    weight_from_hilbert,
)
from .motivic import (
    LaurentSeries,
    QPoly,
    gorenstein_functional_check,
    hilbert_from_motivic,
    motivic_coeff,
    omega_substitution,
    pe_substitution_check,
    univariate_motivic,
)
from .series import (
    MultiPoly,
    RationalSeries,
    expand,
    hilbert_from_poincare,
    poincare_from_hilbert,
)
from .spectral import (
    E1Entry,
    MinimalCycleGroup,
    e1_level,
    e1_refined,
    has_maximal_rank,
    minimal_spectral_cycles,
    pe_series,
    pe_univariate,
)

__version__ = "0.1.0"
