"""Exact-arithmetic stability calculus for finitely presented Higgs-sheaf models.

The library classifies Gieseker and slope stability over a declared finite
family of invariant subobjects, builds Jordan-Holder and Harder-Narasimhan
filtrations, and machine-checks the structural theorems relating them, all
in exact rational arithmetic.
"""

from .hilbert import EventualOrder, HilbertPolynomial, format_rational, parse_rational
from .chern import (
    KahlerData,
    MalformedPolynomialError,
    NumericalSheafData,
    SurfaceChernInput,
    ZERO_SHEAF,
    ZeroRankError,
    bogomolov_discriminant,
    chi_curve,
    chi_from_pairings,
    chi_surface,
    compare_p,
    compare_slope,
    normalized_p,
    rank_p_residual,
    slope,
    sum_data,
)
from .model import (
    AmbientMismatchError,
    HiggsChainSpec,
    HiggsObjectModel,
    InvalidArrowError,
    SubobjectEntry,
    Violation,
    chain_sum,
    direct_sum_model,
    realize,
    validate,
)
from .stability import (
    IncompleteTorsionClosureError,
    InvalidModelError,
    Notion,
    PreconditionUnmetError,
    StabilityClass,
    StabilityVerdict,
    gieseker_classify,
    gieseker_classify_by_quotients,
    gieseker_classify_tf_quotients,
    slope_classify,
)
from .filtration import (
    AmbiguousMaximizerError,
    BrokenInvariantError,
    Filtration,
    FiltrationKind,
    Grading,
    NotSemistableError,
    TooLargeError,
    all_harder_narasimhan,
    all_jordan_holder,
    grading,
    harder_narasimhan,
    jordan_holder,
    jordan_holder_census,
    s_equivalent,
    verify_filtration,
)
from .modelfile import LoadedObject, ModelFile, ParseError, load, loads
from .suite import CheckResult, run_suite
from .fuzz import fuzz_objects
from .cli import run

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
