"""Exact cut generation, separation and hull verification for joint mixing
sets with a linking constraint."""

from .core import (
    AllZeroCut,
    ConditionViolated,
    CutKind,
    DimensionMismatch,
    DomainError,
    EpsilonViolated,
    GroundSetTooLarge,
    InternalInvariant,
    InvalidSequence,
    LinearCut,
    LowerBoundsNotReduced,
    MixcutsError,
    MixingInstance,
    ParseError,
    PreconditionFailed,
    RiskOutOfRange,
    SequenceTheta,
    ValidationError,
    format_rational,
    load_instance,
    loads_instance,
    parse_rational,
    serialize_instance,
)
from .submodular import (
    PolymatroidVertex,
    SetFunctionOracle,
    greedy_vertex,
    max_sum_oracle,
)
from .mixing import (
    all_mixing_cuts,
    mix_star_cuts,
    quantile_lower_bounds,
    reduce_lower_bounds,
    separate_mixing,
)
from .aggregated import (
    HullDiagnosis,
    aggregated_cut,
    diagnose,
    separate,
    separate_aggregated,
    sequences,
)
from .vertices import (
    MembershipResult,
    VRepresentation,
    check_validity,
    decompose,
    membership,
    v_representation,
)
from .counterexample import (
    certify_witness,
    witness,
)
from .hull import (
    SufficiencyReport,
    check_sufficiency,
    hull_cut_family,
)
from .twosided import (
    BandedHullReport,
    TwoSidedData,
    generalized_cut,
    hull_with_bounds,
    to_mixing,
)

__version__ = "0.1.0"
