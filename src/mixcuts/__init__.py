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
    complement,
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
    MixingSequence,
    all_mixing_cuts,
    column_oracle,
    mix_star_cuts,
    mixing_cut,
    quantile_lower_bounds,
    reduce_lower_bounds,
    separate_mixing,
)
from .aggregated import (
    HullDiagnosis,
    SubsequenceDecomposition,
    aggregated_cut,
    decompose,
    diagnose,
    l_theta,
    linking_oracle,
    separate,
    separate_aggregated,
    sequences,
)
from .vertices import (
    MembershipResult,
    VRepresentation,
    check_validity,
    membership,
    v_representation,
)
from .counterexample import (
    certify_witness,
    find_minimal_U,
    witness,
    witness_c1,
    witness_c2,
    witness_lw,
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
