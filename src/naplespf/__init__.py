"""Parking preferences under the k-Naples rule.

Simulation of the parking process (uniform or per-car backward windows), the
excess calculus with its critical intervals, structural classification
(parking function, k-Naples member, complete, permutation-invariant),
witness-certificate extraction, and exhaustive counting/verification sweeps.
"""

from .characterize import (
    IntervalConditions,
    SummaryReport,
    WitnessCertificate,
    check_certificate,
    enumerate_witnesses,
    find_witness,
    restricted_spot_before_occupied,
    verify_decomposition_lemma,
    verify_main_theorem,
    verify_summary_theorem,
)
from .classify import (
    CompleteEquivalences,
    SpotBound,
    cars_parked_before,
    check_p_minus_1,
    complete_naples_equivalences,
    is_complete,
    is_k_naples,
    is_parking_function,
    is_permutation_invariant,
    minimal_naples_k,
    necessary_excess_bound,
    nonincreasing_sufficiency,
    quantitative_bound,
)
from .core import (
    ExcessProfile,
    ParkingPreference,
    critical_intervals,
    decompose_at,
    excess,
    multiplicities,
    restrict,
    restrict_shift,
    shift,
)
from .errors import (
    EmptyIndexSet,
    InvalidPreference,
    LengthMismatch,
    NotComplete,
    NotMaximalInterval,
    NotNonincreasing,
    NotZeroExcess,
    ParkingError,
    PreconditionFailed,
    ShiftOutOfRange,
    SizeLimitExceeded,
    TooShort,
    UnknownProperty,
    VerificationFailed,
)
from .simulator import (
    UNPARKED,
    CarStep,
    ParkingOutcome,
    ParkingTrace,
    as_windows,
    park,
    park_cars,
    park_uniform,
    park_with_trace,
)
from .sweeps import (
    PREDICATES,
    PROPERTIES,
    TRUE_PROPERTIES,
    Counterexample,
    CountReport,
    MonotoneWindowViolation,
    count_perm_invariant_fast,
    find_counterexample,
    find_monotone_window_violation,
    iter_preferences,
    sweep,
    verify_sweep,
)

__version__ = "0.1.0"
