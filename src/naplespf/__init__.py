"""Parking preferences under the k-Naples rule.

Simulation of the parking process (uniform or per-car backward windows), the
excess calculus with its critical intervals, structural classification
(parking function, k-Naples member, complete, permutation-invariant),
witness-certificate extraction, and exhaustive counting/verification sweeps.

``import naplespf`` loads no submodule.  Each public name, the six
submodules included, is imported from the submodule that defines it on
first access (PEP 562), so a caller pays only for the modules it uses:
``naplespf.park`` loads :mod:`naplespf.simulator` and what it needs, and
``naplespf.sweep`` loads :mod:`naplespf.sweeps` too.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names the package takes from it.
_EXPORTS = {
    "characterize": (
        "IntervalConditions",
        "SummaryReport",
        "WitnessCertificate",
        "check_certificate",
        "enumerate_witnesses",
        "find_witness",
        "restricted_spot_before_occupied",
        "verify_decomposition_lemma",
        "verify_main_theorem",
        "verify_summary_theorem",
    ),
    "classify": (
        "CompleteEquivalences",
        "SpotBound",
        "cars_parked_before",
        "check_p_minus_1",
        "complete_naples_equivalences",
        "is_complete",
        "is_k_naples",
        "is_parking_function",
        "is_permutation_invariant",
        "minimal_naples_k",
        "necessary_excess_bound",
        "nonincreasing_sufficiency",
        "quantitative_bound",
    ),
    "core": (
        "PREDICATES",
        "ExcessProfile",
        "ParkingPreference",
        "critical_intervals",
        "decompose_at",
        "excess",
        "multiplicities",
        "restrict",
        "restrict_shift",
        "shift",
    ),
    "errors": (
        "EmptyIndexSet",
        "InvalidPreference",
        "LengthMismatch",
        "NotComplete",
        "NotMaximalInterval",
        "NotNonincreasing",
        "NotZeroExcess",
        "ParkingError",
        "PreconditionFailed",
        "ShiftOutOfRange",
        "SizeLimitExceeded",
        "TooShort",
        "UnknownProperty",
        "VerificationFailed",
    ),
    "simulator": (
        "UNPARKED",
        "CarStep",
        "ParkingOutcome",
        "ParkingTrace",
        "as_windows",
        "park",
        "park_cars",
        "park_uniform",
        "park_with_trace",
    ),
    "sweeps": (
        "PROPERTIES",
        "TRUE_PROPERTIES",
        "Counterexample",
        "CountReport",
        "MonotoneWindowViolation",
        "count_perm_invariant_fast",
        "find_counterexample",
        "find_monotone_window_violation",
        "iter_preferences",
        "sweep",
        "verify_sweep",
    ),
}

# public name -> the submodule that defines it; a submodule maps to itself
_HOME = {
    name: module
    for module, names in _EXPORTS.items()
    for name in (module, *names)
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
