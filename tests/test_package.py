"""The package namespace: every public name resolves on first access."""

import importlib

import pytest

import naplespf

# Every name ``import naplespf`` has exported, by the submodule defining it.
EXPORTED = {
    "characterize": (
        "IntervalConditions SummaryReport WitnessCertificate check_certificate "
        "enumerate_witnesses find_witness restricted_spot_before_occupied "
        "verify_decomposition_lemma verify_main_theorem verify_summary_theorem"
    ).split(),
    "classify": (
        "CompleteEquivalences SpotBound cars_parked_before check_p_minus_1 "
        "complete_naples_equivalences is_complete is_k_naples is_parking_function "
        "is_permutation_invariant minimal_naples_k necessary_excess_bound "
        "nonincreasing_sufficiency quantitative_bound"
    ).split(),
    "core": (
        "ExcessProfile ParkingPreference critical_intervals decompose_at excess "
        "multiplicities restrict restrict_shift shift"
    ).split(),
    "errors": (
        "EmptyIndexSet InvalidPreference LengthMismatch NotComplete NotMaximalInterval "
        "NotNonincreasing NotZeroExcess ParkingError PreconditionFailed ShiftOutOfRange "
        "SizeLimitExceeded TooShort UnknownProperty VerificationFailed"
    ).split(),
    "simulator": (
        "UNPARKED CarStep ParkingOutcome ParkingTrace as_windows park park_cars "
        "park_uniform park_with_trace"
    ).split(),
    "sweeps": (
        "PREDICATES PROPERTIES TRUE_PROPERTIES Counterexample CountReport "
        "MonotoneWindowViolation count_perm_invariant_fast find_counterexample "
        "find_monotone_window_violation iter_preferences sweep verify_sweep"
    ).split(),
}
PAIRS = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", PAIRS, ids=[name for _, name in PAIRS])
def test_name_is_the_submodule_object(module, name):
    source = importlib.import_module(f"naplespf.{module}")
    assert getattr(naplespf, name) is getattr(source, name)


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_submodule_is_an_attribute(module):
    assert getattr(naplespf, module) is importlib.import_module(f"naplespf.{module}")


def test_version():
    assert naplespf.__version__ == "0.1.0"


def test_predicates_have_one_home():
    from naplespf import core, sweeps

    assert naplespf.PREDICATES is sweeps.PREDICATES is core.PREDICATES


def test_all_lists_every_export_and_submodule():
    expected = {name for _, name in PAIRS} | set(EXPORTED)
    assert sorted(naplespf.__all__) == sorted(expected)
    assert expected <= set(dir(naplespf))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from naplespf import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(naplespf.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        naplespf.no_such_name
