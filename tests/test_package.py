"""The package namespace: every public name resolves on first access, and
every argument that must be an integer is checked as one."""

import importlib

import numpy as np
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


P = naplespf.ParkingPreference

# A public call per argument that must be an integer, each with that argument
# non-integral, and the error it raises: truncating 2.5 to 2, or a bare
# TypeError from inside the library, would pass a wrong answer on silently.
NON_INTEGRAL = {
    "is_k_naples-k": (lambda: naplespf.is_k_naples(P((2, 3, 3)), 2.5), ValueError),
    "park_uniform-k": (lambda: naplespf.park_uniform(P((2, 3, 3)), 1.9), ValueError),
    "complete_naples_equivalences-k": (
        lambda: naplespf.complete_naples_equivalences(P((2, 3, 3)), 1.5),
        ValueError,
    ),
    "quantitative_bound-k": (lambda: naplespf.quantitative_bound(P((2, 3, 3)), 1.5), ValueError),
    "cars_parked_before-k": (
        lambda: naplespf.cars_parked_before(P((4, 4, 3, 2, 3)), 1.5, 4),
        ValueError,
    ),
    "cars_parked_before-j": (
        lambda: naplespf.cars_parked_before(P((4, 4, 3, 2, 3)), 1, 4.5),
        ValueError,
    ),
    "restrict-index": (lambda: naplespf.restrict(P((2, 1)), [1.5]), ValueError),
    "find_witness-interval": (
        lambda: naplespf.find_witness(P((2, 3, 3)), 2, (2.5, 3)),
        naplespf.NotMaximalInterval,
    ),
    "enumerate_witnesses-interval": (
        lambda: list(naplespf.enumerate_witnesses(P((2, 3, 3)), 2, (2, 3.0))),
        naplespf.NotMaximalInterval,
    ),
    "restricted_spot_before_occupied-p": (
        lambda: naplespf.restricted_spot_before_occupied(P((2, 3, 3)), 1, 2.5),
        ValueError,
    ),
    "park_cars-n_spots": (lambda: naplespf.park_cars([1, 2], 0, 2.5), ValueError),
    "park_cars-prefs": (lambda: naplespf.park_cars([1.5, 2], 0, 2), naplespf.InvalidPreference),
    "decompose_at-j": (lambda: naplespf.decompose_at(P((4, 4, 3, 2, 3)), 3.5), ValueError),
    "verify_decomposition_lemma-j": (
        lambda: naplespf.verify_decomposition_lemma(P((4, 4, 3, 2, 3)), 2, 4.0),
        ValueError,
    ),
    "sweep-n": (lambda: naplespf.sweep(2.0, 1), ValueError),
    "sweep-k": (lambda: naplespf.sweep(3, 1.5), ValueError),
    "sweep-shards": (lambda: naplespf.sweep(3, 1, shards=1.5), ValueError),
    "count_perm_invariant_fast-n": (lambda: naplespf.count_perm_invariant_fast(2.0, 1), ValueError),
    "count_perm_invariant_fast-k": (lambda: naplespf.count_perm_invariant_fast(3, 1.5), ValueError),
    "verify_sweep-n": (lambda: naplespf.verify_sweep(2.0), ValueError),
    "iter_preferences-n": (lambda: naplespf.iter_preferences(2.0), ValueError),
    "find_counterexample-n_max": (
        lambda: naplespf.find_counterexample(2.0, 1, "tail_lemma"),
        ValueError,
    ),
    "find_counterexample-k_max": (
        lambda: naplespf.find_counterexample(2, 1.0, "tail_lemma"),
        ValueError,
    ),
    "find_monotone_window_violation-n_max": (
        lambda: naplespf.find_monotone_window_violation(1.5),
        ValueError,
    ),
}


@pytest.mark.parametrize("call, error", NON_INTEGRAL.values(), ids=list(NON_INTEGRAL))
def test_non_integral_argument_raises(call, error):
    with pytest.raises(error, match="integer"):
        call()


# The same calls with integral arguments, made by ``i``: numpy integers pass
# wherever ints do, with the same answer.
INTEGRAL = {
    "is_k_naples": lambda i: naplespf.is_k_naples(P((2, 3, 3)), i(2)),
    "cars_parked_before": lambda i: naplespf.cars_parked_before(P((4, 4, 3, 2, 3)), i(1), i(4)),
    "restrict": lambda i: naplespf.restrict(P((2, 1)), [i(1)]),
    "find_witness": lambda i: naplespf.find_witness(P((2, 3, 3)), i(2), (i(2), i(3))),
    "restricted_spot_before_occupied": lambda i: naplespf.restricted_spot_before_occupied(
        P((2, 3, 3)), i(1), i(2)
    ),
    "park_cars": lambda i: naplespf.park_cars([i(1), i(2)], i(0), i(2)),
    "decompose_at": lambda i: naplespf.decompose_at(P((4, 4, 3, 2, 3)), i(4)),
    "verify_decomposition_lemma": lambda i: naplespf.verify_decomposition_lemma(
        P((4, 4, 3, 2, 3)), i(2), i(4)
    ),
    "sweep": lambda i: naplespf.sweep(i(3), i(1), shards=i(2)).counts,
    "count_perm_invariant_fast": lambda i: naplespf.count_perm_invariant_fast(i(3), i(1)),
    "verify_sweep": lambda i: naplespf.verify_sweep(i(3)),
    "iter_preferences": lambda i: list(naplespf.iter_preferences(i(2))),
    "find_counterexample": lambda i: naplespf.find_counterexample(
        i(3), i(1), "excess_bound_is_sufficient"
    ),
    "find_monotone_window_violation": lambda i: naplespf.find_monotone_window_violation(i(3)),
}


@pytest.mark.parametrize("call", INTEGRAL.values(), ids=list(INTEGRAL))
def test_numpy_integer_arguments_pass(call):
    assert call(np.int64) == call(int)
