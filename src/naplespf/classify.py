"""Predicates on parking preferences.

Wherever a structural characterization exists the predicate is computed from
the excess profile alone (no simulation); the parking process then serves as
an independent cross-check.  Keeping both routes executable is the point:
every classification here can be validated against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ParkingPreference, excess
from .errors import (
    NotComplete,
    NotNonincreasing,
    TooShort,
    VerificationFailed,
)
from .simulator import ParkingOutcome, _check_window, park_uniform

__all__ = [
    "is_parking_function",
    "is_k_naples",
    "check_p_minus_1",
    "necessary_excess_bound",
    "nonincreasing_sufficiency",
    "is_complete",
    "CompleteEquivalences",
    "complete_naples_equivalences",
    "SpotBound",
    "quantitative_bound",
    "cars_parked_before",
    "is_permutation_invariant",
    "minimal_naples_k",
]


def is_parking_function(pref: ParkingPreference) -> bool:
    """True when every car parks under the classical (forward-only) rule.

    Equivalent to the excess being <= 0 everywhere, which is how it is
    computed; the classical process is run as a cross-check, and
    :class:`~naplespf.errors.VerificationFailed` is raised if the two disagree.

    >>> is_parking_function(ParkingPreference((3, 1, 3, 5, 2, 4, 2)))
    True
    >>> is_parking_function(ParkingPreference((2, 3, 3)))
    False
    """
    result = excess(pref).is_empty
    if result != park_uniform(pref, 0).all_parked:
        raise VerificationFailed(f"excess and parking disagree on {pref}", (pref, 0))
    return result


def is_k_naples(pref: ParkingPreference, k: int) -> bool:
    """True when every car parks under the uniform k-Naples rule."""
    return park_uniform(pref, k).all_parked


def check_p_minus_1(pref: ParkingPreference, k: int) -> bool:
    """Membership test via the critical spots just below each interval.

    Runs the process and checks that for every maximal critical interval
    [p, q] the spot p-1 ends up occupied.  This holds exactly when the whole
    preference parks; :class:`~naplespf.errors.VerificationFailed` is raised
    if it does not.
    """
    _check_window(k, 1)
    outcome = park_uniform(pref, k)
    result = _spots_below_filled(pref, outcome)
    if result != outcome.all_parked:
        raise VerificationFailed(
            f"spots p-1 and parking disagree on {pref} with window {k}", (pref, k)
        )
    return result


def _spots_below_filled(pref: ParkingPreference, outcome: ParkingOutcome) -> bool:
    """Whether spot p-1 is occupied for every maximal interval [p, q]."""
    return all(p - 1 in outcome.spot_of for p, _q in excess(pref).intervals)


def necessary_excess_bound(pref: ParkingPreference, k: int) -> bool:
    """True when the excess never exceeds k.

    Necessary for parking under the k-Naples rule, but not sufficient:
    (2,3,3) satisfies the bound for k=1 yet fails to park.
    """
    _check_window(k)
    return excess(pref).max_excess <= k


def nonincreasing_sufficiency(pref: ParkingPreference, k: int) -> bool:
    """For nonincreasing preferences the excess bound decides membership."""
    if any(a < b for a, b in zip(pref.prefs, pref.prefs[1:])):
        raise NotNonincreasing(f"{pref} is not nonincreasing")
    return necessary_excess_bound(pref, k)


def is_complete(pref: ParkingPreference) -> bool:
    """True when every position after the first is critical (excess >= 1).

    The map a -> n+1-a takes the complete preferences of [n]^n onto Gessel's
    prime parking functions, those b with #{i : b_i <= m} >= m+1 for
    1 <= m < n, so there are (n-1)^(n-1) of them.

    >>> is_complete(ParkingPreference((5, 3, 3, 5, 4)))
    True
    >>> is_complete(ParkingPreference((5, 3, 3, 4, 4)))
    False
    """
    if pref.n < 2:
        raise TooShort("completeness needs at least two cars")
    return excess(pref).intervals == ((2, pref.n),)


@dataclass(frozen=True)
class CompleteEquivalences:
    """The three equivalent ways a complete preference parks fully.

    For complete preferences these must agree: all cars park iff every spot
    is held by a car preferring it or a later spot iff no car ends up past
    its preference.

    ``agree`` cannot catch a fault in the backward-occupancy leg alone.
    When all n cars hold distinct spots, backward occupancy says the same
    as a bounded outcome; otherwise some spot is empty and both are False.
    So the field itself is checked: a test run under ``python -O`` pins
    it, and the verification engine's own mask of this leg is compared
    with it on every preference up to n = 4, where the other legs do not
    imply it.
    """

    all_parked: bool
    backward_occupancy: bool
    outcome_bounded: bool

    @property
    def agree(self) -> bool:
        return self.all_parked == self.backward_occupancy == self.outcome_bounded


def complete_naples_equivalences(
    pref: ParkingPreference, k: int
) -> CompleteEquivalences:
    """Evaluate all three membership conditions for a complete preference.

    Raises :class:`~naplespf.errors.VerificationFailed`, carrying the
    report, when the three disagree.
    """
    if not is_complete(pref):
        raise NotComplete(f"{pref} is not complete")
    report = _equivalences(pref, park_uniform(pref, k))
    if not report.agree:
        raise VerificationFailed(
            f"membership conditions disagree on {pref} with window {k}", report
        )
    return report


def _equivalences(
    pref: ParkingPreference, outcome: ParkingOutcome
) -> CompleteEquivalences:
    occupant = outcome.occupant_of()
    backward = all(
        j in occupant and pref.prefs[occupant[j] - 1] >= j
        for j in range(1, pref.n + 1)
    )
    bounded = all(
        s is not None and s <= a for a, s in zip(pref.prefs, outcome.spot_of)
    )
    return CompleteEquivalences(outcome.all_parked, backward, bounded)


def cars_parked_before(pref: ParkingPreference, k: int, j: int) -> int:
    """Number of cars preferring a spot >= j that park strictly before j."""
    return _parked_before(pref, park_uniform(pref, k), j)


def _parked_before(pref: ParkingPreference, outcome: ParkingOutcome, j: int) -> int:
    return sum(
        1
        for a, s in zip(pref.prefs, outcome.spot_of)
        if a >= j and s is not None and s < j
    )


@dataclass(frozen=True)
class SpotBound:
    """Backward traffic through one position versus its excess."""

    spot: int
    parked_before: int
    excess: int


def quantitative_bound(pref: ParkingPreference, k: int) -> tuple[SpotBound, ...]:
    """Per-spot backward-parking counts for a complete preference.

    For each position j, at most u(j) cars preferring a spot >= j can park
    strictly before j, with equality at every position when the whole
    preference parks.  :class:`~naplespf.errors.VerificationFailed`, carrying
    the rows, is raised when either fails.
    """
    if not is_complete(pref):
        raise NotComplete(f"{pref} is not complete")
    outcome = park_uniform(pref, k)
    rows = _spot_bounds(pref, outcome)
    if not _bounds_hold(rows, outcome.all_parked):
        raise VerificationFailed(
            f"backward traffic and excess disagree on {pref} with window {k}", rows
        )
    return rows


def _spot_bounds(
    pref: ParkingPreference, outcome: ParkingOutcome
) -> tuple[SpotBound, ...]:
    prof = excess(pref)
    return tuple(
        SpotBound(j, _parked_before(pref, outcome, j), prof.u(j))
        for j in range(1, pref.n + 1)
    )


def _bounds_hold(rows: tuple[SpotBound, ...], all_parked: bool) -> bool:
    return all(
        r.parked_before == r.excess if all_parked else r.parked_before <= r.excess
        for r in rows
    )


def is_permutation_invariant(pref: ParkingPreference, k: int) -> bool:
    """True when every rearrangement parks under the uniform k-Naples rule.

    Computed structurally: this holds exactly when every maximal critical
    interval has length <= k.  The criterion only depends on how many cars
    prefer each spot, so it is rearrangement-invariant by construction.
    :func:`~naplespf.sweeps.verify_sweep` checks it against brute force: it
    parks every preference of [n]^n, so every rearrangement of each multiset.

    >>> is_permutation_invariant(ParkingPreference((2, 3, 3)), 1)
    False
    >>> is_permutation_invariant(ParkingPreference((2, 3, 3)), 2)
    True
    """
    _check_window(k)
    return excess(pref).max_interval_length() <= k


def minimal_naples_k(pref: ParkingPreference) -> int:
    """Smallest uniform backward window under which every car parks.

    The excess profile brackets the answer: parking under window k forces
    excess <= k everywhere, so it is at least the maximum excess, and with
    every maximal critical interval of length <= k every rearrangement
    parks, so it is at most the longest interval's length.  Membership is
    monotone in k (every k-Naples preference is (k+1)-Naples), so the
    window is found by bisection inside that bracket, parking each window
    at most once.  The answer is then confirmed by parking: the preference
    parks at it and, above 0, not one below; when either fails,
    :class:`~naplespf.errors.VerificationFailed` is raised.
    """
    prof = excess(pref)
    bottom, top = prof.max_excess, prof.max_interval_length()  # bottom >= u(1) = 0
    lo, hi = bottom, top
    while lo < hi:
        mid = (lo + hi) // 2
        if is_k_naples(pref, mid):
            hi = mid
        else:
            lo = mid + 1
    # Below the top the bisection has parked lo, above the bottom lo - 1:
    # only the ends of the bracket are left to park.
    if (lo == top and not is_k_naples(pref, lo)) or (
        lo == bottom and lo > 0 and is_k_naples(pref, lo - 1)
    ):
        raise VerificationFailed(
            f"minimal window {lo} from the excess bracket is not confirmed by "
            f"parking {pref}",
            (pref, lo),
        )
    return lo
