"""Exhaustive sweeps over all preferences of a given length.

Three jobs: counting tables (how many preferences satisfy each predicate),
a verification harness that machine-checks every structural fact this
package relies on over all of [n]^n, and a falsification hook that hunts
for counterexamples to a named property.

Preferences are visited in odometer order (last entry fastest), split into
contiguous rank ranges that are counted one after another in the calling
thread; counts are plain integer sums, so results do not depend on the
shard count.

Only the commands that count or verify load this module: ``import
naplespf`` resolves its names on first access, and the CLI imports it inside
``count`` and ``sweep``.  So :data:`PREDICATES`, which every command may
name, is defined in :mod:`naplespf.core` and re-exported here.  numpy and
:mod:`naplespf._kernels` load on the first counting call, and with
:mod:`naplespf._verify` on the first :func:`verify_sweep` call, not at
import, so the monotone-window check never pays for them.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import simulator
from .core import PREDICATES, ParkingPreference, _as_int
from .errors import SizeLimitExceeded, UnknownProperty, VerificationFailed
from .simulator import park

__all__ = [
    "PREDICATES",
    "CountReport",
    "sweep",
    "count_perm_invariant_fast",
    "Counterexample",
    "MonotoneWindowViolation",
    "PROPERTIES",
    "TRUE_PROPERTIES",
    "find_counterexample",
    "verify_sweep",
    "find_monotone_window_violation",
    "iter_preferences",
]

MONOTONE_MAX_N = 12  # n <= 12 take ~2 s together on one core; n = 13 alone ~4 s


def iter_preferences(n: int) -> Iterator[tuple[int, ...]]:
    """All preferences of length n in odometer order (last entry fastest).

    ``ValueError`` unless n is an integer of at least 1.
    """
    n = _as_int(n, "n", 1)
    return itertools.product(range(1, n + 1), repeat=n)


@dataclass(frozen=True)
class CountReport:
    """Result of one counting sweep."""

    n: int
    k: int
    total: int
    counts: dict[str, int]
    elapsed: float  # seconds
    shards: int


def _shard_bounds(n: int, shards: int) -> list[int]:
    """Rank bounds of ``shards`` contiguous ranges of [n]^n (shards <= n^n).

    Every bound falls on a prefix boundary of the smallest level d with
    n^d >= shards, so each range is a run of whole d-car prefixes.
    """
    d = 0
    while n**d < shards:
        d += 1
    return [(n**d * i // shards) * n ** (n - d) for i in range(shards + 1)]


def sweep(
    n: int,
    k: int,
    predicates: Iterable[str] | None = None,
    shards: int = 1,
) -> CountReport:
    """Count predicate hits over all n^n preferences under window k.

    ``shards`` splits the rank space into that many contiguous ranges (at
    most n^n, one rank each), counted in rank order in the calling thread;
    the counts are identical for any shard count.  Each range is a run of
    whole prefixes of the same length, counted by
    :func:`naplespf._kernels.count_range`, a weighted DP walked car by car:
    prefixes that reach the same parking state and the same counts of cars
    below each spot are carried once, with their number as a weight.  n
    above 11, where a DP node no longer fits an int64, raises
    :class:`~naplespf.errors.SizeLimitExceeded`.

    >>> sweep(3, 1).counts["k_naples"]
    24
    """
    n, k, shards = _as_int(n, "n", 1), _as_int(k, "k"), _as_int(shards, "shards", 1)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    names = PREDICATES if predicates is None else tuple(predicates)
    unknown = [name for name in names if name not in PREDICATES]
    if unknown:
        raise ValueError(f"unknown predicates: {unknown}; known: {PREDICATES}")

    import numpy as np

    from . import _kernels

    start = time.perf_counter()
    total = n**n
    bounds = _shard_bounds(n, min(shards, total))  # more only adds empty ranges
    acc = np.zeros(_kernels.N_PREDICATES, np.int64)
    for lo, hi in zip(bounds, bounds[1:]):
        _kernels.count_range(n, k, lo, hi, acc)
    counts = {name: int(acc[i]) for i, name in enumerate(PREDICATES) if name in names}
    elapsed = time.perf_counter() - start
    return CountReport(n, k, total, counts, elapsed, shards)


def count_perm_invariant_fast(n: int, k: int, by_class: bool = False) -> int:
    """Count permutation-invariant preferences without visiting all of [n]^n.

    A preference is permutation-invariant under window k exactly when every
    maximal run of positions j with u_j = j - 1 - #{cars preferring < j} >= 1
    is at most k long, which depends only on how many cars prefer each spot.
    A DP over positions j = 1..n tracks (seen, run): seen cars prefer spots
    below j, and run is the length of the current run of u >= 1; it drops
    states whose run exceeds k.  Letting m of the other n - seen cars
    prefer spot j weighs C(n - seen, m), or 1 with ``by_class`` (one class
    per multiset).

    >>> count_perm_invariant_fast(3, 1), count_perm_invariant_fast(3, 1, by_class=True)
    (23, 8)
    """
    n, k = _as_int(n, "n", 1), _as_int(k, "k", 0)
    ways = {(0, 0): 1}  # (seen, run) -> weighted count
    for j in range(1, n + 1):
        after: dict[tuple[int, int], int] = {}
        for (seen, run), weight in ways.items():
            run = run + 1 if j - 1 - seen >= 1 else 0
            if run > k:
                continue
            for m in range(n - seen + 1):
                key = (seen + m, run)
                step = 1 if by_class else math.comb(n - seen, m)
                after[key] = after.get(key, 0) + weight * step
        ways = after
    return sum(weight for (seen, _), weight in ways.items() if seen == n)


# --------------------------------------------------------------------------
# Property registry: every structural fact the package relies on, checked by
# verify_sweep for every preference of [n]^n and window k.  The check of each
# lives in naplespf._verify as one numpy mask over a block of preferences; a
# fact that a public check_* or verify_* function also states keeps that
# scalar body in classify or characterize.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    pref: ParkingPreference
    n: int
    k: int
    property_name: str


@dataclass(frozen=True)
class MonotoneWindowViolation:
    pref: ParkingPreference
    windows: tuple[int, ...]
    car: int  # 1-based car whose window was bumped


@dataclass(frozen=True)
class SweepProperty:
    name: str
    doc: str
    k_min: int = 0
    k_independent: bool = False


_PROPERTY_LIST = [
    SweepProperty(
        "easy_characterization",
        "empty critical set iff the classical rule parks everyone",
        k_independent=True,
    ),
    SweepProperty(
        "excess_formula_agreement",
        "suffix, prefix and recurrence forms of the excess agree; u(j) < j",
        k_independent=True,
    ),
    SweepProperty(
        "elementary_intervals",
        "each maximal interval starts at excess 1 after a zero with no demand "
        "below and at least two cars at the top",
        k_independent=True,
    ),
    SweepProperty(
        "decomposition_excess",
        "splitting at a zero of the excess slices the excess profile",
        k_independent=True,
    ),
    SweepProperty(
        "necessary_excess_bound_is_necessary",
        "parking under window k forces excess <= k everywhere",
    ),
    SweepProperty(
        "excess_bound_is_sufficient",
        "DELIBERATELY FALSE: excess <= k alone does not make a preference park",
    ),
    SweepProperty(
        "nonincreasing_sufficiency",
        "for nonincreasing preferences the excess bound decides membership",
    ),
    SweepProperty(
        "drive_forward",
        "a car parking forward at j splits the street at j; members then "
        "have excess <= -1 at j",
        k_min=1,
    ),
    SweepProperty(
        "p_minus_1_biconditional",
        "membership iff spot p-1 fills for every maximal interval [p, q]",
        k_min=1,
    ),
    SweepProperty(
        "char_complete_equivalence",
        "for complete preferences: parking, backward occupancy and bounded "
        "outcomes coincide",
    ),
    SweepProperty(
        "quantitative_bound",
        "backward traffic through j is at most u(j), with equality for members",
    ),
    SweepProperty(
        "restricted_translated_pf",
        "the upper part of a member at a zero of the excess is again a member",
        k_min=1,
    ),
    SweepProperty(
        "main_characterization",
        "membership iff every maximal interval has a complete witness",
        k_min=1,
    ),
    SweepProperty(
        "witness_size_bound",
        "members have a witness on every maximal interval, with at least "
        "q-p+2 cars; find_witness re-verifies each one and raises "
        "VerificationFailed if the check fails",
        k_min=1,
    ),
    SweepProperty(
        "search_matches_extraction",
        "subset search and constructive extraction agree on witness existence",
        k_min=1,
    ),
    SweepProperty(
        "tail_lemma",
        "in a complete member the last car parks at spot 1 and prefers <= k+1",
        k_min=1,
    ),
    SweepProperty(
        "summary_theorem",
        "spot-before-interval and witness conditions agree, hold for free on "
        "short intervals, and decide membership on the long ones",
        k_min=1,
    ),
    SweepProperty(
        "perm_invariance",
        "all rearrangements park iff every maximal interval has length <= k",
        k_min=1,
    ),
]

PROPERTIES: dict[str, SweepProperty] = {p.name: p for p in _PROPERTY_LIST}

#: Properties expected to hold with zero counterexamples.
TRUE_PROPERTIES = tuple(
    p.name for p in _PROPERTY_LIST if p.name != "excess_bound_is_sufficient"
)


def find_counterexample(
    n_max: int, k_max: int, property_name: str
) -> Counterexample | None:
    """First preference violating a registered property, or None.

    Runs :func:`verify_sweep` for windows 0..k_max at each length in
    increasing order, so e.g. the deliberately false excess-bound property
    yields (2,3,3) at n=3, k=1.  Raises ``ValueError`` for a non-integer, or
    when n_max < 1 or k_max < 0, where there would be nothing to check.
    """
    n_max, k_max = _as_int(n_max, "n_max", 1), _as_int(k_max, "k_max", 0)
    if property_name not in PROPERTIES:
        raise UnknownProperty(
            f"unknown property {property_name!r}; known: {sorted(PROPERTIES)}"
        )
    for n in range(1, n_max + 1):
        ce = verify_sweep(n, range(k_max + 1), (property_name,))
        if ce is not None:
            return ce
    return None


def verify_sweep(
    n: int,
    ks: Sequence[int] | None = None,
    properties: Iterable[str] | None = None,
) -> Counterexample | None:
    """Check every always-true property over all of [n]^n.

    ``ks`` defaults to 1..n; a window-independent property runs once, at its
    least window.  The work is done by :mod:`naplespf._verify`, which loads
    numpy on the first call: [n]^n is walked in blocks of whole prefixes, in
    rank order, one numpy row per preference, and each property is a mask
    over the rows.  The first counterexample is the one at the lowest rank,
    then the first failing property in the order given, then the first
    failing k in the order of ``ks``.  Each rearrangement of a preference is
    one of those rows, so for permutation invariance every outcome is ANDed
    into its multiset's entry, and after the last block each multiset, in
    :func:`itertools.combinations_with_replacement` order, is compared with
    the structural criterion: every maximal interval at most k long.
    Returns the first counterexample or None.  A property that reads an
    extracted witness whose certificate re-check fails raises
    :class:`~naplespf.errors.VerificationFailed` instead, with the
    :class:`Counterexample` (preference, n, k, property) being checked as its
    ``counterexample``.  n or a window that is not an integer, n below 1, or
    a window below 0 raises ``ValueError``.
    """
    n = _as_int(n, "n", 1)
    if ks is None:
        ks = range(1, n + 1)
    names = TRUE_PROPERTIES if properties is None else tuple(properties)
    unknown = [name for name in names if name not in PROPERTIES]
    if unknown:
        raise UnknownProperty(f"unknown properties: {unknown}")
    ks = [simulator._check_window(k) for k in ks]
    checks = []  # (property, k) in the order each preference tries them
    for prop in (PROPERTIES[name] for name in names if name != "perm_invariance"):
        windows = (prop.k_min,) if prop.k_independent else ks
        checks += [(prop.name, k) for k in windows if k >= prop.k_min]
    k_min = PROPERTIES["perm_invariance"].k_min
    perm_ks = [k for k in ks if k >= k_min] if "perm_invariance" in names else []

    from . import _verify

    return _verify.first_counterexample(n, checks, perm_ks)


def _monotone_search(n: int) -> MonotoneWindowViolation | None:
    """Breadth-first search for a monotone-window violation at length n.

    A state is the pair (S, T) of occupied-spot bitmasks that the base run
    and the run with one car's window raised by one leave after the same
    cars.  From (0, 0) each car tries every a in 1..n and w in 0..n, and the
    bump w -> w + 1 only while S == T.  A violation is a car the base run
    parks and the bumped run does not.  A state keeps its first parent; as
    (S, S) precedes each (S, T) and a car is tried unbumped first, each
    rebuilt path bumps one car.
    """
    step, cars, ws = simulator._step, range(1, n + 1), range(n + 2)
    spots: dict[int, list] = {}  # occupied set -> [a - 1][w] -> spot taken
    parent: dict[tuple[int, int], tuple | None] = {(0, 0): None}
    frontier = [(0, 0)]
    for _ in range(n):
        layer = []
        for state in frontier:
            for occ in state:
                if occ not in spots:
                    spots[occ] = [[step(occ, a, w, n) for w in ws] for a in cars]
            s, t = state
            base, bumped = spots[s], spots[t]
            for a, w in itertools.product(cars, range(n + 1)):
                spot = base[a - 1][w]
                if spot is None:
                    continue
                for bump in (0, 1) if s == t else (0,):
                    other = bumped[a - 1][w + bump]
                    if other is None:
                        return _rebuild(parent, state, (a, w, bump), s | 1 << spot, n)
                    nxt = (s | 1 << spot, t | 1 << other)
                    if nxt not in parent:
                        parent[nxt] = (state, (a, w, bump))
                        layer.append(nxt)
        frontier = layer
    return None


def _rebuild(parent: dict, state: tuple, last: tuple, occ: int, n: int):
    """Walk the parents back to (0, 0) and finish the base run, which always
    can: each remaining car prefers the lowest free spot, at window 0, and
    parks there.  The triple is re-checked with :func:`park`."""
    cars = [last]
    while parent[state] is not None:
        state, car = parent[state]
        cars.append(car)
    cars.reverse()
    cars += [(j, 0, 0) for j in range(1, n + 1) if not occ >> j & 1]
    prefs, windows, bumps = zip(*cars)
    pref, car = ParkingPreference(prefs), 1 + bumps.index(1)
    bumped = windows[: car - 1] + (windows[car - 1] + 1,) + windows[car:]
    violation = MonotoneWindowViolation(pref, windows, car)
    if not park(pref, windows).all_parked or park(pref, bumped).all_parked:
        raise VerificationFailed(
            f"monotone-window search hit {pref.prefs} with windows {windows} "
            f"and car {car}, which the simulator does not confirm",
            violation,
        )
    return violation


def find_monotone_window_violation(
    n_max: int = 4,
) -> MonotoneWindowViolation | None:
    """Check that enlarging one car's window never breaks parking.

    Covers every preference and every window vector in [0, n]^n for each n
    up to ``n_max``, by :func:`_monotone_search` over pairs of occupied
    sets; single-step monotonicity extends to pointwise-larger window
    vectors by chaining increments.  A violation, if any, is the first the
    search reaches, not the first in odometer order.  Raises
    :class:`~naplespf.errors.SizeLimitExceeded` above n_max = 12.
    """
    n_max = _as_int(n_max, "n_max", 1)
    if n_max > MONOTONE_MAX_N:
        raise SizeLimitExceeded(
            f"n_max={n_max} above the monotone-window cap {MONOTONE_MAX_N}"
        )
    for n in range(1, n_max + 1):
        violation = _monotone_search(n)
        if violation is not None:
            return violation
    return None
