"""Witness certificates for k-Naples membership.

A preference parks under the k-Naples rule exactly when every maximal
critical interval [p, q] admits a witness: a set J of cars, all preferring
spots in [p, p-2+|J|], whose restriction shifted down by p-2 is a complete
preference that itself parks under the rule.  One polynomial extraction from
a local parking process finds a witness or proves there is none, for every
preference.  The one exhaustive subset scan, :func:`_witness_subsets`, lists
every witness for :func:`enumerate_witnesses` and is the oracle the
verification sweep checks the extraction against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .classify import is_complete, is_k_naples
from .core import ParkingPreference, _as_int, excess, restrict_shift
from .errors import (
    NotMaximalInterval,
    PreconditionFailed,
    SizeLimitExceeded,
    VerificationFailed,
)
from .simulator import _check_window, park_cars

__all__ = [
    "WitnessCertificate",
    "check_certificate",
    "find_witness",
    "enumerate_witnesses",
    "verify_main_theorem",
    "verify_decomposition_lemma",
    "restricted_spot_before_occupied",
    "IntervalConditions",
    "SummaryReport",
    "verify_summary_theorem",
]

# Witness enumeration scans up to 2^n subsets.
_SUBSET_SEARCH_CAP = 12


@dataclass(frozen=True)
class WitnessCertificate:
    """A witness for one maximal critical interval [p, q].

    ``indices`` is the increasing set J of (1-based) car indices and
    ``shifted_restriction`` the preference they induce after shifting down by
    p-2.  A valid certificate has every chosen car preferring a spot in
    [p, p-2+|J|], a complete shifted restriction that parks under the
    k-Naples rule, and |J| >= q-p+2.
    """

    interval: tuple[int, int]
    indices: tuple[int, ...]
    shifted_restriction: ParkingPreference


# find_witness, or a memo of it per preference
_Lookup = Callable[..., WitnessCertificate | None]


def _require_maximal_interval(
    pref: ParkingPreference, interval: tuple[int, int]
) -> tuple[int, int]:
    interval = tuple(_as_int(v, "interval end", error=NotMaximalInterval) for v in interval)
    if interval not in excess(pref).intervals:
        raise NotMaximalInterval(
            f"{interval} is not a maximal critical interval of {pref}"
        )
    return interval


def check_certificate(
    pref: ParkingPreference, k: int, cert: WitnessCertificate
) -> bool:
    """Re-verify every certificate invariant from scratch."""
    p, q = cert.interval
    if cert.interval not in excess(pref).intervals:
        return False
    j = cert.indices
    if not j or list(j) != sorted(set(j)) or j[0] < 1 or j[-1] > pref.n:
        return False
    h = len(j)
    if h < q - p + 2:
        return False
    if any(not p <= pref.prefs[i - 1] <= p - 2 + h for i in j):
        return False
    sr = restrict_shift(pref, j, p - 2)
    if sr != cert.shifted_restriction:
        return False
    return is_complete(sr) and is_k_naples(sr, k)


def find_witness(
    pref: ParkingPreference, k: int, interval: tuple[int, int]
) -> WitnessCertificate | None:
    """Witness for one maximal critical interval, or None when none exists.

    Parks the cars preferring a spot >= p-1 (none prefer p-1 itself), shifted
    down by p-2, as a standalone preference, and walks its spots from 1 to
    the first M closed off by its own traffic: every spot in [1, M] is held
    by a car preferring a spot in [1, M].  Those cars are the witness.  An
    empty spot before that cut means spot p-1 stays empty in the process
    restricted to the cars preferring spots >= p, so no witness exists.
    This runs in O(n^2) for members and non-members alike; on members it
    returns the certificate read off their parking process.

    >>> alpha = ParkingPreference((8, 4, 7, 1, 6, 8, 7, 5, 10, 1))
    >>> find_witness(alpha, 2, (4, 7)).indices
    (2, 3, 5, 7, 8)
    >>> find_witness(ParkingPreference((2, 3, 3)), 1, (2, 3)) is None
    True
    """
    _check_window(k, 1)
    p, q = _require_maximal_interval(pref, interval)
    hat = [i for i in range(1, pref.n + 1) if pref.prefs[i - 1] >= p - 1]
    beta = [pref.prefs[i - 1] - (p - 2) for i in hat]
    spots = park_cars(beta, k, len(beta))
    pref_at = {s: a for a, s in zip(beta, spots) if s is not None}
    # Every beta is at most len(beta), so the walk cuts at len(beta) at the
    # latest once every spot is filled.
    running_max = 0
    for m_cut in range(1, len(beta) + 1):
        if m_cut not in pref_at:
            return None
        running_max = max(running_max, pref_at[m_cut])
        if running_max <= m_cut:
            break
    indices = tuple(
        orig for orig, s in zip(hat, spots) if s is not None and s <= m_cut
    )
    cert = WitnessCertificate((p, q), indices, restrict_shift(pref, indices, p - 2))
    if not check_certificate(pref, k, cert):
        raise VerificationFailed(
            f"extracted witness {indices} for {(p, q)} of {pref} fails "
            f"check_certificate with window {k}",
            cert,
        )
    return cert


def _witness_subsets(
    prefs: tuple[int, ...], k: int, p: int, q: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every witness for [p, q] as (indices, shifted restriction) pairs.

    Scans the subsets of the cars preferring a spot >= p in increasing
    bitmask order over that pool, bit b standing for the pool's b-th car.
    """
    pool = [(i, a - (p - 2)) for i, a in enumerate(prefs, start=1) if a >= p]
    for mask in range(1, 1 << len(pool)):
        h = mask.bit_count()
        if h < q - p + 2:
            continue
        chosen = [car for b, car in enumerate(pool) if mask >> b & 1]
        beta = tuple(a for _, a in chosen)  # each >= 2
        if max(beta) > h:
            continue
        # complete: u(j) = j-1 - #{beta < j} >= 1 for j = 2..h, that is,
        # the (j-1)-th smallest entry is >= j
        ranked = sorted(beta)
        if any(ranked[i] < i + 2 for i in range(h - 1)):
            continue
        if None in park_cars(beta, k, h):
            continue
        yield tuple(i for i, _ in chosen), beta


def enumerate_witnesses(
    pref: ParkingPreference, k: int, interval: tuple[int, int]
) -> list[WitnessCertificate]:
    """All witnesses for one interval, ordered by subset bitmask rank.

    Scans every subset of the cars preferring a spot >= p, so it raises
    :class:`~naplespf.errors.SizeLimitExceeded` above n = 12.
    """
    _check_window(k, 1)
    p, q = _require_maximal_interval(pref, interval)
    if pref.n > _SUBSET_SEARCH_CAP:
        raise SizeLimitExceeded(
            f"witness enumeration is capped at n <= {_SUBSET_SEARCH_CAP}"
        )
    return [
        WitnessCertificate((p, q), indices, ParkingPreference(beta))
        for indices, beta in _witness_subsets(pref.prefs, k, p, q)
    ]


def verify_main_theorem(pref: ParkingPreference, k: int) -> bool:
    """True when every maximal critical interval has a witness.

    This is equivalent to the preference parking under the uniform k-Naples
    rule; the function checks that and raises
    :class:`~naplespf.errors.VerificationFailed` when the two disagree.
    """
    _check_window(k, 1)
    result = _witnessed(pref, k, find_witness)
    if result != is_k_naples(pref, k):
        raise VerificationFailed(
            f"witnesses ({result}) and parking disagree on {pref} with window {k}",
            (pref, k),
        )
    return result


def _witnessed(pref: ParkingPreference, k: int, witness: _Lookup) -> bool:
    return all(witness(pref, k, iv) is not None for iv in excess(pref).intervals)


def verify_decomposition_lemma(pref: ParkingPreference, k: int, j: int) -> bool:
    """Check that the upper part of a member splits off as a member.

    For a preference that parks and a position j with excess 0, the cars
    preferring a spot >= j, shifted down by j-1, must again park under the
    same rule; :class:`~naplespf.errors.VerificationFailed` is raised if they
    do not.  The analogous claim for the lower part is false in general, and
    the cars of the upper part may still park below j in the original process.
    """
    j = _as_int(j, "position")
    if not is_k_naples(pref, k):
        raise PreconditionFailed(f"{pref} does not park with window {k}")
    if not 1 <= j <= pref.n or excess(pref).u(j) != 0:
        raise PreconditionFailed(f"excess at position {j} must be 0")
    if not _upper_part_parks(pref, k, j):
        raise VerificationFailed(
            f"upper part of {pref} at {j} does not park with window {k}", (pref, k, j)
        )
    return True


def _upper_part_parks(pref: ParkingPreference, k: int, j: int) -> bool:
    """Whether the cars preferring spots >= j, shifted down by j-1, park."""
    upper = [a - (j - 1) for a in pref.prefs if a >= j]
    return None not in park_cars(upper, k, len(upper))


def restricted_spot_before_occupied(pref: ParkingPreference, k: int, p: int) -> bool:
    """Whether spot p-1 fills when only cars preferring spots >= p run.

    The restricted cars keep their original relative order and park on the
    full street under the same uniform rule.
    """
    p = _as_int(p, "interval start")
    sub = [a for a in pref.prefs if a >= p]
    spots = park_cars(sub, k, pref.n)
    return (p - 1) in {s for s in spots if s is not None}


@dataclass(frozen=True)
class IntervalConditions:
    """Both membership conditions evaluated on one critical interval."""

    interval: tuple[int, int]
    size: int
    auto: bool  # size <= k: both conditions hold for free
    spot_before_occupied: bool
    witness: WitnessCertificate | None

    @property
    def satisfied(self) -> bool:
        return self.witness is not None


@dataclass(frozen=True)
class SummaryReport:
    """Per-interval conditions plus overall membership."""

    k: int
    k_naples: bool
    intervals: tuple[IntervalConditions, ...]

    @property
    def consistent(self) -> bool:
        """All cross-checks between the conditions and membership hold."""
        rows = ((c.interval, c.spot_before_occupied, c.witness) for c in self.intervals)
        return _summary_consistent(self.k, self.k_naples, rows)


def _summary_rows(
    pref: ParkingPreference, k: int, witness: _Lookup
) -> Iterator[tuple[tuple[int, int], bool, WitnessCertificate | None]]:
    """Per maximal interval: (interval, spot p-1 fills, witness or None).

    Rows are made one at a time, so a check that stops early skips the rest.
    """
    for p, q in excess(pref).intervals:
        before = restricted_spot_before_occupied(pref, k, p)
        yield (p, q), before, witness(pref, k, (p, q))


def _summary_consistent(k: int, naples: bool, rows: Iterable[tuple]) -> bool:
    """The summary theorem on (interval, spot p-1 fills, witness) rows.

    The two conditions agree on every interval and hold on each interval of
    at most k positions, and the preference parks exactly when every
    interval has a witness.
    """
    witnessed_all = True
    for (p, q), before, cert in rows:
        witnessed = cert is not None
        if before != witnessed or (q - p + 1 <= k and not witnessed):
            return False
        witnessed_all = witnessed_all and witnessed
    return naples == witnessed_all


def verify_summary_theorem(pref: ParkingPreference, k: int) -> SummaryReport:
    """Evaluate both membership conditions on every critical interval.

    For each maximal interval [p, q]: (a) restricted to cars preferring
    spots >= p, spot p-1 fills; (b) a witness with at least q-p+2 cars
    exists.  The two agree on every interval, hold automatically when the
    interval has at most k positions, and the preference parks exactly when
    every interval longer than k satisfies them.  All of this is checked,
    and :class:`~naplespf.errors.VerificationFailed` carries a report that
    breaks it.
    """
    _check_window(k, 1)
    conditions = tuple(
        IntervalConditions((p, q), q - p + 1, q - p + 1 <= k, before, cert)
        for (p, q), before, cert in _summary_rows(pref, k, find_witness)
    )
    report = SummaryReport(k, is_k_naples(pref, k), conditions)
    if not report.consistent:
        raise VerificationFailed(
            f"summary conditions inconsistent on {pref} with window {k}", report
        )
    return report

