"""Parking preferences and the excess calculus on them.

A parking preference assigns each of n cars a preferred spot on a one-way
street with n numbered spots.  The excess of a position j measures how many
more cars want a spot >= j than there are spots from j onward; positions with
positive excess are the obstructions that force cars to drive backwards, and
the maximal runs of such positions (the critical intervals) drive everything
else in this package: classification, completeness, and witness extraction.

All values are immutable and all operations are pure functions, so they can
be shared freely across threads.  A preference keeps its excess profile once
:func:`excess` has made it; two threads racing to make it store equal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    EmptyIndexSet,
    InvalidPreference,
    NotZeroExcess,
    ShiftOutOfRange,
)

__all__ = [
    "PREDICATES",
    "ParkingPreference",
    "ExcessProfile",
    "multiplicities",
    "excess",
    "critical_intervals",
    "shift",
    "restrict",
    "restrict_shift",
    "decompose_at",
]

#: The predicates a preference is classified by and counted under, in the
#: counting kernel's slot order.  Defined here, which every CLI command
#: loads, so ``classify --expect`` and ``count --predicates`` can name them
#: without loading :mod:`naplespf.sweeps`.
PREDICATES = (
    "parking_function",
    "k_naples",
    "complete",
    "complete_k_naples",
    "perm_invariant",
)


@dataclass(frozen=True)
class ParkingPreference:
    """Spot preferences for n cars on a street with n spots.

    Entries are 1-based spot indices; car i prefers spot ``prefs[i-1]``.
    Every entry must lie in ``1..n`` and the preference is immutable after
    construction.

    >>> ParkingPreference((3, 1, 3, 5, 2, 4, 2)).n
    7
    >>> ParkingPreference.parse("2,3,3").prefs
    (2, 3, 3)
    """

    prefs: tuple[int, ...]

    # The excess profile, made by the first excess(pref).  Not a field, so
    # ==, hash and repr never see it; __getstate__ leaves it out of pickles.
    _excess = None

    def __post_init__(self) -> None:
        prefs = tuple(map(int, self.prefs))
        object.__setattr__(self, "prefs", prefs)
        n = len(prefs)
        if n == 0:
            raise InvalidPreference("a parking preference needs at least one car")
        if min(prefs) < 1 or max(prefs) > n:
            a = next(a for a in prefs if not 1 <= a <= n)
            raise InvalidPreference(f"preference entry {a} is outside the street 1..{n}")

    @property
    def n(self) -> int:
        return len(self.prefs)

    @classmethod
    def parse(cls, text: str) -> "ParkingPreference":
        """Parse the comma-separated text form, e.g. ``"3,1,3,5,2,4,2"``."""
        entries = []
        for token in text.split(","):
            token = token.strip()
            try:
                entries.append(int(token))
            except ValueError:
                raise InvalidPreference(f"not an integer: {token!r}") from None
        return cls(tuple(entries))

    def render(self) -> str:
        """Comma-separated text form; inverse of :meth:`parse`."""
        return ",".join(str(a) for a in self.prefs)

    def __len__(self) -> int:
        return len(self.prefs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.prefs)

    def __getitem__(self, i: int) -> int:
        return self.prefs[i]

    def __str__(self) -> str:
        return self.render()

    def __getstate__(self) -> dict:
        return {"prefs": self.prefs}


@dataclass(frozen=True)
class ExcessProfile:
    """Excess values u(1..n) plus the maximal runs of positions with u >= 1.

    ``values[j-1]`` is the excess at position j: the number of cars preferring
    a spot >= j minus the number of spots from j onward.  ``intervals`` lists
    the maximal critical intervals as inclusive 1-based pairs (p, q), in
    increasing order.
    """

    values: tuple[int, ...]
    intervals: tuple[tuple[int, int], ...]

    def u(self, j: int) -> int:
        """Excess at 1-based position j."""
        return self.values[j - 1]

    @property
    def max_excess(self) -> int:
        return max(self.values)

    @property
    def is_empty(self) -> bool:
        """True when no position is critical (the classical parking case)."""
        return not self.intervals

    def max_interval_length(self) -> int:
        return max((q - p + 1 for p, q in self.intervals), default=0)


def multiplicities(pref: ParkingPreference) -> tuple[int, ...]:
    """How many cars prefer each spot.

    >>> multiplicities(ParkingPreference((3, 1, 3, 5, 2, 4, 2)))
    (1, 2, 2, 1, 1, 0, 0)
    """
    counts = [0] * pref.n
    for a in pref.prefs:
        counts[a - 1] += 1
    return tuple(counts)


def critical_intervals(values: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Maximal runs of 1-based positions whose excess value is >= 1."""
    runs: list[tuple[int, int]] = []
    start = 0
    for j, u in enumerate(values, start=1):
        if u >= 1:
            if start == 0:
                start = j
        elif start:
            runs.append((start, j - 1))
            start = 0
    if start:
        runs.append((start, len(values)))
    return tuple(runs)


def excess(pref: ParkingPreference) -> ExcessProfile:
    """Excess profile of a preference, made once per preference object.

    The excess at position j is (cars preferring a spot >= j) - (spots from j
    onward); position 1 always has excess 0.  The profile is stored on the
    preference, so every later call returns the same object.

    >>> excess(ParkingPreference((2, 3, 3))).values
    (0, 1, 1)
    >>> excess(ParkingPreference((2, 3, 3))).intervals
    ((2, 3),)
    """
    prof = pref._excess
    if prof is None:
        prof = _excess_profile(pref)
        object.__setattr__(pref, "_excess", prof)
    return prof


def _excess_profile(pref: ParkingPreference) -> ExcessProfile:
    m = multiplicities(pref)
    n = pref.n
    values = []
    tail = n  # number of cars preferring a spot >= j
    for j in range(1, n + 1):
        values.append(tail - (n - j + 1))
        tail -= m[j - 1]
    vals = tuple(values)
    return ExcessProfile(vals, critical_intervals(vals))


def shift(pref: ParkingPreference, w: int) -> ParkingPreference:
    """Subtract w from every entry.

    Meaningful for ``0 <= w < min(prefs)``, so the result is again a valid
    preference of the same length.

    >>> shift(ParkingPreference((4, 3, 4, 4)), 2).prefs
    (2, 1, 2, 2)
    """
    return _shifted(pref.prefs, w)


def _shifted(prefs: tuple[int, ...], w: int) -> ParkingPreference:
    """``prefs`` moved down by w, raising ShiftOutOfRange off the street."""
    w = int(w)
    if w < 0:
        raise ShiftOutOfRange(f"shift must be non-negative, got {w}")
    if w >= min(prefs):
        raise ShiftOutOfRange(f"shift by {w} drops entry {min(prefs)} below spot 1")
    return ParkingPreference(tuple(a - w for a in prefs))


def _as_index_set(indices: Iterable[int], n: int) -> tuple[int, ...]:
    idx = sorted(int(i) for i in indices)
    if not idx:
        raise EmptyIndexSet("restriction needs at least one car index")
    if idx[0] < 1 or idx[-1] > n:
        raise ValueError(f"car indices must lie in 1..{n}, got {idx}")
    for a, b in zip(idx, idx[1:]):
        if a == b:
            raise ValueError(f"duplicate car index {a}")
    return tuple(idx)


def restrict(pref: ParkingPreference, indices: Iterable[int]) -> tuple[int, ...]:
    """Subsequence of preferences at the given 1-based car indices.

    The result keeps the original relative car order.  It is returned as a
    bare tuple because its entries may exceed its length; it only becomes a
    valid standalone preference after a suitable shift (see
    :func:`restrict_shift`).

    >>> restrict(ParkingPreference((4, 4, 3, 2, 3)), {3, 4, 5})
    (3, 2, 3)
    """
    idx = _as_index_set(indices, pref.n)
    return tuple(pref.prefs[i - 1] for i in idx)


def restrict_shift(
    pref: ParkingPreference, indices: Iterable[int], w: int
) -> ParkingPreference:
    """Restrict to a set of cars, then shift every entry down by w.

    This is the composition used throughout: the shifted restriction must be
    a valid preference of its own (shorter) length, and that is validated
    here.

    >>> alpha = ParkingPreference((8, 4, 7, 1, 6, 8, 7, 5, 10, 1))
    >>> restrict_shift(alpha, {2, 3, 5, 7, 8}, 2).prefs
    (2, 5, 4, 5, 3)
    """
    return _shifted(restrict(pref, indices), w)


def decompose_at(
    pref: ParkingPreference, j: int
) -> tuple[ParkingPreference | None, ParkingPreference]:
    """Split a preference at a position j with excess 0.

    Cars preferring a spot >= j form the upper part (shifted down by j-1 to a
    preference of length n-j+1); the remaining cars form the lower part of
    length j-1, returned as None when j == 1.  The two parts inherit the
    excess profile of the original: lower keeps u(1..j-1), upper sees
    u(j..n).

    >>> lower, upper = decompose_at(ParkingPreference((4, 4, 3, 2, 3)), 4)
    >>> lower.prefs, upper.prefs
    ((3, 2, 3), (1, 1))
    """
    n = pref.n
    if not 1 <= j <= n:
        raise ValueError(f"position {j} outside 1..{n}")
    prof = excess(pref)
    if prof.u(j) != 0:
        raise NotZeroExcess(f"excess at position {j} is {prof.u(j)}, expected 0")
    # u(j) == 0 leaves exactly n-j+1 cars preferring a spot >= j; the
    # decomposition_excess sweep property checks the split on every preference.
    upper_idx = tuple(i for i in range(1, n + 1) if pref.prefs[i - 1] >= j)
    if j == 1:
        return None, pref
    upper = restrict_shift(pref, upper_idx, j - 1)
    lower_idx = tuple(i for i in range(1, n + 1) if pref.prefs[i - 1] < j)
    lower = ParkingPreference(restrict(pref, lower_idx))
    return lower, upper
