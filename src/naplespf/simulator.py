"""The classical and k-Naples parking processes.

Cars arrive in order.  A car whose preferred spot is taken first backs up,
checking up to k spots behind the preference nearest-first, then drives
forward to the first free spot; if nothing is free it exits the street.  The
classical rule is k = 0.  Each car may carry its own backward window, which
generalizes the uniform rule.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import ParkingPreference, _as_int
from .errors import InvalidPreference, LengthMismatch

__all__ = [
    "UNPARKED",
    "ParkingOutcome",
    "CarStep",
    "ParkingTrace",
    "as_windows",
    "park",
    "park_with_trace",
    "park_uniform",
    "park_cars",
]

#: Sentinel for a car that exits the street without parking.
UNPARKED = None


@dataclass(frozen=True)
class ParkingOutcome:
    """Final spot of each car; ``None`` marks a car that left unparked."""

    spot_of: tuple[int | None, ...]

    @property
    def all_parked(self) -> bool:
        return None not in self.spot_of

    def occupant_of(self) -> dict[int, int]:
        """Map from occupied spot to the (1-based) car parked there."""
        return {s: i for i, s in enumerate(self.spot_of, start=1) if s is not None}

    def render(self) -> str:
        """Comma-separated outcome with ``X`` for unparked cars."""
        return ",".join("X" if s is None else str(s) for s in self.spot_of)


@dataclass(frozen=True)
class CarStep:
    """One car's turn: the spots it probed and where it ended up.

    ``backward_checks`` is the strictly decreasing run of spots probed behind
    the preference (at most the car's window, never below spot 1);
    ``forward_checks`` the increasing run probed after it.  Both are empty
    when the preferred spot was free.
    """

    car: int
    preferred: int
    backward_checks: tuple[int, ...]
    forward_checks: tuple[int, ...]
    spot: int | None


ParkingTrace = tuple[CarStep, ...]


def _check_window(k: int, least: int = 0) -> int:
    """The backward window k as an int; ``ValueError`` unless it is an
    integer of at least ``least``."""
    k = _as_int(k, "backward window")
    if k < least:
        raise ValueError(f"backward window must be >= {least}, got {k}")
    return k


def as_windows(k: int | Sequence[int], n: int) -> tuple[int, ...]:
    """Normalize a backward-window spec: a scalar means the uniform rule."""
    try:
        k = operator.index(k)
    except TypeError:
        if isinstance(k, Iterable):
            win = tuple(map(_check_window, k))
            if len(win) != n:
                raise LengthMismatch(f"{len(win)} windows for {n} cars")
            return win
    return (_check_window(k),) * n


def _step(occ: int, a: int, k: int, n_spots: int) -> int | None:
    """Spot taken by a car preferring ``a`` with window ``k``, or None.

    ``occ`` has bit s set for each taken spot s.  The car takes its
    preferred spot, else the nearest free spot at most k behind it, else the
    first free spot ahead, and exits if that lies past ``n_spots``.  Each
    case is a few bit operations, not a probe loop: the spot behind is the
    highest clear bit of ``occ`` in 1..a-1, taken when the window reaches
    it, and the spot ahead the lowest clear bit above a.  :func:`_run` and
    the monotone-window search call it.
    """
    if not occ >> a & 1:
        return a
    behind = (~occ & ((1 << a) - 2)).bit_length() - 1  # -1 when 1..a-1 is full
    if behind > 0 and behind >= a - k:
        return behind
    above = occ >> (a + 1)
    spot = a + (~above & (above + 1)).bit_length()
    return spot if spot <= n_spots else None


def _run(
    prefs: Sequence[int], windows: Sequence[int], n_spots: int
) -> list[int | None]:
    """Final spot of each car in turn, None for a car that exits.

    Looks up the module's :func:`_step` on every call, so a rule patched in
    there reaches :func:`park`.  Nothing is recorded while the cars park;
    :func:`park_with_trace` derives the probes from the outcome afterwards.
    """
    step = _step
    occ = 0
    spots: list[int | None] = []
    for a, k in zip(prefs, windows):
        spot = step(occ, a, k, n_spots)
        if spot is not None:
            occ |= 1 << spot
        spots.append(spot)
    return spots


def park(pref: ParkingPreference, windows: int | Sequence[int]) -> ParkingOutcome:
    """Run the parking process; a scalar window applies to every car.

    >>> park(ParkingPreference((3, 4, 4, 4, 3)), 3).render()
    '3,4,2,1,5'
    >>> park(ParkingPreference((2, 3, 3)), 1).render()
    '2,3,X'
    """
    win = as_windows(windows, pref.n)
    return ParkingOutcome(tuple(_run(pref.prefs, win, pref.n)))


def park_with_trace(
    pref: ParkingPreference, windows: int | Sequence[int]
) -> tuple[ParkingOutcome, ParkingTrace]:
    """Like :func:`park`, also recording every spot each car probed."""
    n = pref.n
    win = as_windows(windows, n)
    spots = _run(pref.prefs, win, n)
    steps = []
    for car, (a, k, spot) in enumerate(zip(pref.prefs, win, spots), start=1):
        back = fwd = ()  # the probes follow from (a, k, spot)
        if spot is not None and spot < a:
            back = tuple(range(a - 1, spot - 1, -1))
        elif spot != a:
            back = tuple(range(a - 1, max(1, a - k) - 1, -1))
            fwd = tuple(range(a + 1, (spot or n) + 1))
        steps.append(CarStep(car, a, back, fwd, spot))
    return ParkingOutcome(tuple(spots)), tuple(steps)


def park_uniform(pref: ParkingPreference, k: int) -> ParkingOutcome:
    """Parking process with the same backward window k for every car."""
    return park(pref, _check_window(k))


def park_cars(
    prefs: Sequence[int], windows: int | Sequence[int], n_spots: int
) -> list[int | None]:
    """Park an arbitrary car list on a street with ``n_spots`` spots.

    Unlike :func:`park` the number of cars need not match the street length;
    this is what restricted processes (a subset of the cars, full street)
    run on.  Raises :class:`InvalidPreference` for a preference off the
    street, and checks the windows as :func:`park` does.
    """
    n_spots = _as_int(n_spots, "number of spots")
    if prefs and not 1 <= min(prefs) <= max(prefs) <= n_spots:
        raise InvalidPreference(f"preferences must lie in 1..{n_spots}")
    return _run(prefs, as_windows(windows, len(prefs)), n_spots)
