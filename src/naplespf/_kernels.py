"""Numpy kernels: the parking rule tabulated once, and the counting DP.

:func:`park_table` is the one vectorized statement of the k-Naples rule,
and :func:`naplespf.simulator._step` its scalar reference.  Counting reads
it through :func:`_step_table`; :mod:`naplespf._verify` parks each car by
one lookup in it.

:func:`count_range` counts the preferences of a rank range by a weighted
DP, one car at a time.  What the predicates ask of a preference is held in
one int64 node: its parking state and its excess key.  The parking state
takes the low n + 1 bits, in the park table's street encoding: bit s is
set while spot s is free, and bit 0, which no spot uses, once some car has
exited (the free spots are then dropped).  The excess profile depends only
on how many cars prefer each spot, so above the state sit n - 1 lanes that
count, for j = 2..n, the cars preferring a spot below j.  Prefixes that
reach the same node are merged and carried once, with their number as its
weight.

A node needs (n + 1) + (n - 1) * (n.bit_length() + 1) bits, so
:func:`count_range` is limited to n <= 11, the one size limit on counting:
it raises :class:`~naplespf.errors.SizeLimitExceeded` beyond that.

:mod:`naplespf.sweeps` imports this module, and with it numpy, only on the
first counting call.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import SizeLimitExceeded

#: Recorded by perfbench/jobs.py in every benchmark report; the kernels are
#: numpy code and nothing in the package reads this.
USE_NUMBA = False

# Predicate slots in the counts array filled by count_range.
IDX_PARKING_FUNCTION = 0
IDX_K_NAPLES = 1
IDX_COMPLETE = 2
IDX_COMPLETE_K_NAPLES = 3
IDX_PERM_INVARIANT = 4
N_PREDICATES = 5

#: Largest n whose node fits in an int64.
MAX_N = 11
#: Levels with at most this many nodes are carried unmerged: below a few
#: hundred nodes, sorting them costs more than it saves.
MERGE_MIN = 512


def _street(length):
    """Free-spot bitmask of an empty street of ``length`` spots: bits 1..length."""
    return (np.int64(2) << length) - 2


@functools.lru_cache(maxsize=None)
def park_table(n, window):
    """Where one car parks, by free set and preferred spot, for n spots.

    Entry ``free * (n + 1) + a`` is for a car preferring spot a on a street
    whose free spots are bits 1..n of ``free`` (2^(n+1) rows; bit 0 is never
    a spot): the two flat arrays give its spot, 0 when it exits, and the
    free set it leaves.  The car takes its preferred spot, else the nearest
    free spot at most ``window`` behind, probed as ``(bit >> t) & street``
    for t = 1, 2, ..., else the lowest free spot ahead, ``f & -f``.  Column
    a = 0 is a car that sits out.  Built once per (n, window), and read-only.
    """
    free = np.arange(2 << n, dtype=np.int64)[:, None]
    street = free & -2
    bit = np.left_shift(1, np.arange(n + 1), dtype=np.int64)
    bit[0] = 0  # a car that sits out takes no spot
    spot = bit & street
    for t in range(1, window + 1):
        spot = np.where(spot == 0, (bit >> t) & street, spot)
    ahead = street & -(bit << 1)
    spot = np.where(spot == 0, ahead & -ahead, spot)
    index = np.zeros(2 << n, np.int8)  # spot s by its bit 2^s
    index[bit] = np.arange(n + 1)
    spot_of = index[spot].ravel()
    left = (free ^ spot).ravel()
    spot_of.setflags(write=False)
    left.setflags(write=False)
    return spot_of, left


def _lanes(n):
    """Lane width W of a node, and 1 in lane j - 2 for each j = 2..n."""
    width = n.bit_length() + 1
    return width, [1 << (n + 1 + width * (j - 2)) for j in range(2, n + 1)]


@functools.lru_cache(maxsize=None)
def _step_table(n, window):
    """What one car adds to a node, by parking state and preferred spot.

    Row s, column a - 1 holds the child state minus s, plus 1 in the lane of
    every position j > a.  The child state is the free set the car leaves,
    or 1 if it exits: no predicate reads the spots once a car has exited, so
    all such prefixes drop to the exit flag alone and merge.  Built once per
    (n, window) and read-only; n <= 11 bounds the cache at 66 tables of at
    most 2^12 x 11 int64 (360 KB).
    """
    _, units = _lanes(n)
    lanes = np.array([sum(units[a:]) for a in range(n)], np.int64)
    left = park_table(n, window)[1].reshape(-1, n + 1)[:, 1:]
    states = np.arange(2 << n, dtype=np.int64)[:, None]
    step = np.where(left == states, 1, left) - states + lanes  # equal: it exits
    step.setflags(write=False)
    return step


def _merge(nodes, weights):
    """Distinct nodes, sorted, each with the sum of its weights."""
    order = nodes.argsort()
    nodes = nodes[order]
    heads = np.flatnonzero(np.concatenate(([True], nodes[1:] != nodes[:-1])))
    return nodes[heads], np.add.reduceat(weights[order], heads)


def count_range(n, k, start, stop, counts):
    """Accumulate predicate counts over odometer ranks [start, stop) of [n]^n.

    Preferences are visited in lexicographic (odometer) order: rank r has
    digits of r in base n, most significant first, each plus one.  ``counts``
    must be an int64 array of length N_PREDICATES and is added to in place,
    so disjoint ranges can be summed in any order.

    The prefixes of i cars are walked level by level as nodes (see the
    module docstring).  Lane j - 2 of a node, W = n.bit_length() + 1 bits
    wide, counts the cars preferring a spot below j; its top bit stays
    clear, a guard.  A car preferring spot a moves node x to
    ``x + step[x & mask, a - 1]``.  The walk starts at the coarsest level d
    whose prefixes, n^(n - d) ranks each, tile the range: each is decoded
    into a node of weight 1, one digit per car.  From there on every node
    stands for whole subtrees, so equal nodes are merged and their weights
    summed.  Cost grows with the number of prefixes at level d: a range cut
    on prefix boundaries, as :func:`naplespf.sweeps.sweep` cuts its shards,
    starts from a few nodes, while one with an end that is not a multiple
    of n falls to d = n, one node per rank.  At the last level a biased
    lane has its guard bit clear exactly when position j is critical,
    u_j = j - 1 - lane >= 1, and every predicate is read off those guard
    bits and the exit flag.  Raises ``ValueError`` when n < 1, and its subclass
    :class:`~naplespf.errors.SizeLimitExceeded` when n > 11, where a node no
    longer fits an int64.
    """
    if not 1 <= n <= MAX_N:
        error = SizeLimitExceeded if n > MAX_N else ValueError
        raise error(f"need 1 <= n <= {MAX_N}, got n={n}")
    if start >= stop:
        return
    width, units = _lanes(n)
    guard = 1 << (width - 1)  # above any count of cars
    guards = guard * sum(units)
    bias = sum((guard - j + 1) * unit for j, unit in enumerate(units, start=2))
    step = _step_table(n, min(k, n - 1))  # a car never backs up past spot 1
    mask = (2 << n) - 1  # the parking state: free set and exit flag

    d, size = 0, n**n  # size: ranks under one prefix of level d
    while start % size or stop % size:
        d, size = d + 1, size // n
    prefixes = np.arange(start // size, stop // size, dtype=np.int64)
    nodes = np.full(len(prefixes), _street(n))
    for level in range(1, d + 1):  # one car per digit a - 1, most significant first
        nodes += step[nodes & mask, prefixes // n ** (d - level) % n]
    weights = np.ones(len(nodes), np.int64)
    for level in range(d + 1, n + 1):
        nodes = (nodes[:, None] + step[nodes & mask]).ravel()
        weights = np.repeat(weights, n)
        if len(nodes) > MERGE_MIN and level < n:
            nodes, weights = _merge(nodes, weights)

    critical = ((nodes + bias) & guards) ^ guards  # guard bit per u_j >= 1
    parked = (nodes & 1) == 0
    run = critical  # after t passes: lanes that start t + 1 critical in a row
    for _ in range(min(k, n - 1)):
        run = run & (run >> width)
    is_complete = (critical == guards) & (n >= 2)  # u >= 1 on 2..n
    counts[IDX_PARKING_FUNCTION] += weights.dot(critical == 0)
    counts[IDX_K_NAPLES] += weights.dot(parked)
    counts[IDX_COMPLETE] += weights.dot(is_complete)
    counts[IDX_COMPLETE_K_NAPLES] += weights.dot(is_complete & parked)
    counts[IDX_PERM_INVARIANT] += weights.dot(run == 0)
