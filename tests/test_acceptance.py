"""Acceptance suite: the binding checks for this package.

Each criterion is one test that ends by printing a PASS line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Expected values are
exact; the only tolerances are the stated wall-clock budgets.
"""

import time

from click.testing import CliRunner

import naplespf as npf
from helpers import naive_count_k_naples
from naplespf.cli import main as cli_main

P = npf.ParkingPreference


def test_criterion_1_worked_examples():
    """Known outcomes reproduce exactly, in under a second."""
    t0 = time.perf_counter()

    assert npf.park_uniform(P((3, 4, 4, 4, 3)), 3).spot_of == (3, 4, 2, 1, 5)

    alpha = P((3, 1, 3, 5, 2, 4, 2))
    assert npf.is_parking_function(alpha)
    assert npf.park_uniform(alpha, 0).spot_of[:3] == (3, 1, 4)

    bad = P((2, 3, 3))
    assert not npf.is_k_naples(bad, 1)
    prof = npf.excess(bad)
    assert prof.u(2) == 1 and prof.u(3) == 1

    assert npf.is_complete(P((5, 3, 3, 5, 4)))
    assert not npf.is_complete(P((5, 3, 3, 4, 4)))

    lower, upper = npf.decompose_at(P((4, 4, 3, 2, 3)), 4)
    assert upper.prefs == (1, 1) and npf.is_k_naples(upper, 1)
    assert lower.prefs == (3, 2, 3) and not npf.is_k_naples(lower, 1)

    big = P((8, 4, 7, 1, 6, 8, 7, 5, 10, 1))
    cert = npf.find_witness(big, 2, (4, 7))
    assert cert.indices == (2, 3, 5, 7, 8)
    assert cert.shifted_restriction.prefs == (2, 5, 4, 5, 3)
    assert npf.is_complete(cert.shifted_restriction)
    assert npf.is_k_naples(cert.shifted_restriction, 2)

    result = CliRunner().invoke(
        cli_main, ["witness", "-p", "8,4,7,1,6,8,7,5,10,1", "-k", "2", "--all"]
    )
    assert result.exit_code == 0
    assert "witness J={2,3,5,7,8}" in result.output
    assert "witness J={1,2,3,6,7,8}" in result.output
    assert "witness J={1,2,5,6,7,8}" in result.output

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: worked examples exact ({elapsed:.3f}s)")


def test_criterion_2_theorem_sweep():
    """Every structural fact holds over all of [n]^n, n <= 6, 1 <= k <= n."""
    t0 = time.perf_counter()
    for n in range(1, 7):
        ce = npf.verify_sweep(n)
        assert ce is None, f"counterexample: {ce}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    checked = ", ".join(npf.TRUE_PROPERTIES)
    print(
        f"ACCEPTANCE 2 PASS: zero counterexamples for n <= 6 "
        f"({elapsed:.1f}s; properties: {checked})"
    )


def test_criterion_3_counting_oracle():
    """Classical counts, k-Naples counts by a second route, monotonicity in k,
    and the n=3 window-1 failures."""
    expected_pf = {1: 1, 2: 3, 3: 16, 4: 125, 5: 1296, 6: 16807, 7: 262144}
    for n, target in expected_pf.items():
        assert (n + 1) ** (n - 1) == target
        report = npf.sweep(n, 0)
        assert report.counts["parking_function"] == target

    for n in range(1, 10):
        pf = npf.sweep(n, 0).counts["parking_function"]
        previous = None
        for k in range(n + 1):
            naples = npf.sweep(n, k).counts["k_naples"]
            assert naples == naive_count_k_naples(n, k), (n, k)
            if k == 0:
                assert naples == pf
            if previous is not None:
                assert naples >= previous
            previous = naples

    # the DP over occupied sets alone, one length past the range above
    column = {
        1: [1, 4, 24, 203, 2225, 30067, 484071, 9057316, 193282730, 4635533581],
        2: [1, 4, 27, 240, 2731, 38034, 627405, 11976466, 259897613, 6322598234],
    }
    for k, counts in column.items():
        assert [naive_count_k_naples(n, k) for n in range(1, 11)] == counts

    report = npf.sweep(3, 1)
    assert report.counts["k_naples"] == 24
    failures = {
        tup
        for tup in npf.iter_preferences(3)
        if not npf.is_k_naples(P(tup), 1)
    }
    assert failures == {(2, 3, 3), (3, 2, 3), (3, 3, 3)}
    print(
        "ACCEPTANCE 3 PASS: counting matches the classical table and the "
        "occupied-set DP exactly"
    )


def test_criterion_4_perm_invariant_fast():
    """Multiset-weighted counting equals the full sweep for n <= 6."""
    for n in range(1, 7):
        for k in range(n + 1):
            fast = npf.count_perm_invariant_fast(n, k)
            full = npf.sweep(n, k).counts["perm_invariant"]
            assert fast == full, (n, k, fast, full)
    print("ACCEPTANCE 4 PASS: fast permutation-invariant counts are exact")


def test_criterion_5_shard_determinism():
    """sweep(n=7, k=2) is bit-identical for 1, 2, 4, 8 shard counts."""
    t0 = time.perf_counter()
    reports = [npf.sweep(7, 2, shards=w) for w in (1, 2, 4, 8)]
    for report in reports[1:]:
        assert report.counts == reports[0].counts
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 5 PASS: n=7 counts identical across shard counts "
        f"({elapsed:.1f}s; k_naples={reports[0].counts['k_naples']})"
    )


def test_criterion_6_falsification_sanity():
    """The deliberately false excess-bound property fails first on (2,3,3)."""
    ce = npf.find_counterexample(3, 1, "excess_bound_is_sufficient")
    assert ce is not None
    assert ce.pref.prefs == (2, 3, 3)
    assert ce.n == 3 and ce.k == 1
    assert (
        npf.find_counterexample(3, 3, "necessary_excess_bound_is_necessary") is None
    )
    print("ACCEPTANCE 6 PASS: falsification harness pinpoints (2,3,3)")
