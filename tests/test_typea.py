"""Finite-field oracle for type A: orbit counts against the combinatorics."""

import pytest

import borbits.typea as typea
from borbits.involutions import rank_id_minus
from borbits.typea import (
    ELEMENT_CAP,
    enumerate_orbits,
    ideal_positions,
    make_context,
    oracle_report,
    root_to_position,
)


def test_context_validation():
    make_context(3, 2, [(1, 3), (1, 2)])
    with pytest.raises(ValueError):
        make_context(5, 2, [])
    with pytest.raises(ValueError):
        make_context(3, 4, [])
    with pytest.raises(ValueError):
        make_context(3, 2, [(2, 3)])  # (1, 3) missing: not upward closed
    with pytest.raises(ValueError):
        make_context(3, 2, [(1, 2), (2, 3), (1, 3)])  # chain (1,2),(2,3)
    with pytest.raises(ValueError):
        make_context(3, 2, [(3, 1), (1, 3)])
    with pytest.raises(ValueError):
        make_context(3, 2, [(1, 3), (1, 3)])  # repeated slot
    with pytest.raises(ValueError):
        make_context(3, 2, [(1, 3.7)])  # not an integer slot


def test_position_mapping():
    assert root_to_position((1, 0, 0)) == (1, 2)
    assert root_to_position((1, 1, 1)) == (1, 4)
    assert root_to_position((0, 1, 1)) == (2, 4)
    with pytest.raises(ValueError, match="^1,0,1 is not an interval root$"):
        root_to_position((1, 0, 1))


def test_ideal_positions_match_enumeration():
    assert ideal_positions(3, 0) == ()
    assert ideal_positions(3, 1) == ((1, 3),)
    assert set(ideal_positions(3, 2)) == {(1, 3), (2, 3)}
    assert set(ideal_positions(3, 3)) == {(1, 2), (1, 3)}
    with pytest.raises(ValueError):
        ideal_positions(3, 4)


def test_single_slot_orbits():
    part = enumerate_orbits(make_context(2, 3, [(1, 2)]))
    assert sorted(part.sizes) == [1, 2]
    assert part.representatives[part.class_of((0,))] == (0,)


def test_n3_classes_match_combinatorics():
    part = enumerate_orbits(make_context(3, 2, [(1, 2), (1, 3)]))
    assert len(part.classes) == 3
    assert sorted(part.sizes) == [1, 1, 2]


def test_zero_is_a_fixed_point():
    part = enumerate_orbits(make_context(3, 3, [(1, 3), (2, 3)]))
    zero = (0, 0)
    assert part.sizes[part.class_of(zero)] == 1


def test_estimate_single_slot():
    assert ideal_positions(2, 1) == ((1, 2),)
    (report, *_) = oracle_report(2, 1, (2, 3, 5))
    assert report["dims"] == {"{}": 0, "{(1,2)}": 1}
    assert report["expected_L"]["{(1,2)}"] == 1


def test_estimates_match_l_for_n3():
    for ideal_id in range(4):
        positions = ideal_positions(3, ideal_id)
        if not positions:
            continue
        (report, *_) = oracle_report(3, ideal_id, (2, 3, 5))
        assert report["dims"] == report["expected_L"], (ideal_id, report)


def test_oracle_report_n3():
    for ideal_id in range(4):
        reports = oracle_report(3, ideal_id, (2, 3))
        assert [r["q"] for r in reports] == [2, 3]
        for r in reports:
            assert r["classes"] >= r["combinatorial"]
            assert r["n"] == 3
            assert set(r["dims"]) == set(r["expected_L"])


def test_oracle_report_single_prime_has_no_dims():
    reports = oracle_report(3, 1, (2,))
    assert len(reports) == 1
    assert reports[0]["dims"] is None


def test_oracle_report_refuses_repeated_primes():
    """The dimension fit divides by log(q2/q1), which two equal primes make 0."""
    for primes in ((3, 5, 5), (2, 2)):
        with pytest.raises(ValueError, match="the primes in q must be distinct"):
            oracle_report(3, 3, primes)


def test_oracle_n4_inequality_and_separation():
    reports = oracle_report(4, 7, (2,))
    assert reports[0]["classes"] >= reports[0]["combinatorial"] == 7


def test_full_slot_set_is_not_an_ideal():
    with pytest.raises(ValueError):
        make_context(4, 7, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])


def test_element_counts_stay_under_cap():
    """Abelian ideals of n <= 4 have at most four slots, so every valid
    context is far below the enumeration cap; the guard exists for safety."""
    for n in (2, 3, 4):
        for k in range(2 ** (n - 1)):
            ctx = make_context(n, 7, ideal_positions(n, k))
            assert ctx.element_count <= 7 ** 4 <= ELEMENT_CAP


def test_a_wrong_rank_is_caught_before_l_is_read(monkeypatch):
    """The oracle measures L on the bare involution of each orthogonal
    subset, after checking that the rank of id - sigma is |S|."""
    monkeypatch.setattr(typea, "rank_id_minus", lambda group, x: rank_id_minus(group, x) + 1)
    with pytest.raises(AssertionError, match="rank of id - sigma differs from the support size"):
        oracle_report(3, 1, (2,))
