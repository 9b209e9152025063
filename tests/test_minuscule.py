"""Abelian ideals, minuscule elements, and the bijection between them."""

import pytest

from borbits.affine import AffineRoot
from borbits.minuscule import (
    enumerate_abelian_ideals,
    enumerate_minuscule,
    ideal_to_element,
    is_minuscule,
    minuscule_from_element,
    normalizer_by_ideal_stability,
    normalizer_simple_roots,
    weak_order_leq,
)

from conftest import get_system
from oracles import make_abelian_ideal

MATRIX = [
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("A", 4),
    ("B", 2),
    ("B", 3),
    ("B", 4),
    ("C", 3),
    ("D", 4),
    ("G", 2),
    ("F", 4),
]


def test_a1_and_a2_enumerations(system):
    rs, W = system("A", 1)
    ideals = enumerate_abelian_ideals(rs)
    assert [[str(r) for r in I.roots] for I in ideals] == [[], ["1"]]
    assert len(enumerate_minuscule(W)) == 2

    rs, W = system("A", 2)
    ideals = enumerate_abelian_ideals(rs)
    assert [[str(r) for r in I.roots] for I in ideals] == [
        [],
        ["1,1"],
        ["0,1", "1,1"],
        ["1,0", "1,1"],
    ]
    mins = enumerate_minuscule(W)
    words = [W.reduced_word(m.element) for m in mins]
    assert words == [(), (0,), (1, 0), (2, 0)]
    assert set(mins[2].inversions) == {
        AffineRoot(rs.highest_root, -1),
        AffineRoot(rs.simple_root(2), -1),
    }


@pytest.mark.parametrize("letter,rank", MATRIX)
def test_bijection_round_trips(letter, rank):
    rs, W = get_system(letter, rank)
    ideals = enumerate_abelian_ideals(rs)
    mins = enumerate_minuscule(W)
    assert len(ideals) == len(mins) == 2 ** rank
    for ideal, m in zip(ideals, mins):
        assert set(m.ideal.roots) == set(ideal.roots)
        assert len(m.inversions) == m.length == W.length(m.element)
        assert ideal_to_element(W, ideal).element == m.element


def test_max_ideal_dimensions_match_classical_table():
    """Maximal abelian ideal dimensions agree with the classical maximal
    abelian subalgebra dimensions (Malcev's table, via Kostant's equality):
    floor((n+1)^2/4) for A_n, 2n-1 vs n(n-1)/2+1 for B_n, n(n+1)/2 for C_n,
    n(n-1)/2 for D_n, and 3, 9, 16, 27 for G2, F4, E6, E7."""
    expected = {
        ("A", 2): 2, ("A", 3): 4, ("A", 4): 6,
        ("B", 2): 3, ("B", 3): 5, ("B", 4): 7,
        ("C", 3): 6, ("D", 4): 6,
        ("G", 2): 3, ("F", 4): 9, ("E", 6): 16,
    }
    from borbits.roots import build_root_system

    for (letter, rank), dim in expected.items():
        rs = build_root_system(letter, rank)
        assert max(I.size for I in enumerate_abelian_ideals(rs)) == dim


def test_ideal_validation(system):
    rs, _ = system("A", 2)
    th = rs.highest_root
    a1 = rs.simple_root(1)
    make_abelian_ideal(rs, [th, a1])
    with pytest.raises(ValueError):
        make_abelian_ideal(rs, [a1])  # not upward closed
    with pytest.raises(ValueError):
        make_abelian_ideal(rs, [th, a1, rs.simple_root(2)])  # a1 + a2 is a root
    with pytest.raises(ValueError):
        make_abelian_ideal(rs, [-th])


def test_g2_ideals_have_no_orthogonal_pairs(system):
    rs, _ = system("G", 2)
    for ideal in enumerate_abelian_ideals(rs):
        for a in ideal.roots:
            for b in ideal.roots:
                if a != b:
                    assert rs.pairing(a, b) != 0


def test_ideal_to_element_examples(system):
    rs, W = system("A", 2)
    ideals = enumerate_abelian_ideals(rs)
    assert ideal_to_element(W, ideals[0]).element == W.identity
    assert ideal_to_element(W, ideals[1]).element == W.simple_reflection(0)
    theta_a2 = make_abelian_ideal(rs, [rs.highest_root, rs.simple_root(2)])
    assert ideal_to_element(W, theta_a2).element == W.evaluate_word((1, 0))


def test_a3_remark_element(system):
    rs, W = system("A", 3)
    w = W.evaluate_word((1, 3, 0))
    assert is_minuscule(W, w)
    assert W.alcove_image_check(w)
    m = minuscule_from_element(W, w)
    shifted = {AffineRoot(g, -1) for g in rs.positive_roots}
    complement = shifted - set(m.inversions)
    assert complement == {AffineRoot(rs.simple_root(i), -1) for i in (1, 2, 3)}
    image = W.act(w, AffineRoot(rs.simple_root(1), -1))
    assert image == AffineRoot(-(rs.simple_root(1) + rs.simple_root(2)), 0)


def test_a2_minimal_coset_remark(system):
    rs, W = system("A", 2)
    x = W.evaluate_word((1, 2, 0))
    y = W.evaluate_word((1, 0))
    assert W.descents(x) <= {0}  # a minimal coset representative
    assert not is_minuscule(W, x)
    assert W.bruhat_leq(y, x)
    inv_y = set(W.inversions_from_negative(y))
    inv_x = set(W.inversions_from_negative(x))
    assert not inv_y <= inv_x


def test_weak_order_examples(system):
    rs, W = system("A", 2)
    mins = enumerate_minuscule(W)
    by_word = {W.reduced_word(m.element): m for m in mins}
    assert all(weak_order_leq(by_word[()], m) for m in mins)
    assert weak_order_leq(by_word[(0,)], by_word[(1, 0)])
    assert not weak_order_leq(by_word[(1, 0)], by_word[(2, 0)])
    assert not weak_order_leq(by_word[(2, 0)], by_word[(1, 0)])


@pytest.mark.parametrize("letter,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4)])
def test_weak_order_is_bruhat_on_minuscule(letter, rank):
    rs, W = get_system(letter, rank)
    mins = enumerate_minuscule(W)
    for m1 in mins:
        for m2 in mins:
            assert weak_order_leq(m1, m2) == W.bruhat_leq(m1.element, m2.element)


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2)])
def test_minuscule_downward_closed_among_coset_reps(letter, rank):
    """Below a minuscule element, every minimal coset representative is
    minuscule (checked on a length-bounded ball)."""
    rs, W = get_system(letter, rank)
    mins = enumerate_minuscule(W)
    seen = {W.identity}
    frontier = [W.identity]
    for _ in range(6):
        new = []
        for x in frontier:
            for i in W.simple_indices:
                y = W.multiply(W.simple_reflection(i), x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    for u in seen:
        if not W.descents(u) <= {0}:
            continue
        for m in mins:
            if W.bruhat_leq(u, m.element):
                assert is_minuscule(W, u)


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2)])
def test_minuscule_covers_only_through_simple_reflections(letter, rank):
    """If a reflection drops a minuscule element by exactly one length and
    the result is again minuscule, the reflecting root is simple."""
    rs, W = get_system(letter, rank)
    for m in enumerate_minuscule(W):
        for g in rs.roots:
            for n in range(-2, 3):
                a = AffineRoot(g, n)
                if not a.is_positive:
                    continue
                x = W.multiply(W.reflection(a), m.element)
                if W.length(x) == m.length - 1 and is_minuscule(W, x):
                    assert W.is_simple_affine(a)


def test_minuscule_criteria_agree_on_boundary(system):
    rs, W = system("B", 2)
    for m in enumerate_minuscule(W):
        for i in W.simple_indices:
            x = W.multiply(W.simple_reflection(i), m.element)
            assert is_minuscule(W, x) == W.alcove_image_check(x)


def test_normalizer_criteria(system):
    for letter, rank in [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        rs, W = get_system(letter, rank)
        for m in enumerate_minuscule(W):
            assert set(normalizer_simple_roots(W, m)) == set(
                normalizer_by_ideal_stability(rs, m.ideal)
            )


def test_normalizer_identity_is_everything(system):
    rs, W = system("A", 2)
    ident = enumerate_minuscule(W)[0]
    assert set(normalizer_simple_roots(W, ident)) == set(rs.simple_roots)


def test_normalizer_frozen_values(system):
    """The highest-root ideal of A2 is normalized by the Borel alone: both
    lowerings leave it.  The two-root ideals keep the opposite simple root."""
    rs, W = system("A", 2)
    mins = enumerate_minuscule(W)
    got = [set(map(str, normalizer_simple_roots(W, m))) for m in mins]
    assert got == [{"1,0", "0,1"}, set(), {"1,0"}, {"0,1"}]
    rs1, W1 = system("A", 1)
    assert [normalizer_simple_roots(W1, m) for m in enumerate_minuscule(W1)] == [
        (rs1.simple_root(1),),
        (),
    ]


def test_inversion_upward_closure(system):
    rs, W = system("C", 3)
    for m in enumerate_minuscule(W):
        inv = set(m.inversions)
        for a in inv:
            for g in rs.positive_roots:
                if rs.dominance_leq(a.finite, g):
                    assert AffineRoot(g, -1) in inv


def test_at_most_one_root_extends(system):
    rs, W = system("B", 3)
    from borbits.involutions import orthogonal_subsets

    for m in enumerate_minuscule(W):
        for s in orthogonal_subsets(rs, m.inversions):
            for gamma in rs.positive_roots:
                hits = [a for a in s.roots if rs.is_root((a.finite + gamma).coeffs)]
                assert len(hits) <= 1


def test_descent_chain_stays_minuscule(system):
    """Stripping left descents from a minuscule element walks down through
    minuscule elements only; the constructive ideal-to-element walk relies
    on this."""
    for letter, rank in [("A", 2), ("B", 2), ("C", 3)]:
        rs, W = get_system(letter, rank)
        for m in enumerate_minuscule(W):
            word = W.reduced_word(m.element)
            for k in range(len(word) + 1):
                assert is_minuscule(W, W.evaluate_word(word[k:]))
