"""Affine Weyl group operations against brute-force oracles."""

import random

import pytest

from borbits.affine import (
    AffineRoot,
    text_to_word,
    word_to_text,
)

from conftest import count_inversions, get_system
from oracles import bruhat_leq_oracle, bruhat_lower_interval_oracle


def ball(group, radius):
    """All elements of length at most radius, found by breadth-first search
    over the Cayley graph (an element first appears at depth equal to its
    length)."""
    seen = {group.identity}
    frontier = [group.identity]
    for _ in range(radius):
        new = []
        for x in frontier:
            for i in group.simple_indices:
                y = group.multiply(group.simple_reflection(i), x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return sorted(seen, key=lambda x: (group.length(x), x.perm, x.shift))


def test_act_examples_a2(system):
    rs, W = system("A", 2)
    a1 = W.simple_affine_root(1)
    s0 = W.simple_reflection(0)
    th = rs.highest_root
    assert W.act(W.identity, a1) == a1
    assert W.act(s0, AffineRoot(th, -1)) == AffineRoot(-th, 1)
    assert W.act(s0, a1) == AffineRoot(-rs.simple_root(2), 1)


def test_act_is_a_group_action(system):
    rs, W = system("B", 2)
    rng = random.Random(7)
    roots = [AffineRoot(g, n) for g in rs.roots for n in (-2, -1, 0, 1, 2)]
    for _ in range(25):
        x = W.evaluate_word(tuple(rng.randrange(0, rs.rank + 1) for _ in range(rng.randrange(0, 9))))
        y = W.evaluate_word(tuple(rng.randrange(0, rs.rank + 1) for _ in range(rng.randrange(0, 9))))
        a = rng.choice(roots)
        assert W.act(W.multiply(x, y), a) == W.act(x, W.act(y, a))


def test_act_preserves_pairing(system):
    rs, W = system("C", 3)
    rng = random.Random(11)
    roots = [AffineRoot(g, n) for g in rs.roots for n in (-1, 0, 1)]
    for _ in range(40):
        x = W.evaluate_word(tuple(rng.randrange(0, rs.rank + 1) for _ in range(rng.randrange(0, 11))))
        a, b = rng.choice(roots), rng.choice(roots)
        xa, xb = W.act(x, a), W.act(x, b)
        assert rs.pairing(xa.finite, xb.finite) == rs.pairing(a.finite, b.finite)


def test_group_axioms(system):
    rs, W = system("A", 2)
    for i in W.simple_indices:
        s = W.simple_reflection(i)
        assert W.multiply(s, s) == W.identity
    x = W.evaluate_word((0, 1, 2, 0, 1))
    assert W.multiply(x, W.inverse(x)) == W.identity
    assert W.multiply(W.inverse(x), x) == W.identity
    s0, s1 = W.simple_reflection(0), W.simple_reflection(1)
    a1 = W.simple_affine_root(1)
    assert W.act(W.multiply(s0, s1), a1) == W.act(s0, W.act(s1, a1))


def test_simple_reflection_range(system):
    _, W = system("A", 2)
    with pytest.raises(ValueError):
        W.simple_reflection(3)
    with pytest.raises(ValueError):
        W.simple_reflection(-1)


def test_s0_is_translated_theta_reflection(system):
    rs, W = system("D", 4)
    s0 = W.simple_reflection(0)
    th = rs.highest_root
    # t_{theta^vee} s_theta sends gamma to s_theta(gamma) with level drop
    # <s_theta(gamma), theta^vee> = -<gamma, theta^vee>; on theta that is -2
    assert W.act(s0, AffineRoot(th, 0)) == AffineRoot(-th, 2)
    for g in rs.roots:
        assert W.act(s0, AffineRoot(g, 0)) == AffineRoot(rs.reflect(th, g), rs.pairing(g, th))
    assert W.act(s0, AffineRoot(-th, 1)) == AffineRoot(th, -1)


def test_length_examples(system):
    rs, W = system("A", 2)
    assert W.length(W.identity) == 0
    assert W.length(W.simple_reflection(0)) == 1
    refl = W.reflection(AffineRoot(rs.simple_root(1), -1))
    assert W.length(refl) == 3
    assert count_inversions(W, refl) == 3


@pytest.mark.parametrize("letter,rank,radius", [("A", 2, 8), ("B", 2, 8), ("G", 2, 6)])
def test_length_equals_inversion_count(letter, rank, radius):
    rs, W = get_system(letter, rank)
    for x in ball(W, radius):
        assert W.length(x) == count_inversions(W, x)


def test_descents(system):
    rs, W = system("A", 2)
    assert W.descents(W.identity, "left") == frozenset()
    assert W.descents(W.identity, "right") == frozenset()
    s0 = W.simple_reflection(0)
    assert W.descents(s0, "left") == {0}
    assert W.descents(s0, "right") == {0}
    s1s0 = W.evaluate_word((1, 0))
    assert W.descents(s1s0, "left") == {1}
    with pytest.raises(ValueError):
        W.descents(s0, "up")


def test_reduced_word_round_trip(system):
    rs, W = system("B", 2)
    assert W.reduced_word(W.identity) == ()
    assert W.reduced_word(W.simple_reflection(0)) == (0,)
    for x in ball(W, 6):
        word = W.reduced_word(x)
        assert len(word) == W.length(x)
        assert W.evaluate_word(word) == x


def test_reduced_word_deterministic_tie_break(system):
    rs, W = system("A", 2)
    refl = W.reflection(AffineRoot(rs.simple_root(1), -1))
    word = W.reduced_word(refl)
    assert word == (0, 2, 0)
    assert W.evaluate_word(word) == refl


def test_bruhat_examples(system):
    rs, W = system("A", 2)
    s1s0 = W.evaluate_word((1, 0))
    s1s2s0 = W.evaluate_word((1, 2, 0))
    assert W.bruhat_leq(W.identity, s1s2s0)
    assert W.bruhat_leq(s1s0, s1s2s0)
    assert not W.bruhat_leq(W.simple_reflection(1), W.simple_reflection(0))
    assert bruhat_leq_oracle(W, s1s0, s1s2s0)
    assert not bruhat_leq_oracle(W, W.simple_reflection(1), W.simple_reflection(0))


@pytest.mark.parametrize("letter,rank,radius", [("A", 2, 7), ("B", 2, 7), ("G", 2, 5)])
def test_bruhat_matches_subword_oracle(letter, rank, radius):
    rs, W = get_system(letter, rank)
    elements = ball(W, radius)
    for w in elements:
        below = bruhat_lower_interval_oracle(W, w)
        for u in elements:
            assert W.bruhat_leq(u, w) == (u in below)


@pytest.mark.parametrize(
    "letter,rank", [("C", 3), ("D", 4), ("B", 3), ("G", 2), ("F", 4), ("E", 6)]
)
def test_bruhat_matches_oracle_on_random_longer_pairs(letter, rank):
    rs, W = get_system(letter, rank)
    rng = random.Random(17)
    for _ in range(30):
        w = W.evaluate_word(
            tuple(rng.randrange(0, rank + 1) for _ in range(rng.randrange(8, 13)))
        )
        below = bruhat_lower_interval_oracle(W, w)
        for _ in range(20):
            u = W.evaluate_word(
                tuple(rng.randrange(0, rank + 1) for _ in range(rng.randrange(0, 12)))
            )
            assert W.bruhat_leq(u, w) == (u in below)


def test_oracle_length_cap(system):
    rs, W = system("A", 2)
    long_word = tuple([0, 1, 2] * 7)
    x = W.evaluate_word(long_word)
    if W.length(x) > 20:
        with pytest.raises(ValueError):
            bruhat_leq_oracle(W, W.identity, x)


def test_alcove_examples(system):
    rs, W = system("A", 2)
    assert W.alcove_image_check(W.identity)
    assert W.alcove_image_check(W.simple_reflection(0))
    assert not W.alcove_image_check(W.evaluate_word((1, 2, 0)))


def test_affine_root_text_round_trip(system):
    """The text form tells every real affine root apart."""
    rs, W = system("D", 4)
    texts = {str(AffineRoot(g, n)) for g in rs.roots for n in (-2, -1, 0, 1)}
    assert len(texts) == 4 * len(rs.roots)
    assert str(AffineRoot(rs.highest_root, -1)) == "1,2,1,1-1d"
    assert str(AffineRoot(-rs.simple_root(1), 2)) == "-1,0,0,0+2d"
    assert str(AffineRoot(rs.simple_root(1), 0)) == "1,0,0,0"


def test_affine_root_positivity(system):
    rs, _ = system("A", 2)
    th = rs.highest_root
    assert AffineRoot(th, 0).is_positive
    assert not AffineRoot(-th, 0).is_positive
    assert AffineRoot(-th, 1).is_positive
    assert not AffineRoot(th, -1).is_positive
    with pytest.raises(ValueError):
        AffineRoot(th - th, 0)


def test_word_text_round_trip():
    assert word_to_text((1, 3, 0)) == "1 3 0"
    assert text_to_word("1 3 0") == (1, 3, 0)
    assert text_to_word("") == ()
    assert word_to_text(()) == ""
