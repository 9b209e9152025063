"""The minuscule walk reads inversion sets as bitmasks over the positive roots.

`AffineWeylGroup.inversion_mask` reads a minuscule element's inversion set
off its root tables in one pass, and `minuscule_from_element` validates that
mask as an abelian ideal.  The oracle is the object path the walk used
before: `inversions_from_negative` lists every inverted affine root, each
must be some ``r - delta`` with r > 0, and the root-list `make_abelian_ideal`
validates and orders them.  Both must agree on every minuscule element of
the systems below and must refuse exactly the same elements among seeded
random words.  A mask missing a dominance-upper or holding a sum pair must
be refused.
"""

import random

import pytest

from borbits.affine import AffineWeylGroup, affine_key
from borbits.minuscule import (
    ideal_from_mask,
    is_minuscule,
    minuscule_from_element,
)
from borbits.roots import build_root_system

from conftest import get_system
from oracles import make_abelian_ideal

SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6)]
RANDOM_SYSTEMS = [
    ("A", 3, 1401), ("B", 3, 1402), ("C", 3, 1403), ("D", 4, 1404),
    ("G", 2, 1405), ("F", 4, 1406), ("E", 6, 1407),
]


def _oracle(group, x):
    """(inversions, ideal) by the object path, or None if x is not minuscule."""
    inv = group.inversions_from_negative(x)
    if any(level != -1 or max(g) <= 0 for g, level in inv):
        return None
    inv.sort(key=affine_key)
    return tuple(inv), make_abelian_ideal(group.rs, [g for g, _ in inv])


def _outcome(group, x):
    try:
        m = minuscule_from_element(group, x)
    except ValueError as exc:
        return str(exc)
    return group.shifted_roots(m.mask), ideal_from_mask(group.rs, m.mask)


@pytest.mark.parametrize("letter,rank", SYSTEMS)
def test_mask_walk_matches_the_object_oracle(letter, rank):
    rs, group = get_system(letter, rank)
    mins = group.minuscule
    assert len(mins) == 2**rank
    for m in mins:
        inversions, ideal = _outcome(group, m.element)
        assert _oracle(group, m.element) == (inversions, ideal)
        assert group.inversion_mask(m.element) == m.mask
        assert m.mask == sum(1 << rs.positive_index(g) for g, _ in inversions)
        assert [g for g, _ in inversions] == list(ideal)
        # the inversions are the group's shared r - delta
        for a in inversions:
            g, _ = a
            assert a is group._shifted[rs.positive_index(g)]


@pytest.mark.parametrize("letter,rank,seed", RANDOM_SYSTEMS)
def test_random_words_are_refused_exactly_as_by_the_oracle(letter, rank, seed):
    rs, group = get_system(letter, rank)
    rng = random.Random(seed)
    kinds = set()
    for _ in range(300):
        word = [rng.randrange(rank + 1) for _ in range(rng.randrange(1, 13))]
        x = group.evaluate_word(word)
        expected = _oracle(group, x)
        assert is_minuscule(group, x) == (expected is not None)
        assert (group.inversion_mask(x) is None) == (expected is None)
        assert _outcome(group, x) == (expected or "element is not minuscule")
        kinds.add(expected is None)
    # the draw holds both minuscule and non-minuscule elements
    assert kinds == {True, False}


# -- sabotage: a wrong mask is refused ---------------------------------------------


def _a3():
    """A fresh A3 group, not the shared one."""
    return AffineWeylGroup(build_root_system("A", 3))


def test_a_mask_without_a_dominance_upper_is_refused():
    group = _a3()
    rs = group.rs
    top = rs.positive_index(rs.highest_root)
    alpha2 = rs.positive_index(rs.simple_root(2))
    with pytest.raises(ValueError, match="ideal is not upward closed"):
        ideal_from_mask(rs, 1 << alpha2)
    # the walk refuses an element whose mask lost theta, which lies above
    # every other root
    m = next(m for m in group.minuscule if m.length == 3)
    real = group.inversion_mask
    group.inversion_mask = lambda x: real(x) & ~(1 << top)
    with pytest.raises(ValueError, match="ideal is not upward closed"):
        minuscule_from_element(group, m.element)


def test_a_mask_with_a_sum_pair_is_refused():
    group = _a3()
    rs = group.rs
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    pair = (1 << rs.positive_index(a1)) | (1 << rs.positive_index(a2))
    upper = sum(1 << rs.positive_index(r) for r in rs.positive_roots if sum(r) >= 2)
    with pytest.raises(ValueError, match="ideal is not sum-free"):
        ideal_from_mask(rs, pair | upper)
    # the walk refuses an element whose mask gained alpha_1, alpha_2 and every
    # root of height >= 2: upward closed, but alpha_1 + alpha_2 is a root
    m = next(m for m in group.minuscule if m.mask == 1 << rs.positive_index(rs.highest_root))
    real = group.inversion_mask
    group.inversion_mask = lambda x: real(x) | pair | upper
    with pytest.raises(ValueError, match="ideal is not sum-free"):
        minuscule_from_element(group, m.element)

