"""The group keeps three tables of deterministic results: the involution of
each orthogonal set, the rank of id - x of each element with its length,
and the reduced word of each element.

Every stored value is compared here with a from-scratch computation kept in
this file, the counts show that each value is computed once per group, and
sabotage of a stored value is still caught by the checks that read it.  The
words of minuscule elements, which the minuscule walk stores, are compared
with greedy stripping, and the unchecked `transform_set` with the checked
`make_orthogonal_set`.  Each test builds its own groups, so no corrupted
table reaches another test.
"""

import gc
import sys
import weakref

import pytest

from borbits import involutions
from borbits.affine import AffineWeylGroup
from borbits.involutions import (
    _int_matrix_rank,
    descent_move,
    involution_length,
    make_admissible_pair,
    make_orthogonal_set,
    orthogonal_subsets,
    pair_descents,
    rank_id_minus,
    reflection_product,
    transform_set,
    twisted_conjugate,
)
from borbits.roots import build_root_system
from borbits.suites import run_suite

SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]


def _fresh_group(letter, rank):
    return AffineWeylGroup(build_root_system(letter, rank))


def _rebind(monkeypatch, original, replacement):
    """Replace a function in every borbits module that holds it by name."""
    for name, module in list(sys.modules.items()):
        if name == "borbits" or name.startswith("borbits."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


# -- from-scratch versions, kept as the oracles -------------------------------


def _product_from_scratch(group, s):
    el = group.identity
    for a in s:
        el = group.multiply(el, group.reflection(a))
    return el


def _rank_from_scratch(group, x):
    """Rank of id - x on the simple roots plus delta, from the rows of x."""
    rows = []
    for j in range(group.rank):
        g, level = group.act(x, group.simple_affine_root(j + 1))
        rows.append([(1 if i == j else 0) - g[i] for i in range(group.rank)] + [-level])
    return _int_matrix_rank(rows)


def _check_rank_and_word(group, x):
    assert rank_id_minus(group, x) == _rank_from_scratch(group, x)
    assert group._ranks[x] == (_rank_from_scratch(group, x), group.length(x))
    word = group.reduced_word(x)
    assert group.evaluate_word(word) == x
    assert len(word) == group.length(x)
    assert group.reduced_word(x) is word


@pytest.mark.parametrize("letter,rank", SYSTEMS)
def test_stored_values_agree_with_scratch(letter, rank):
    group = _fresh_group(letter, rank)
    sets = conjugates = 0
    for m in group.minuscule:
        _check_rank_and_word(group, m.element)
        for s in orthogonal_subsets(group.rs, group.shifted_roots(m.mask)):
            sigma = reflection_product(group, s)
            assert sigma == _product_from_scratch(group, s)
            assert reflection_product(group, s) is sigma
            _check_rank_and_word(group, sigma)
            assert rank_id_minus(group, sigma) == len(s)
            sets += 1
            for i in group.simple_indices:
                conj = twisted_conjugate(group, i, sigma)
                _check_rank_and_word(group, conj)
                conjugates += 1
    assert sets > 0 and conjugates > 0


def test_suites_compute_each_value_once(monkeypatch):
    """On a fresh B3 group, the involutions and poset suites run the
    elimination once per distinct element and build the product once per
    distinct set."""
    ranked: set = set()
    multiplied: set = set()
    stored: list = []
    eliminations = 0

    def counted_rank_id_minus(group, x):
        ranked.add(x)
        return rank_id_minus(group, x)

    def counted_reflection_product(group, s):
        multiplied.add(s)
        return reflection_product(group, s)

    def counted_matrix_rank(rows):
        nonlocal eliminations
        eliminations += 1
        return _int_matrix_rank(rows)

    class StoreCountingTable(dict):
        def __setitem__(self, s, sigma):
            stored.append(s)
            super().__setitem__(s, sigma)

    _rebind(monkeypatch, rank_id_minus, counted_rank_id_minus)
    _rebind(monkeypatch, reflection_product, counted_reflection_product)
    monkeypatch.setattr(involutions, "_int_matrix_rank", counted_matrix_rank)
    group = _fresh_group("B", 3)
    group._sigmas = StoreCountingTable()
    for name in ("involutions", "poset"):
        assert all(r.ok for r in run_suite(group, name))
    assert ranked and multiplied
    assert eliminations == len(ranked)
    assert len(stored) == len(multiplied)


def _greedy_strip(group, x):
    """The smallest left descent, stripped off until the identity is left."""
    letters = []
    while True:
        left = group.descents(group.inverse(x))
        if not left:
            return tuple(letters)
        i = min(left)
        letters.append(i)
        x = group.multiply(group.simple_reflection(i), x)


@pytest.mark.parametrize("letter,rank", SYSTEMS + [("F", 4), ("E", 6)])
def test_walk_stores_the_greedy_words(letter, rank):
    """The minuscule walk fills the word table; each stored word is the one
    stripping gives, on this group and on a group that never walked."""
    group = _fresh_group(letter, rank)
    stripper = _fresh_group(letter, rank)
    for m in group.minuscule:
        word = group._words[m.element]
        assert word == _greedy_strip(group, m.element)
        assert word == stripper.reduced_word(m.element)
        assert group.evaluate_word(word) == m.element
        assert len(word) == m.length
        assert group.reduced_word(m.element) is word


@pytest.mark.parametrize("letter,rank", SYSTEMS)
def test_transform_set_agrees_with_make_orthogonal_set(monkeypatch, letter, rank):
    """Every (x, S) the poset and phi suites move gives the set that the
    checked constructor builds from the same images.  The poset suite's
    images come out in canonical order; phi's w_P reorders some of them."""
    moved = []

    def recorded_transform(group, x, s):
        out = transform_set(group, x, s)
        moved.append((x, s, out))
        return out

    _rebind(monkeypatch, transform_set, recorded_transform)
    group = _fresh_group(letter, rank)
    for name in ("poset", "phi"):
        assert all(r.ok for r in run_suite(group, name))
    assert moved
    for x, s, out in moved:
        assert out == make_orthogonal_set(group.rs, [group.act(x, a) for a in s])


def test_tables_die_with_their_group():
    group = _fresh_group("B", 2)
    top = group.minuscule[-1]
    s = orthogonal_subsets(group.rs, group.shifted_roots(top.mask))[-1]
    sigma = reflection_product(group, s)
    assert involution_length(group, sigma) > 0
    assert group.reduced_word(sigma)
    assert group._sigmas and group._ranks and group._words
    ref = weakref.ref(group)
    del group, top, s, sigma
    gc.collect()
    assert ref() is None


def test_streamed_involutions_leave_no_entry():
    """strong-form and support-injectivity stream every orthogonal subset of
    Phi^+ - delta (D4: 46 of them, 22 contexts) and keep only the contexts:
    the involution table holds exactly the contexts, and the word table no
    involution of a streamed subset that is not one."""
    from borbits.involutions import shifted_orthogonal_stream, support_injectivity_check
    from borbits.orbits import verify_strong_form

    group = _fresh_group("D", 4)
    assert verify_strong_form(group).ok
    assert all(support_injectivity_check(group))
    contexts = {
        s for m in group.minuscule for s in orthogonal_subsets(group.rs, group.shifted_roots(m.mask))
    }
    assert set(group._sigmas) == contexts
    streamed = [(r, sigma) for r, _, sigma in shifted_orthogonal_stream(group) if r not in contexts]
    assert streamed
    assert not any(sigma in group._words for _, sigma in streamed)
    # the stream walked here on its own stored nothing either
    assert set(group._sigmas) == contexts


# -- the checks still fire --------------------------------------------------------


def _support(group, size):
    """An orthogonal subset of the given size inside the largest inversion
    set, with that minuscule element."""
    top = group.minuscule[-1]
    for s in orthogonal_subsets(group.rs, group.shifted_roots(top.mask)):
        if len(s) == size:
            return s, top
    raise LookupError(size)


def _supported_sigma(group, size):
    """A stored involution whose support has the given size."""
    return reflection_product(group, _support(group, size)[0])


def test_a_wrong_support_size_is_caught_after_the_rank_is_stored():
    """Every pair's sigma is ranked against |S| when the pair is built: a
    stored sigma of a one-root set under a two-root set is refused."""
    group = _fresh_group("A", 3)
    ident = group.minuscule[0]
    s, top = _support(group, 2)
    assert make_admissible_pair(group, ident, s, top).sigma in group._ranks
    group._sigmas[s] = _supported_sigma(group, 1)
    with pytest.raises(AssertionError, match="rank of id - sigma differs from the support size"):
        make_admissible_pair(group, ident, s, top)


def test_a_corrupted_sigma_is_caught_by_the_move():
    """The move's new involution comes from the table; when it is corrupted
    with another involution of the same rank, which the pair's support-size
    check lets through, the twisted-conjugation check refuses the move."""
    rs = build_root_system("A", 3)
    clean = AffineWeylGroup(rs)
    ident = clean.minuscule[0]
    pair, i = next(
        (pair, i)
        for w in clean.minuscule
        for s in orthogonal_subsets(rs, clean.shifted_roots(w.mask))
        if len(s) == 1
        for pair in [make_admissible_pair(clean, ident, s, w)]
        for i, cls in pair_descents(clean, pair).items()
        if cls == ("complex", "affine")
    )
    moved = descent_move(clean, pair, i)
    key = transform_set(clean, moved.v.element, moved.s)
    foreign = next(x for s, x in clean._sigmas.items() if len(s) == 1 and x != moved.sigma)

    group = AffineWeylGroup(rs)
    pair = make_admissible_pair(group, group.minuscule[0], pair.s, pair.witness)
    group._sigmas[key] = foreign
    with pytest.raises(AssertionError, match="descent move does not match twisted conjugation"):
        descent_move(group, pair, i)


def test_a_corrupted_rank_is_caught_by_involution_length():
    """A stored rank of 3 for a two-root support: the pair refuses it on the
    support size, and involution_length on the parity."""
    group = _fresh_group("A", 3)
    s, top = _support(group, 2)
    sigma = reflection_product(group, s)
    group._ranks[sigma] = (3, group.length(sigma))
    with pytest.raises(AssertionError, match="rank of id - sigma differs from the support size"):
        make_admissible_pair(group, group.minuscule[0], s, top)
    with pytest.raises(AssertionError, match="different parity"):
        involution_length(group, sigma)


def test_a_corrupted_length_is_caught_by_involution_length():
    group = _fresh_group("A", 3)
    sigma = _supported_sigma(group, 2)
    ell = group.length(sigma)
    assert involution_length(group, sigma) == (ell + 2) // 2
    group._ranks[sigma] = (2, ell + 1)
    with pytest.raises(AssertionError, match="different parity"):
        involution_length(group, sigma)


def test_involution_length_counts_each_length_once(monkeypatch):
    """The length is stored next to the rank, so repeated calls read it."""
    group = _fresh_group("B", 3)
    sigma = _supported_sigma(group, 2)
    counted = []
    length = group.length
    monkeypatch.setattr(group, "length", lambda x: counted.append(x) or length(x))
    values = {involution_length(group, sigma) for _ in range(5)}
    assert values == {(length(sigma) + 2) // 2}
    assert counted == [sigma]
    assert group._ranks[sigma] == (2, length(sigma))
