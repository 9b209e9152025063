"""The group keeps one table of deterministic results, the involution of
each orthogonal set; each element keeps its own length and reduced word,
and the rank of id - x is read off the root tables.

Every kept value is compared here with a from-scratch computation (the
product in this file, the elimination rank in ``oracles``), the counts show
that each product is built once per group, and sabotage of a kept value is
still caught by the checks that read it.  The words of minuscule elements,
which the minuscule walk sets, are compared with greedy stripping, and the
unchecked `transform_set` with the checked `make_orthogonal_set`.  Each
test builds its own groups, so no corrupted value reaches another test.
"""

import gc
import sys
import weakref

import pytest

from borbits import involutions, suites
from borbits.affine import AffineWeylElement, AffineWeylGroup
from borbits.involutions import (
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
from borbits.minuscule import MinusculeElement
from borbits.roots import build_root_system
from borbits.suites import run_suite

from oracles import rank_id_minus_oracle

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


def _copy(x):
    """An element equal to x with nothing cached on it."""
    return AffineWeylElement(x.perm, x.shift)


def _check_rank_and_word(group, x):
    """For an involution x."""
    assert rank_id_minus(group, x) == rank_id_minus_oracle(group, x)
    _check_length_and_word(group, x)


def _check_length_and_word(group, x):
    ell = group.length(x)
    assert x._length == ell == group.length(_copy(x))
    word = group.reduced_word(x)
    assert group.evaluate_word(word) == x
    assert len(word) == ell
    assert group.reduced_word(x) is word is x._word


@pytest.mark.parametrize("letter,rank", SYSTEMS)
def test_stored_values_agree_with_scratch(letter, rank):
    group = _fresh_group(letter, rank)
    sets = conjugates = 0
    for m in group.minuscule:
        _check_length_and_word(group, m.element)
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
    """On a fresh B3 group, the involutions and poset suites build the
    product once per distinct set, and each kept involution carries the
    length those suites asked of it."""
    multiplied: set = set()
    stored: list = []

    def counted_reflection_product(group, s):
        multiplied.add(s)
        return reflection_product(group, s)

    class StoreCountingTable(dict):
        def __setitem__(self, s, sigma):
            stored.append(s)
            super().__setitem__(s, sigma)

    _rebind(monkeypatch, reflection_product, counted_reflection_product)
    group = _fresh_group("B", 3)
    group._sigmas = StoreCountingTable()
    for name in ("involutions", "poset"):
        assert all(r.ok for r in run_suite(group, name))
    assert multiplied
    assert len(stored) == len(multiplied)
    for sigma in group._sigmas.values():
        assert sigma._length == group.length(_copy(sigma))


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
    """The minuscule walk sets each element's word; each one is the word
    stripping gives, on this group and on a group that never walked."""
    group = _fresh_group(letter, rank)
    stripper = _fresh_group(letter, rank)
    for m in group.minuscule:
        word = m.element._word
        assert word == _greedy_strip(group, m.element)
        assert word == stripper.reduced_word(_copy(m.element))
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
    assert group._sigmas and sigma._length and sigma._word
    ref = weakref.ref(group)
    del group, top, s, sigma
    gc.collect()
    assert ref() is None


def _held_elements(group):
    """Every affine element the group holds, through its attributes and the
    containers and minuscule elements inside them."""
    seen, stack, found = set(), [vars(group)], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, AffineWeylElement):
            found.append(obj)
        elif isinstance(obj, (dict, list, tuple, set, frozenset, MinusculeElement)):
            stack.extend(gc.get_referents(obj))
    return found


def test_streamed_involutions_leave_no_entry():
    """strong-form and support-injectivity stream every orthogonal subset of
    Phi^+ - delta (D4: 46 of them, 22 contexts) and keep only the contexts:
    the involution table holds exactly the contexts, no table is keyed on
    elements, and the group holds no involution of a streamed subset that is
    not a context, apart from its reflections."""
    from borbits.involutions import shifted_orthogonal_stream
    from borbits.suites import support_injectivity_check, verify_strong_form

    group = _fresh_group("D", 4)
    assert verify_strong_form(group).ok
    assert all(support_injectivity_check(group))
    contexts = {
        s for m in group.minuscule for s in orthogonal_subsets(group.rs, group.shifted_roots(m.mask))
    }
    assert set(group._sigmas) == contexts
    streamed = [sigma for r, _, sigma in shifted_orthogonal_stream(group) if r not in contexts]
    assert len(streamed) == 24
    # a one-root subset's involution is its reflection, which the
    # reflection cache holds by design
    assert not set(streamed) & (set(_held_elements(group)) - set(group._reflections.values()))
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
    """Every pair's sigma is ranked against |S| each time the pair is
    built: once its set's entry is replaced by the sigma of a one-root set,
    the same two-root pair is refused."""
    group = _fresh_group("A", 3)
    ident = group.minuscule[0]
    s, top = _support(group, 2)
    assert rank_id_minus(group, make_admissible_pair(group, ident, s, top).sigma) == 2
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


def test_a_corrupted_rank_is_caught_by_involution_length(monkeypatch):
    """A rank_id_minus off by one: the pair refuses it on the support size,
    involution_length on the parity, and the involutions suite's
    rank-and-length report names the sets it misranks."""
    group = _fresh_group("A", 3)
    s, top = _support(group, 2)
    sigma = reflection_product(group, s)

    def off_by_one(group, x):
        return rank_id_minus(group, x) + 1

    with monkeypatch.context() as patch:
        patch.setattr(involutions, "rank_id_minus", off_by_one)
        with pytest.raises(AssertionError, match="rank of id - sigma differs from the support size"):
            make_admissible_pair(group, group.minuscule[0], s, top)
        with pytest.raises(AssertionError, match="different parity"):
            involution_length(group, sigma)
    # the report's own rank is off, and the length it checks is not
    monkeypatch.setattr(suites, "rank_id_minus", off_by_one)
    reports = run_suite(_fresh_group("A", 3), "involutions")
    report = next(r for r in reports if r.name == "rank-and-length")
    assert report.checks and len(report.violations) == report.checks
    assert all(v.startswith("rank of id - sigma is not |S| for ") for v in report.violations)


def test_a_corrupted_length_is_caught_by_involution_length():
    """A length cached off by one on sigma is read, and refused on the parity."""
    group = _fresh_group("A", 3)
    sigma = _supported_sigma(group, 2)
    ell = group.length(sigma)
    assert involution_length(group, sigma) == (ell + 2) // 2
    sigma._length = ell + 1
    with pytest.raises(AssertionError, match="different parity"):
        involution_length(group, sigma)


def test_involution_length_counts_each_length_once():
    """The length is kept on the element, so repeated calls read it: with
    the closed count's sign table gone they still answer, while a copy of
    the element with nothing cached cannot be measured."""
    group = _fresh_group("B", 3)
    sigma = _supported_sigma(group, 2)
    value = involution_length(group, sigma)
    assert value == (group.length(_copy(sigma)) + 2) // 2
    group._negative = None
    assert {involution_length(group, sigma) for _ in range(5)} == {value}
    with pytest.raises(TypeError):
        group.length(_copy(sigma))
