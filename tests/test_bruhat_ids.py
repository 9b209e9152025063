"""The Bruhat walk down the greedy word against the subword oracle.

``bruhat_leq`` walks w's greedy word, kept on w, once, carrying u's left
table and stepping it with the group's per-generator ``_left_steps``.  The
agreement sweep compares every entry of every orbit poset (v = identity) of
A3, B3, C3 and G2 with ``bruhat_leq_oracle``, which searches the subwords of
a reduced word and never reads those tables.  The sabotage tests corrupt one
element's cached word or one left step and check that the sweep notices,
and that greedy stripping on a corrupted step stops with an error.  The
group keeps the left table of the last u compared (``_left_of``): the
sweep runs again with rows interleaved and with u handed in as equal
copies, and a memo that answers for a stale u fails it.  Two more tests
check that a comparison multiplies nothing out and leaves nothing on the
group but that memo, and that the poset suite, which memoizes its
comparisons while it runs, walks each distinct pair once.
"""

import random

import pytest

from borbits import suites
from borbits.affine import AffineWeylGroup
from borbits.orbits import build_orbit_poset
from borbits.roots import build_root_system

from oracles import bruhat_lower_interval_oracle

SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("G", 2)]

# the subword oracle refuses reduced words longer than this
ORACLE_CAP = 20


def _fresh_group(letter, rank):
    # a private group, so its tables start empty and stay unshared
    return AffineWeylGroup(build_root_system(letter, rank))


def poset_entries(letter, rank):
    """(u, w, leq entry) for every ordered pair of nodes of the orbit poset of
    every ideal, v = identity, built on a fresh group."""
    group = _fresh_group(letter, rank)
    v = group.minuscule[0]
    assert v.element == group.identity
    entries = []
    for w in group.minuscule:
        poset = build_orbit_poset(group, w, v)
        els = [node.sigma for node in poset.nodes]
        for i, u in enumerate(els):
            for j, x in enumerate(els):
                entries.append((u, x, bool(poset.leq[i] >> j & 1)))
    return group, entries


def lower_intervals(group, entries):
    """The oracle's lower interval of every upper element, each inside the cap."""
    intervals = {}
    for _, w, _ in entries:
        if w not in intervals:
            assert len(group.reduced_word(w)) <= ORACLE_CAP
            intervals[w] = bruhat_lower_interval_oracle(group, w)
    return intervals


def oracle_mismatches(group, pairs, intervals):
    """The pairs (u, w) on which ``group.bruhat_leq`` and the oracle disagree."""
    return [(u, w) for u, w in pairs if group.bruhat_leq(u, w) != (u in intervals[w])]


@pytest.fixture(scope="module", params=SYSTEMS, ids=lambda p: f"{p[0]}{p[1]}")
def sweep(request):
    group, entries = poset_entries(*request.param)
    return request.param, entries, lower_intervals(group, entries)


def test_orbit_posets_agree_with_the_subword_oracle(sweep):
    _, entries, intervals = sweep
    assert any(leq for _, _, leq in entries) and not all(leq for _, _, leq in entries)
    assert [(u, w) for u, w, leq in entries if leq != (u in intervals[w])] == []


def _uncached(pairs):
    """The pairs over copies of their elements with nothing cached, one copy
    per distinct element, so that words are cached in the order asked."""
    copies = {}
    return [tuple(copies.setdefault(x, type(x)(x.perm, x.shift)) for x in pair) for pair in pairs]


def test_answers_do_not_depend_on_what_is_cached(sweep):
    system, entries, intervals = sweep
    pairs = [(u, w) for u, w, _ in entries]
    forward, backward = _fresh_group(*system), _fresh_group(*system)
    ahead = [forward.bruhat_leq(u, w) for u, w in _uncached(pairs)]
    behind = [backward.bruhat_leq(u, w) for u, w in _uncached(reversed(pairs))][::-1]
    assert ahead == behind == [u in intervals[w] for u, w in pairs]


def test_interleaved_rows_and_equal_copies_agree_with_the_oracle(sweep):
    """The pairs in a shuffled order, so that u changes from one call to the
    next, and again row by row with u handed in as itself, as an equal copy
    with nothing cached and as an equal copy with its word cached: every
    answer is the oracle's, and the row-by-row run reuses u's table."""
    system, entries, intervals = sweep
    pairs = [(u, w) for u, w, _ in entries]
    group = _fresh_group(*system)
    shuffled = pairs[:]
    random.Random(31).shuffle(shuffled)
    assert [group.bruhat_leq(u, w) for u, w in shuffled] == [u in intervals[w] for u, w in shuffled]
    cached = {u: type(u)(u.perm, u.shift) for u, _ in pairs}
    for x in cached.values():
        group.reduced_word(x)
    built = []
    real = group._left_table
    group._left_table = lambda u: built.append(u) or real(u)
    for k, (u, w) in enumerate(pairs):
        x = (u, type(u)(u.perm, u.shift), cached[u])[k % 3 if k % 7 else 0]
        assert x == u
        assert group.bruhat_leq(x, w) == (u in intervals[w]), (k, x is u)
    assert 0 < len(built) < len(pairs)


@pytest.mark.parametrize("stale", ["any u", "u of the same length"])
def test_sweep_detects_a_stale_left_table(stale):
    """A memo that hands out the last table for another u fails the sweep."""

    def corrupt(group, pairs):
        def left_of(u):
            last, d = group._last_left
            if last is None or not (stale == "any u" or group.length(last) == group.length(u)):
                d = group._left_table(u)
                group._last_left = (u, d)
            return d

        group._left_of = left_of

    clean, sabotaged = _sabotaged_sweep(corrupt)
    assert clean == []
    assert sabotaged != []


def _sabotaged_sweep(corrupt):
    """Run the B3 sweep pairs on a fresh group, corrupt one of its tables or
    one compared element's cache and run them again; returns both mismatch
    lists."""
    _, entries = poset_entries("B", 3)
    group = _fresh_group("B", 3)
    intervals = lower_intervals(group, entries)
    pairs = [(u, w) for u, w, _ in entries]
    clean = oracle_mismatches(group, pairs, intervals)
    corrupt(group, pairs)
    return clean, oracle_mismatches(group, pairs, intervals)


def test_sweep_detects_a_corrupted_word():
    def corrupt(group, pairs):
        # the longest compared element's word loses its last letter, so the
        # walk runs down the word of another element
        w = max((w for _, w in pairs), key=lambda x: len(group.reduced_word(x)))
        w._word = w._word[:-1]

    clean, sabotaged = _sabotaged_sweep(corrupt)
    assert clean == []
    assert sabotaged != []


def test_sweep_detects_a_corrupted_left_step():
    def corrupt(group, pairs):
        # s_1 steps the left table of u as s_2 would
        steps = group._left_steps
        group._left_steps = (steps[0], steps[2]) + steps[2:]

    clean, sabotaged = _sabotaged_sweep(corrupt)
    assert clean == []
    assert sabotaged != []


def test_comparisons_register_nothing(monkeypatch):
    """All pairs of one D4 orbit poset's involutions, compared on a fresh
    group, call ``multiply`` never and leave the group as it was but for
    the left table of the last u: no attribute is added and no table grows.
    The words they walk, and their support masks, are kept on the compared
    elements; the identity is below every element without a walk, so it
    gets neither."""
    group = _fresh_group("D", 4)
    poset = build_orbit_poset(group, group.minuscule[-1], group.minuscule[0])
    # copies with nothing cached, so that the comparisons strip their words
    els = [type(x)(x.perm, x.shift) for x in (node.sigma for node in poset.nodes)]
    fresh = _fresh_group("D", 4)
    attributes = set(vars(fresh))
    sizes = {name: len(table) for name, table in vars(fresh).items() if isinstance(table, dict)}
    calls = []
    original = AffineWeylGroup.multiply

    def counted(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(AffineWeylGroup, "multiply", counted)
    answers = [fresh.bruhat_leq(u, x) for u in els for x in els]
    assert calls == []
    assert answers.count(True) > len(els) and not all(answers)
    assert set(vars(fresh)) == attributes
    assert {name: len(vars(fresh)[name]) for name in sizes} == sizes
    walked = [(x, node) for x, node in zip(els, poset.nodes) if x != fresh.identity]
    assert len(walked) == len(els) - 1
    assert all(x._word == group.reduced_word(node.sigma) for x, node in walked)
    assert all(x._support == sum({1 << i for i in x._word}) for x, _ in walked)
    assert fresh._last_left[0] is els[-1]


def test_the_poset_suite_walks_each_pair_once(monkeypatch):
    """The poset suite asks many (u, w) pairs more than once.  Its memo walks
    each distinct pair once, leaves the reports as they are without it, and
    goes with the run."""
    walked = []
    real = AffineWeylGroup.bruhat_leq

    def counted(self, u, w):
        walked.append((u, w))
        return real(self, u, w)

    monkeypatch.setattr(AffineWeylGroup, "bruhat_leq", counted)
    group = _fresh_group("B", 3)
    reports = suites.run_suite(group, "poset")
    assert all(r.ok for r in reports)
    assert "bruhat_leq" not in vars(group)
    memoized, walked[:] = walked[:], []
    monkeypatch.setattr(suites, "cache", lambda f: f)
    assert suites.run_suite(_fresh_group("B", 3), "poset") == reports
    assert len(set(memoized)) == len(memoized)
    assert set(memoized) == set(walked) and len(walked) > len(memoized)


def test_stripping_with_a_corrupted_left_step_stops_and_raises():
    # s_0 steps the left table as s_1 would; the strip must not run on
    group = _fresh_group("B", 3)
    x = group.evaluate_word((0, 1, 2, 3, 0, 2))
    steps = group._left_steps
    group._left_steps = (steps[1],) + steps[1:]
    with pytest.raises(AssertionError, match="did not reach the identity"):
        group.reduced_word(x)
