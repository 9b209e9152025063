"""The Bruhat walk down the greedy word against the subword oracle.

``bruhat_leq`` walks w's stored greedy word once, carrying u's left table
and stepping it with the group's per-generator ``_left_steps``.  The
agreement sweep compares every entry of every orbit poset (v = identity) of
A3, B3, C3 and G2 with ``bruhat_leq_oracle``, which searches the subwords of
a reduced word and never reads those tables.  The sabotage tests corrupt one
stored word or one left step and check that the sweep notices, and that
greedy stripping on a corrupted step stops with an error.  One more test
checks that a comparison multiplies nothing out and keeps nothing but its
answer.
"""

import pytest

from borbits.affine import AffineWeylGroup
from borbits.orbits import build_orbit_poset
from borbits.roots import build_root_system

from oracles import bruhat_lower_interval_oracle

SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("G", 2)]

# the subword oracle refuses reduced words longer than this
ORACLE_CAP = 20


def _fresh_group(letter, rank):
    # a private group, so its Bruhat tables start empty and stay unshared
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
        els = [node.sigma.element for node in poset.nodes]
        for i, u in enumerate(els):
            for j, x in enumerate(els):
                entries.append((u, x, poset.leq[i][j]))
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


def test_answers_do_not_depend_on_what_is_cached(sweep):
    system, entries, intervals = sweep
    pairs = [(u, w) for u, w, _ in entries]
    forward, backward = _fresh_group(*system), _fresh_group(*system)
    ahead = [forward.bruhat_leq(u, w) for u, w in pairs]
    behind = [backward.bruhat_leq(u, w) for u, w in reversed(pairs)][::-1]
    assert ahead == behind == [u in intervals[w] for u, w in pairs]


def _sabotaged_sweep(corrupt):
    """Run the B3 sweep pairs on a fresh group, corrupt one of its tables,
    drop the cached answers and run them again; returns both mismatch lists."""
    _, entries = poset_entries("B", 3)
    group = _fresh_group("B", 3)
    intervals = lower_intervals(group, entries)
    pairs = [(u, w) for u, w, _ in entries]
    clean = oracle_mismatches(group, pairs, intervals)
    corrupt(group)
    group._bruhat.clear()
    return clean, oracle_mismatches(group, pairs, intervals)


def test_sweep_detects_a_corrupted_word():
    def corrupt(group):
        # the longest compared element's word loses its last letter, so the
        # walk runs down the word of another element
        w = max(group._words, key=lambda x: len(group._words[x]))
        group._words[w] = group._words[w][:-1]

    clean, sabotaged = _sabotaged_sweep(corrupt)
    assert clean == []
    assert sabotaged != []


def test_sweep_detects_a_corrupted_left_step():
    def corrupt(group):
        # s_1 steps the left table of u as s_2 would
        steps = group._left_steps
        group._left_steps = (steps[0], steps[2]) + steps[2:]

    clean, sabotaged = _sabotaged_sweep(corrupt)
    assert clean == []
    assert sabotaged != []


def test_comparisons_register_nothing(monkeypatch):
    """All pairs of one D4 orbit poset's involutions, compared on a fresh
    group, call ``multiply`` never, store one answer per distinct pair with
    u not the identity, and keep words of the compared elements only."""
    group = _fresh_group("D", 4)
    poset = build_orbit_poset(group, group.minuscule[-1], group.minuscule[0])
    els = [node.sigma.element for node in poset.nodes]
    fresh = _fresh_group("D", 4)
    calls = []
    original = AffineWeylGroup.multiply

    def counted(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(AffineWeylGroup, "multiply", counted)
    for u in els:
        for x in els:
            fresh.bruhat_leq(u, x)
    assert calls == []
    queried = {(u, x) for u in els for x in els if u != fresh.identity}
    assert len(queried) > len(els)
    assert len(fresh._bruhat) == len(queried) and set(fresh._bruhat) == queried
    assert set(fresh._words) <= set(els)


def test_stripping_with_a_corrupted_left_step_stops_and_raises():
    # s_0 steps the left table as s_1 would; the strip must not run on
    group = _fresh_group("B", 3)
    x = group.evaluate_word((0, 1, 2, 3, 0, 2))
    steps = group._left_steps
    group._left_steps = (steps[1],) + steps[1:]
    with pytest.raises(AssertionError, match="did not reach the identity"):
        group.reduced_word(x)
