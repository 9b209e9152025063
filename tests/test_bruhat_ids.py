"""The id-based Bruhat recursion against the subword oracle.

``bruhat_leq`` runs the lifting recursion on per-group element ids, with
lengths, left-descent masks and left products s_i x stored per id.  The
agreement sweep compares every entry of every orbit poset (v = identity) of
A3, B3, C3 and G2 with ``bruhat_leq_oracle``, which searches the subwords of
a reduced word and never reads those tables.  The sabotage tests corrupt one
stored left product or one stored length and check that the sweep notices;
the last test checks that each (element, generator) product is multiplied
out at most once.
"""

import pytest

from borbits.affine import AffineWeylGroup
from borbits.orbits import build_orbit_poset
from borbits.roots import build_root_system

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
    assert v.element.is_identity
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
            intervals[w] = group.bruhat_lower_interval_oracle(w)
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


def test_sweep_detects_a_corrupted_left_product():
    def corrupt(group):
        # send one stored s_i x, x as long as possible, to another element of
        # the same length: the recursion still terminates, on wrong data
        lengths = group._lengths
        same_length = {}
        for k, ell in enumerate(lengths):
            same_length.setdefault(ell, []).append(k)
        (n, i), m = max(
            ((key, m) for key, m in group._left.items() if len(same_length[lengths[m]]) > 1),
            key=lambda item: lengths[item[0][0]],
        )
        group._left[n, i] = next(k for k in same_length[lengths[m]] if k != m)

    clean, sabotaged = _sabotaged_sweep(corrupt)
    assert clean == []
    assert sabotaged != []


def test_sweep_detects_a_corrupted_length():
    def corrupt(group):
        # the longest element compared claims to be one shorter
        n = max(range(len(group._lengths)), key=group._lengths.__getitem__)
        group._lengths[n] -= 1

    clean, sabotaged = _sabotaged_sweep(corrupt)
    assert clean == []
    assert sabotaged != []


def test_each_left_product_is_multiplied_once(monkeypatch):
    """All pairs of one D4 orbit poset's involutions, compared on a fresh
    group, call ``multiply`` at most once per (element, generator)."""
    group = _fresh_group("D", 4)
    poset = build_orbit_poset(group, group.minuscule[-1], group.minuscule[0])
    els = [node.sigma.element for node in poset.nodes]
    fresh = _fresh_group("D", 4)
    simple = {fresh.simple_reflection(i) for i in fresh.simple_indices}
    calls = []
    original = AffineWeylGroup.multiply

    def counted(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(AffineWeylGroup, "multiply", counted)
    for u in els:
        for x in els:
            fresh.bruhat_leq(u, x)
    assert calls
    assert all(x in simple for x, _ in calls)
    assert len(calls) == len(set(calls))
