"""The closure order of an orbit poset is inferred, not compared pair by pair.

`build_orbit_poset` visits the nodes by Coxeter length, compares a node only
with the strictly shorter nodes not yet known to lie below it, and reads the
Hasse diagram off the lower sets.  The pairwise Bruhat matrix and its cubic
transitive reduction, which it computed before, are kept here as the oracle:
the sweep compares both with the inferred order on every pair v <= w of A3,
B3, C3, D4, G2 and F4, and on v = identity for E6.  The sabotage tests show
that a repeated involution and a dropped relation are both caught.
"""

import pytest

from borbits import orbits, suites
from borbits.affine import AffineWeylGroup
from borbits.minuscule import weak_order_leq
from borbits.orbits import OrbitPoset, build_orbit_poset
from borbits.roots import build_root_system

from conftest import get_system


def pairwise_leq(group, poset):
    sigmas = [node.sigma for node in poset.nodes]
    return tuple(sum(group.bruhat_leq(a, b) << j for j, b in enumerate(sigmas)) for a in sigmas)


def transitive_reduction(leq):
    """The Hasse diagram of a relation: (i, j) with i < j and nothing strictly
    between them, by the cubic scan."""
    n = len(leq)
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i] >> j & 1:
                continue
            if any(k != i and k != j and leq[i] >> k & 1 and leq[k] >> j & 1 for k in range(n)):
                continue
            edges.append((i, j))
    return tuple(sorted(edges))


def _agrees(group, w, v):
    poset = build_orbit_poset(group, w, v)
    leq = pairwise_leq(group, poset)
    assert poset.leq == leq
    assert poset.hasse == transitive_reduction(leq)
    return len(poset.nodes)


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)])
def test_inferred_order_matches_every_pair(letter, rank):
    _, group = get_system(letter, rank)
    mins = group.minuscule
    pairs = [(w, v) for w in mins for v in mins if weak_order_leq(v, w)]
    assert len(pairs) > len(mins)
    assert max(_agrees(group, w, v) for w, v in pairs) > 1


def test_inferred_order_matches_every_pair_on_e6():
    _, group = get_system("E", 6)
    ident = group.minuscule[0]
    assert max(_agrees(group, w, ident) for w in group.minuscule) == 57


def test_inference_compares_few_pairs(monkeypatch):
    """E6 ideal 60 has 51 orbits; the inferred order needs 340 comparisons,
    not the 2,601 of the pairwise matrix."""
    _, group = get_system("E", 6)
    calls = []
    real = AffineWeylGroup.bruhat_leq

    def counted(self, u, w):
        calls.append((u, w))
        return real(self, u, w)

    monkeypatch.setattr(AffineWeylGroup, "bruhat_leq", counted)
    poset = build_orbit_poset(group, group.minuscule[60], group.minuscule[0])
    lengths = {node.sigma: node.length for node in poset.nodes}
    assert len(poset.nodes) == 51
    assert len(calls) == 340
    assert all(lengths[u] < lengths[w] for u, w in calls)


def test_a_repeated_involution_is_not_antisymmetric(monkeypatch):
    _, group = get_system("B", 2)
    real = orbits.gap_subsets

    def repeated(group, gap):
        subsets = real(group, gap)
        return subsets + subsets[-1:]

    monkeypatch.setattr(orbits, "gap_subsets", repeated)
    with pytest.raises(AssertionError, match="closure order is not antisymmetric"):
        build_orbit_poset(group, group.minuscule[-1], group.minuscule[0])


def _violations(group):
    (report,) = [r for r in suites.run_suite(group, "poset") if r.name == "poset-invariants"]
    return report.violations


def test_poset_suite_catches_a_dropped_relation(monkeypatch):
    _, group = get_system("B", 2)
    assert _violations(group) == ()
    real = suites.build_orbit_poset
    dropped = []

    def dropping(group, w, v):
        poset = real(group, w, v)
        leq = list(poset.leq)
        strict = [(i, j) for i, row in enumerate(leq) for j in range(len(leq)) if row >> j & 1 and i != j]
        if strict:
            i, j = strict[0]
            leq[i] &= ~(1 << j)
            dropped.append((i, j))
        return OrbitPoset(poset.context, poset.nodes, tuple(leq), poset.hasse)

    monkeypatch.setattr(suites, "build_orbit_poset", dropping)
    found = _violations(group)
    assert dropped
    assert set(found) == {"inferred order differs from pairwise Bruhat comparison"}


def test_poset_suite_catches_a_dropped_hasse_edge(monkeypatch):
    _, group = get_system("B", 2)
    real = suites.build_orbit_poset
    dropped = []

    def dropping(group, w, v):
        poset = real(group, w, v)
        if poset.hasse:
            dropped.append(poset.hasse[0])
        return OrbitPoset(poset.context, poset.nodes, poset.leq, poset.hasse[1:])

    monkeypatch.setattr(suites, "build_orbit_poset", dropping)
    found = _violations(group)
    assert dropped
    assert set(found) == {"hasse closure mismatch"}


def test_poset_suite_catches_an_intransitive_order(monkeypatch):
    """The pairwise matrix loses one relation a < c of a chain a < b < c;
    the bit-row transitivity check sees it."""
    group = AffineWeylGroup(build_root_system("B", 2))
    poset = build_orbit_poset(group, group.minuscule[-1], group.minuscule[0])
    n = len(poset.nodes)
    a, b, c = next(
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if len({i, j, k}) == 3 and poset.leq[i] >> j & 1 and poset.leq[j] >> k & 1
    )
    lost = (poset.nodes[a].sigma, poset.nodes[c].sigma)
    real = group.bruhat_leq
    monkeypatch.setattr(group, "bruhat_leq", lambda u, w: (u, w) != lost and real(u, w))
    found = _violations(group)
    assert "order is not transitive" in found
    assert "inferred order differs from pairwise Bruhat comparison" in found
