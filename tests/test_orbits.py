"""Orbit posets, the closure order, and its independent verifications."""

import json

import pytest

from borbits.involutions import make_admissible_pair, make_orthogonal_set, set_text
from borbits.minuscule import enumerate_minuscule, ideal_from_mask, minuscule_from_element, weak_order_leq
from borbits.orbits import (
    build_orbit_poset,
    export_poset,
    phi_apply,
    phi_involution,
    verify_branch_recursion,
    verify_moves_vs_order,
    verify_phi_equivalence,
    verify_strong_form,
)

from conftest import get_system


def by_word(W, word):
    return minuscule_from_element(W, W.evaluate_word(word))


def test_a2_chain_poset(system):
    rs, W = system("A", 2)
    w = by_word(W, (1, 0))
    ident = by_word(W, ())
    poset = build_orbit_poset(W, w, ident)
    assert [set_text(n.s) for n in poset.nodes] == ["{}", "{0,1-1d}", "{1,1-1d}"]
    assert sorted(n.dim for n in poset.nodes) == [0, 1, 2]
    assert poset.hasse == ((0, 2), (2, 1))
    # bit j of leq[i]: node i is below node j; the chain is 0 < 2 < 1
    assert poset.leq == (0b111, 0b010, 0b110)


def test_point_poset(system):
    rs, W = system("A", 2)
    w = by_word(W, (1, 0))
    poset = build_orbit_poset(W, w, w)
    assert len(poset.nodes) == 1
    assert poset.hasse == ()
    assert poset.nodes[0].dim == w.length


def test_v_not_below_w(system):
    rs, W = system("A", 2)
    with pytest.raises(ValueError):
        build_orbit_poset(W, by_word(W, (1, 0)), by_word(W, (2, 0)))


def test_a3_five_node_example(system):
    rs, W = system("A", 3)
    target = {
        rs.root((1, 1, 0)),
        rs.root((0, 1, 1)),
        rs.root((1, 1, 1)),
    }
    w = next(m for m in enumerate_minuscule(W) if set(ideal_from_mask(rs, m.mask)) == target)
    poset = build_orbit_poset(W, w, by_word(W, ()))
    assert len(poset.nodes) == 5
    sizes = sorted(len(n.s) for n in poset.nodes)
    assert sizes == [0, 1, 1, 1, 2]
    assert rs.pairing(rs.root((1, 1, 0)), rs.root((0, 1, 1))) == 0
    assert max(n.dim for n in poset.nodes) == 3


def test_closure_leq_examples(system):
    rs, W = system("A", 2)
    mins = enumerate_minuscule(W)
    ident, s0 = mins[0], mins[1]
    w20 = next(
        m for m in mins if set(ideal_from_mask(rs, m.mask)) == {rs.simple_root(2), rs.highest_root}
    )
    empty = make_orthogonal_set(rs, [])
    theta = make_orthogonal_set(rs, [(rs.highest_root, -1)])
    alpha2 = make_orthogonal_set(rs, [(rs.simple_root(2), -1)])
    p_empty = make_admissible_pair(W, ident, empty, s0)
    p_theta = make_admissible_pair(W, ident, theta, s0)
    p_alpha2 = make_admissible_pair(W, ident, alpha2, w20)

    def closure_leq(p, q):
        """Closure comparison over a common v: the Bruhat order of the
        involutions."""
        return W.bruhat_leq(p.sigma, q.sigma)

    assert closure_leq(p_theta, p_theta)
    assert closure_leq(p_empty, p_theta)
    assert closure_leq(p_theta, p_alpha2)
    assert not closure_leq(p_alpha2, p_theta)


def test_poset_invariants(system):
    for letter, rank in [("A", 3), ("B", 2), ("C", 3)]:
        rs, W = get_system(letter, rank)
        mins = enumerate_minuscule(W)
        ident = mins[0]
        for w in mins:
            poset = build_orbit_poset(W, w, ident)
            n = len(poset.nodes)
            leq = poset.leq
            for i in range(n):
                assert leq[i] >> i & 1
                for j in range(n):
                    if i != j and leq[i] >> j & 1:
                        assert not leq[j] >> i & 1
                        assert poset.nodes[i].big_l < poset.nodes[j].big_l
                    if set(poset.nodes[i].s) <= set(poset.nodes[j].s):
                        assert leq[i] >> j & 1
                    for k in range(n):
                        if leq[i] >> j & 1 and leq[j] >> k & 1:
                            assert leq[i] >> k & 1
            assert min(node.dim for node in poset.nodes) == 0
            assert max(node.dim for node in poset.nodes) == w.length
            maxima = [i for i in range(n) if all(leq[j] >> i & 1 for j in range(n))]
            minima = [i for i in range(n) if all(leq[i] >> j & 1 for j in range(n))]
            assert len(maxima) == 1 and len(minima) == 1


def test_hasse_is_transitive_reduction(system):
    rs, W = get_system("A", 3)
    mins = enumerate_minuscule(W)
    w = max(mins, key=lambda m: m.length)
    poset = build_orbit_poset(W, w, mins[0])
    n = len(poset.nodes)
    reach = [set() for _ in range(n)]
    for i, j in poset.hasse:
        reach[i].add(j)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in list(reach[i]):
                if not reach[j] <= reach[i]:
                    reach[i] |= reach[j]
                    changed = True
    for i in range(n):
        for j in range(n):
            assert (j in reach[i]) == (bool(poset.leq[i] >> j & 1) and i != j)
    for i, j in poset.hasse:
        assert not any(
            k != i and k != j and poset.leq[i] >> k & 1 and poset.leq[k] >> j & 1 for k in range(n)
        )


def test_dimension_formula(system):
    for letter, rank in [("A", 4), ("B", 4), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]:
        rs, W = get_system(letter, rank)
        mins = enumerate_minuscule(W)
        ident = mins[0]
        for w in mins:
            poset = build_orbit_poset(W, w, ident)
            for node in poset.nodes:
                assert node.dim == node.big_l
                assert 2 * node.big_l == node.length + len(node.s)


def test_node_counts_monotone(system):
    rs, W = get_system("B", 3)
    from borbits.involutions import orthogonal_subsets

    mins = enumerate_minuscule(W)
    for w in mins:
        counts = {}
        for v in mins:
            if weak_order_leq(v, w):
                gap = W.shifted_roots(w.mask & ~v.mask)
                counts[v.element] = len(orthogonal_subsets(rs, gap))
        for v1 in mins:
            for v2 in mins:
                if v1.element in counts and v2.element in counts and weak_order_leq(v1, v2):
                    assert counts[v1.element] >= counts[v2.element]


@pytest.mark.parametrize("letter,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_strong_form(letter, rank):
    _, W = get_system(letter, rank)
    rep = verify_strong_form(W)
    assert rep.ok, rep.violations[:5]
    assert rep.checks > 0


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2)])
def test_branch_recursion_full_sweep(letter, rank):
    _, W = get_system(letter, rank)
    for m in enumerate_minuscule(W):
        rep = verify_branch_recursion(W, m)
        assert rep.ok, rep.violations[:5]


def test_branch_recursion_identity_chain(system):
    rs, W = system("A", 2)
    s0 = next(m for m in enumerate_minuscule(W) if m.length == 1)
    rep = verify_branch_recursion(W, s0)
    assert rep.ok
    assert rep.checks == 1  # single cover, S empty


@pytest.mark.parametrize("letter,rank", [("A", 2), ("A", 3), ("C", 3)])
def test_moves_vs_order(letter, rank):
    _, W = get_system(letter, rank)
    for m in enumerate_minuscule(W):
        rep = verify_moves_vs_order(W, m)
        assert rep.ok, rep.violations[:5]


def test_phi_involution_a2(system):
    rs, W = system("A", 2)
    phi = phi_involution(W, 1)
    assert phi == {1: 0, 0: 1, 2: 2}
    s_theta = W.reflection((rs.highest_root, 0))
    assert phi_apply(W, phi, s_theta) == W.reflection((rs.simple_root(1), -1))


def test_phi_requires_mark_one(system):
    _, w_b2 = get_system("B", 2)
    with pytest.raises(ValueError):
        phi_involution(w_b2, 2)
    _, w_c3 = get_system("C", 3)
    with pytest.raises(ValueError):
        phi_involution(w_c3, 2)


@pytest.mark.parametrize(
    "letter,rank,indices",
    [
        ("A", 2, (1, 2)),
        ("A", 3, (1, 2, 3)),
        ("B", 3, (1,)),
        ("C", 3, (3,)),
        ("D", 4, (1, 3, 4)),
    ],
)
def test_phi_equivalence(letter, rank, indices):
    rs, W = get_system(letter, rank)
    assert tuple(i for i in range(1, rank + 1) if rs.marks[i - 1] == 1) == indices
    for i in indices:
        rep = verify_phi_equivalence(W, i)
        assert rep.ok, rep.violations[:5]
        assert rep.checks > 0


def test_phi_gr24_case(system):
    """The middle-node parabolic of A3 has a four-root nilradical with six
    nonempty orthogonal subsets; the two order pictures must agree on all of
    them (plus the empty one)."""
    rs, W = get_system("A", 3)
    ideal = [g for g in rs.positive_roots if g[1] == 1]
    assert len(ideal) == 4
    from borbits.involutions import orthogonal_subsets

    subsets = orthogonal_subsets(rs, [(g, 0) for g in ideal])
    assert len([s for s in subsets if len(s) > 0]) == 6
    rep = verify_phi_equivalence(W, 2)
    assert rep.ok


def test_export_dot(system):
    rs, W = system("A", 2)
    mins = enumerate_minuscule(W)
    w = next(
        m for m in mins if set(ideal_from_mask(rs, m.mask)) == {rs.simple_root(2), rs.highest_root}
    )
    poset = build_orbit_poset(W, w, mins[0])
    dot = export_poset(poset, "dot")
    assert dot.startswith("digraph {\n  rankdir=BT;\n")
    assert 'n0 [label="{} / 0"]' in dot
    assert dot.count("->") == 2
    point = build_orbit_poset(W, w, w)
    pdot = export_poset(point, "dot")
    assert pdot.count("->") == 0 and pdot.count("label=") == 1


def test_export_json_schema_and_determinism(system):
    rs, W = system("A", 2)
    mins = enumerate_minuscule(W)
    w = next(
        m for m in mins if set(ideal_from_mask(rs, m.mask)) == {rs.simple_root(2), rs.highest_root}
    )
    poset = build_orbit_poset(W, w, mins[0])
    text = export_poset(poset, "json")
    assert text == export_poset(build_orbit_poset(W, w, mins[0]), "json")
    data = json.loads(text)
    assert data["context"] == {"type": "A", "rank": 2, "ideal_id": 2, "v_word": ""}
    assert {k for node in data["nodes"] for k in node} == {
        "id",
        "S",
        "sigma_word",
        "length",
        "L",
        "dim",
    }
    assert data["hasse"] == [[0, 2], [2, 1]]
    for node in data["nodes"]:
        word = tuple(int(t) for t in node["sigma_word"].split()) if node["sigma_word"] else ()
        assert W.length(W.evaluate_word(word)) == node["length"]
    with pytest.raises(ValueError):
        export_poset(poset, "yaml")
