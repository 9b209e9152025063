"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance here is exact (integer equality), and the stated runtime budgets
are asserted with a wall clock.
"""

import time
from contextlib import contextmanager

from borbits.affine import AffineWeylGroup, negate
from borbits.involutions import (
    make_admissible_pair,
    make_orthogonal_set,
    negated_root_report,
    orthogonal_subsets,
    pair_descents,
    reflection_product,
    support_injectivity_check,
)
from borbits.minuscule import (
    enumerate_abelian_ideals,
    enumerate_minuscule,
    ideal_from_mask,
    ideal_to_element,
    is_minuscule,
    minuscule_from_element,
    normalizer_by_ideal_stability,
    normalizer_simple_roots,
    weak_order_leq,
)
from borbits.orbits import (
    build_orbit_poset,
    verify_branch_recursion,
    verify_moves_vs_order,
    verify_phi_equivalence,
    verify_strong_form,
)
from borbits.roots import build_root_system
from borbits.typea import oracle_report

from conftest import get_system
from oracles import bruhat_lower_interval_oracle

FULL_MATRIX = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("D", 4), ("G", 2), ("F", 4),
]


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: pass")


def test_criterion_01_enumeration_and_bijection():
    with criterion(1, "enumeration-bijection"):
        start = time.monotonic()
        assert len(enumerate_abelian_ideals(build_root_system("A", 1))) == 2
        assert len(enumerate_abelian_ideals(build_root_system("A", 2))) == 4
        for letter, rank in FULL_MATRIX:
            rs = build_root_system(letter, rank)
            group = AffineWeylGroup(rs)
            ideals = enumerate_abelian_ideals(rs)
            mins = enumerate_minuscule(group)
            assert len(ideals) == len(mins)
            for ideal, m in zip(ideals, mins):
                assert set(ideal_from_mask(rs, m.mask)) == set(ideal)
                assert ideal_to_element(group, ideal).element == m.element
        assert time.monotonic() - start < 10.0


def test_criterion_02_a3_pullback_example():
    with criterion(2, "a3-minuscule-example"):
        rs, W = get_system("A", 3)
        w = W.evaluate_word((1, 3, 0))
        assert is_minuscule(W, w)
        m = minuscule_from_element(W, w)
        shifted = {(g, -1) for g in rs.positive_roots}
        assert shifted - set(W.shifted_roots(m.mask)) == {
            (rs.simple_root(i), -1) for i in (1, 2, 3)
        }
        image = W.act(w, (rs.simple_root(1), -1))
        assert image == ((-1, -1, 0), 0)  # -(alpha_1 + alpha_2)


def test_criterion_03_a2_coset_example():
    with criterion(3, "a2-coset-example"):
        rs, W = get_system("A", 2)
        big = W.evaluate_word((1, 2, 0))
        small = W.evaluate_word((1, 0))
        assert W.descents(big) <= {0}  # a minimal coset representative
        assert W.bruhat_leq(small, big)
        inv_small = set(W.inversions_from_negative(small))
        inv_big = set(W.inversions_from_negative(big))
        assert not inv_small <= inv_big
        assert not is_minuscule(W, big)


def test_criterion_04_d4_counterexamples():
    with criterion(4, "d4-counterexamples"):
        rs, W = get_system("D", 4)

        def s(*texts):
            return make_orthogonal_set(
                rs, [(rs.epsilon_to_root(t), -1) for t in texts]
            )

        first = s("e1+e3", "e1-e3", "e2+e4", "e2-e4")
        second = s("e1+e4", "e1-e4", "e2+e3", "e2-e3")
        sig1 = reflection_product(W, first)
        sig2 = reflection_product(W, second)
        assert sig1 == sig2
        alpha = (rs.epsilon_to_root("e1+e2"), -2)
        assert W.act(sig1, alpha) == negate(alpha)
        for m in enumerate_minuscule(W):
            assert not set(first) <= set(W.shifted_roots(m.mask))


def test_criterion_05_weak_order_and_oracle():
    with criterion(5, "weak-order-bruhat-oracle"):
        for letter, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4)]:
            _, W = get_system(letter, rank)
            mins = enumerate_minuscule(W)
            for m1 in mins:
                for m2 in mins:
                    assert weak_order_leq(m1, m2) == W.bruhat_leq(m1.element, m2.element)
        for letter, rank in [("A", 2), ("B", 2)]:
            _, W = get_system(letter, rank)
            seen = {W.identity}
            frontier = [W.identity]
            for _ in range(7):
                new = []
                for x in frontier:
                    for i in W.simple_indices:
                        y = W.multiply(W.simple_reflection(i), x)
                        if y not in seen:
                            seen.add(y)
                            new.append(y)
                frontier = new
            elements = sorted(seen, key=lambda x: (W.length(x), x.perm, x.shift))
            for w in elements:
                below = bruhat_lower_interval_oracle(W, w)
                for u in elements:
                    assert W.bruhat_leq(u, w) == (u in below)


def test_criterion_06_normalizer_criteria():
    with criterion(6, "normalizer-criteria"):
        for letter, rank in FULL_MATRIX:
            rs, W = get_system(letter, rank)
            for m in enumerate_minuscule(W):
                assert set(normalizer_simple_roots(W, m)) == set(
                    normalizer_by_ideal_stability(rs, ideal_from_mask(rs, m.mask))
                )


def test_criterion_07_involutions_suite():
    with criterion(7, "involutions-suite"):
        for letter, rank in FULL_MATRIX:
            rs, W = get_system(letter, rank)
            mins = enumerate_minuscule(W)
            if (letter, rank) == ("G", 2):
                for m in mins:
                    ideal = ideal_from_mask(rs, m.mask)
                    for a in ideal:
                        for b in ideal:
                            if a != b:
                                assert rs.pairing(a, b) != 0
            assert support_injectivity_check(W) == [True] * len(mins)
            for m in mins:
                for s in orthogonal_subsets(rs, W.shifted_roots(m.mask)):
                    assert negated_root_report(W, s, m).ok
                    for gamma in rs.positive_roots:
                        hits = [g for g, _ in s if rs.is_root(tuple(x + y for x, y in zip(g, gamma)))]
                        assert len(hits) <= 1
                    if s:
                        sigma = reflection_product(W, s)
                        from borbits.involutions import descent_classify

                        for i in range(1, rs.rank + 1):
                            kind = descent_classify(W, sigma, i)
                            if kind == "none":
                                continue
                            beta = rs.simple_root(i)
                            moved = {(rs.reflect(beta, g), level) for g, level in s}
                            assert moved <= set(W.shifted_roots(m.mask))
                            assert (moved == set(s)) == (kind == "real")
            for w in mins:
                for v in mins:
                    if not weak_order_leq(v, w):
                        continue
                    gap = W.shifted_roots(w.mask & ~v.mask)
                    for s in orthogonal_subsets(rs, gap):
                        pair_descents(W, make_admissible_pair(W, v, s, w))


def test_criterion_08_dimension_formula():
    with criterion(8, "dimension-formula"):
        for letter, rank in FULL_MATRIX:
            _, W = get_system(letter, rank)
            mins = enumerate_minuscule(W)
            ident = mins[0]
            for w in mins:
                poset = build_orbit_poset(W, w, ident)
                for node in poset.nodes:
                    assert node.dim == node.big_l
                    assert 2 * node.big_l == node.length + len(node.s)
                assert max(n.dim for n in poset.nodes) == w.length
        for letter, rank in [("A", 2), ("B", 2), ("C", 3)]:
            _, W = get_system(letter, rank)
            for m in enumerate_minuscule(W):
                rep = verify_branch_recursion(W, m)
                assert rep.ok, rep.violations[:3]


def test_criterion_09_moves_vs_order():
    with criterion(9, "moves-vs-order"):
        start = time.monotonic()
        for letter, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4)]:
            _, W = get_system(letter, rank)
            for m in enumerate_minuscule(W):
                rep = verify_moves_vs_order(W, m)
                assert rep.ok, rep.violations[:3]
        assert time.monotonic() - start < 300.0


def test_criterion_10_strong_form():
    with criterion(10, "strong-form"):
        for letter, rank in FULL_MATRIX:
            _, W = get_system(letter, rank)
            rep = verify_strong_form(W)
            assert rep.ok, rep.violations[:3]


def test_criterion_11_phi_equivalence():
    with criterion(11, "phi-equivalence"):
        for letter, rank in [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
            rs, W = get_system(letter, rank)
            marked = [i for i in range(1, rank + 1) if rs.marks[i - 1] == 1]
            assert marked
            for i in marked:
                rep = verify_phi_equivalence(W, i)
                assert rep.ok, rep.violations[:3]


def test_criterion_12_typea_oracle():
    with criterion(12, "typea-oracle"):
        start = time.monotonic()
        for ideal_id in range(4):
            reports = oracle_report(3, ideal_id, (2, 3))
            for rep in reports:
                assert rep["classes"] >= rep["combinatorial"]
        assert time.monotonic() - start < 120.0
