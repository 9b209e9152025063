"""Involutions of orthogonal sets, descents, and the lowering moves."""

import random

import pytest

from borbits.affine import AffineRoot
from borbits.involutions import (
    Involution,
    descent_classify,
    descent_move,
    involution_length,
    make_admissible_pair,
    make_orthogonal_set,
    negated_root_report,
    orthogonal_subsets,
    pair_descents,
    rank_id_minus,
    reflection_product,
    support_injectivity_check,
    twisted_conjugate,
)
from borbits.minuscule import enumerate_minuscule, weak_order_leq

from conftest import get_system


def shifted(rs, *texts):
    return make_orthogonal_set(rs, [AffineRoot(rs.epsilon_to_root(t), -1) for t in texts])


def minuscule_by_word(W, word):
    from borbits.minuscule import minuscule_from_element

    return minuscule_from_element(W, W.evaluate_word(word))


def test_orthogonal_set_rejects_non_orthogonal(system):
    rs, _ = system("A", 2)
    with pytest.raises(ValueError):
        make_orthogonal_set(
            rs,
            [AffineRoot(rs.highest_root, -1), AffineRoot(rs.simple_root(1), -1)],
        )


def test_reflection_product_examples(system):
    rs, W = system("A", 2)
    assert reflection_product(W, make_orthogonal_set(rs, [])).element == W.identity
    s = make_orthogonal_set(rs, [AffineRoot(rs.highest_root, -1)])
    assert reflection_product(W, s).element == W.simple_reflection(0)


def test_reflection_product_order_independent(system):
    rs, W = system("D", 4)
    rng = random.Random(5)
    for m in enumerate_minuscule(W):
        for s in orthogonal_subsets(rs, m.inversions):
            base = reflection_product(W, s).element
            order = list(s.roots)
            for _ in range(3):
                rng.shuffle(order)
                el = W.identity
                for a in order:
                    el = W.multiply(el, W.reflection(a))
                assert el == base


def test_involution_length_examples(system):
    rs, W = system("A", 2)
    assert involution_length(W, Involution(W.identity)) == 0
    assert involution_length(W, Involution(W.simple_reflection(0))) == 1
    s = make_orthogonal_set(rs, [AffineRoot(rs.simple_root(1), -1)])
    assert involution_length(W, reflection_product(W, s)) == 2


def test_rank_equals_support_size(system):
    for letter, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        rs, W = get_system(letter, rank)
        for m in enumerate_minuscule(W):
            for s in orthogonal_subsets(rs, m.inversions):
                sigma = reflection_product(W, s)
                assert rank_id_minus(W, sigma.element) == s.size
                assert 2 * involution_length(W, sigma) == W.length(sigma.element) + s.size


def test_twisted_conjugate_examples(system):
    rs, W = system("A", 2)
    assert twisted_conjugate(W, 0, Involution(W.identity)).element == W.simple_reflection(0)
    assert twisted_conjugate(W, 1, Involution(W.simple_reflection(1))).element == W.identity
    conj = twisted_conjugate(W, 1, Involution(W.simple_reflection(0)))
    assert conj.element == W.evaluate_word((1, 0, 1))
    assert twisted_conjugate(W, 1, conj).element == W.simple_reflection(0)


def test_descent_classify_examples(system):
    rs, W = system("A", 2)
    for i in W.simple_indices:
        assert descent_classify(W, Involution(W.identity), i) == "none"
    assert descent_classify(W, Involution(W.simple_reflection(0)), 0) == "real"
    conj = twisted_conjugate(W, 1, Involution(W.simple_reflection(0)))
    assert descent_classify(W, conj, 1) == "complex"


def test_admissible_pair_validation(system):
    rs, W = system("A", 2)
    mins = enumerate_minuscule(W)
    ident, s0 = mins[0], mins[1]
    theta = make_orthogonal_set(rs, [AffineRoot(rs.highest_root, -1)])
    make_admissible_pair(W, ident, theta, s0)
    with pytest.raises(ValueError):
        make_admissible_pair(W, s0, theta, s0)  # theta-d is not in the gap
    s1s0 = next(m for m in mins if W.reduced_word(m.element) == (1, 0))
    with pytest.raises(ValueError):
        make_admissible_pair(W, s1s0, theta, s0)  # v not below witness


def test_pair_descents_examples(system):
    rs, W = system("A", 2)
    mins = enumerate_minuscule(W)
    ident = mins[0]
    s0 = mins[1]
    empty = make_orthogonal_set(rs, [])
    assert all(
        c.kind == "none"
        for c in pair_descents(W, make_admissible_pair(W, ident, empty, ident)).values()
    )
    theta = make_orthogonal_set(rs, [AffineRoot(rs.highest_root, -1)])
    d = pair_descents(W, make_admissible_pair(W, ident, theta, s0))
    assert (d[0].kind, d[0].locus) == ("real", "affine")
    w20 = next(m for m in mins if W.reduced_word(m.element) == (2, 0))
    alpha1 = make_orthogonal_set(rs, [AffineRoot(rs.simple_root(1), -1)])
    d = pair_descents(W, make_admissible_pair(W, ident, alpha1, w20))
    assert (d[0].kind, d[0].locus) == ("complex", "affine")
    assert d[1].kind == "none"
    assert (d[2].kind, d[2].locus) == ("complex", "finite")


def test_descent_move_affine_cases(system):
    rs, W = system("A", 2)
    mins = enumerate_minuscule(W)
    ident, s0 = mins[0], mins[1]
    theta = make_orthogonal_set(rs, [AffineRoot(rs.highest_root, -1)])
    moved = descent_move(W, make_admissible_pair(W, ident, theta, s0), 0)
    assert moved.v.element == W.simple_reflection(0)
    assert moved.s.size == 0
    w20 = next(m for m in mins if W.reduced_word(m.element) == (2, 0))
    alpha1 = make_orthogonal_set(rs, [AffineRoot(rs.simple_root(1), -1)])
    moved = descent_move(W, make_admissible_pair(W, ident, alpha1, w20), 0)
    assert moved.v.element == W.simple_reflection(0)
    assert set(moved.s.roots) == set(alpha1.roots)
    with pytest.raises(ValueError):
        descent_move(W, make_admissible_pair(W, ident, alpha1, w20), 1)


def test_descent_move_real_finite_c3(system):
    """The smallest non-simply-laced systems provide real finite descents:
    sweep C3 and check the substitution against the reflection identity."""
    rs, W = get_system("C", 3)
    mins = enumerate_minuscule(W)
    ident = next(m for m in mins if m.element == W.identity)
    hits = 0
    for w in mins:
        for s in orthogonal_subsets(rs, w.inversions):
            if s.size == 0:
                continue
            pair = make_admissible_pair(W, ident, s, w)
            for i, cls in pair_descents(W, pair).items():
                if cls.kind != "real" or cls.locus != "finite":
                    continue
                hits += 1
                moved = descent_move(W, pair, i)
                assert moved.v.element == ident.element
                assert moved.s.size == s.size - 1
                expected = W.multiply(
                    W.simple_reflection(i), pair.sigma.element
                )
                assert moved.sigma.element == expected
    assert hits > 0


def test_descent_move_drops_l_everywhere(system):
    for letter, rank in [("A", 3), ("B", 2), ("C", 3)]:
        rs, W = get_system(letter, rank)
        mins = enumerate_minuscule(W)
        for w in mins:
            for v in mins:
                if not weak_order_leq(v, w):
                    continue
                gap = sorted(
                    set(w.inversions) - set(v.inversions), key=lambda a: a.sort_key
                )
                for s in orthogonal_subsets(rs, gap):
                    pair = make_admissible_pair(W, v, s, w)
                    sigma = pair.sigma
                    big = involution_length(W, sigma)
                    for i, cls in pair_descents(W, pair).items():
                        if cls.kind == "none":
                            continue
                        moved = descent_move(W, pair, i)
                        assert (
                            involution_length(W, moved.sigma) == big - 1
                        )


def test_negated_root_report_singleton(system):
    rs, W = system("B", 2)
    mins = enumerate_minuscule(W)
    target = next(m for m in mins if m.length == 1)
    s = make_orthogonal_set(rs, list(target.inversions))
    rep = negated_root_report(W, s, target)
    assert rep.ok
    assert rep.checks == 2  # only +-beta are negated


def test_negated_root_report_exhaustive(system):
    for letter, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        rs, W = get_system(letter, rank)
        for m in enumerate_minuscule(W):
            for s in orthogonal_subsets(rs, m.inversions):
                assert negated_root_report(W, s, m).ok


def test_negated_root_report_validates_containment(system):
    rs, W = system("A", 2)
    mins = enumerate_minuscule(W)
    theta = make_orthogonal_set(rs, [AffineRoot(rs.highest_root, -1)])
    with pytest.raises(ValueError):
        negated_root_report(W, theta, mins[0])


def test_d4_counterexample_sets(system):
    rs, W = get_system("D", 4)
    s = shifted(rs, "e1+e3", "e1-e3", "e2+e4", "e2-e4")
    sp = shifted(rs, "e1+e4", "e1-e4", "e2+e3", "e2-e3")
    sig_s = reflection_product(W, s)
    sig_sp = reflection_product(W, sp)
    assert sig_s.element == sig_sp.element
    alpha = AffineRoot(rs.epsilon_to_root("e1+e2"), -2)
    assert W.act(sig_s.element, alpha) == -alpha
    report = negated_root_report(W, s)
    assert not report.ok
    assert any("-2d" in v or "2d" in v for v in report.violations)
    for m in enumerate_minuscule(W):
        assert not set(s.roots) <= set(m.inversions)
        assert not set(sp.roots) <= set(m.inversions)



def test_support_injectivity(system):
    for letter, rank in [("A", 1), ("A", 2), ("D", 4)]:
        rs, W = get_system(letter, rank)
        for m in enumerate_minuscule(W):
            assert support_injectivity_check(W, m)


def test_descent_equivalences(system):
    """Descent, one-sided length drops, twisted-conjugation drop, and the L
    drop are all equivalent; real means commuting."""
    rs, W = get_system("B", 2)
    mins = enumerate_minuscule(W)
    pool = {}
    for w in mins:
        for v in mins:
            if not weak_order_leq(v, w):
                continue
            gap = sorted(set(w.inversions) - set(v.inversions), key=lambda a: a.sort_key)
            for s in orthogonal_subsets(rs, gap):
                pair = make_admissible_pair(W, v, s, w)
                sigma = pair.sigma
                pool[sigma.element] = sigma
    for el, sigma in pool.items():
        ell = W.length(el)
        big = involution_length(W, sigma)
        for i in W.simple_indices:
            s_i = W.simple_reflection(i)
            is_descent = descent_classify(W, sigma, i) != "none"
            conj = twisted_conjugate(W, i, sigma)
            assert is_descent == (W.length(W.multiply(s_i, el)) < ell)
            assert is_descent == (W.length(W.multiply(el, s_i)) < ell)
            assert is_descent == (
                W.bruhat_leq(conj.element, el) and conj.element != el
            )
            assert is_descent == (involution_length(W, conj) == big - 1)
            if is_descent:
                commutes = W.multiply(s_i, el) == W.multiply(el, s_i)
                assert (descent_classify(W, sigma, i) == "real") == commutes


def test_support_reflection_prop(system):
    """A finite simple descent of the support involution reflects the support
    inside the inversion set, fixing it exactly in the real case."""
    for letter, rank in [("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        rs, W = get_system(letter, rank)
        for m in enumerate_minuscule(W):
            for s in orthogonal_subsets(rs, m.inversions):
                if s.size == 0:
                    continue
                sigma = reflection_product(W, s)
                for i in range(1, rs.rank + 1):
                    kind = descent_classify(W, sigma, i)
                    if kind == "none":
                        continue
                    beta = rs.simple_root(i)
                    moved = {
                        AffineRoot(rs.reflect(beta, a.finite), a.level)
                        for a in s.roots
                    }
                    assert moved <= set(m.inversions)
                    assert (moved == set(s.roots)) == (kind == "real")
