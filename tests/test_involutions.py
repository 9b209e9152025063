"""Involutions of orthogonal sets, descents, and the lowering moves."""

import random

import pytest

from borbits.affine import negate
from borbits.involutions import (
    descent_classify,
    descent_move,
    involution_length,
    make_admissible_pair,
    make_orthogonal_set,
    orthogonal_subsets,
    pair_descents,
    rank_id_minus,
    reflection_product,
    twisted_conjugate,
)
from borbits.minuscule import enumerate_minuscule, weak_order_leq
from borbits.suites import _admissible_sweep, negated_root_report, support_injectivity_check

from conftest import get_system
from oracles import rank_id_minus_oracle


def shifted(rs, *texts):
    return make_orthogonal_set(rs, [(rs.epsilon_to_root(t), -1) for t in texts])


def minuscule_by_word(W, word):
    from borbits.minuscule import minuscule_from_element

    return minuscule_from_element(W, W.evaluate_word(word))


def test_orthogonal_set_rejects_non_orthogonal(system):
    rs, _ = system("A", 2)
    with pytest.raises(ValueError) as info:
        make_orthogonal_set(
            rs,
            [(rs.highest_root, -1), (rs.simple_root(1), -1)],
        )
    assert str(info.value) == "1,0-1d and 1,1-1d are not orthogonal"


@pytest.mark.parametrize("bad,text", [(((5, 5), -1), "5,5-1d"), (((0, 0), 1), "0,0+1d")])
def test_orthogonal_set_rejects_a_non_root(system, bad, text):
    """The finite part of every root is checked, also when no pair is."""
    rs, _ = system("A", 2)
    good = (rs.highest_root, -1)
    for roots in ([bad], [bad, good], [good, bad]):
        with pytest.raises(ValueError) as info:
            make_orthogonal_set(rs, roots)
        assert str(info.value) == f"{text} is not a real affine root"


def test_reflection_product_examples(system):
    rs, W = system("A", 2)
    assert reflection_product(W, make_orthogonal_set(rs, [])) == W.identity
    s = make_orthogonal_set(rs, [(rs.highest_root, -1)])
    assert reflection_product(W, s) == W.simple_reflection(0)


def test_reflection_product_order_independent(system):
    rs, W = system("D", 4)
    rng = random.Random(5)
    for m in enumerate_minuscule(W):
        for s in orthogonal_subsets(rs, W.shifted_roots(m.mask)):
            base = reflection_product(W, s)
            order = list(s)
            for _ in range(3):
                rng.shuffle(order)
                el = W.identity
                for a in order:
                    el = W.multiply(el, W.reflection(a))
                assert el == base


def test_involution_length_examples(system):
    rs, W = system("A", 2)
    assert involution_length(W, W.identity) == 0
    assert involution_length(W, W.simple_reflection(0)) == 1
    s = make_orthogonal_set(rs, [(rs.simple_root(1), -1)])
    assert involution_length(W, reflection_product(W, s)) == 2


def test_rank_equals_support_size(system):
    for letter, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        rs, W = get_system(letter, rank)
        for m in enumerate_minuscule(W):
            for s in orthogonal_subsets(rs, W.shifted_roots(m.mask)):
                sigma = reflection_product(W, s)
                assert rank_id_minus(W, sigma) == len(s)
                assert 2 * involution_length(W, sigma) == W.length(sigma) + len(s)


@pytest.mark.parametrize(
    "letter,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6)]
)
def test_rank_trace_agrees_with_elimination(letter, rank):
    """rank_id_minus reads (r - tr w) / 2 off the root tables; the oracle
    eliminates the rows of id - sigma.  They agree on every pair's sigma and
    every twisted conjugate of one."""
    _, W = get_system(letter, rank)
    sigmas = {pair.sigma: None for pair in _admissible_sweep(W)}
    conjugates = {twisted_conjugate(W, i, sigma): None for sigma in sigmas for i in W.simple_indices}
    assert len(conjugates) > len(sigmas) > 1
    swept = {**sigmas, **conjugates}
    assert [x for x in swept if rank_id_minus(W, x) != rank_id_minus_oracle(W, x)] == []


def test_rank_refuses_an_odd_trace(system):
    """s1 s2 of A2 is no involution: tr w = -1, so r - tr w = 3 is odd."""
    _, W = system("A", 2)
    x = W.evaluate_word((1, 2))
    assert W.multiply(x, x) != W.identity
    with pytest.raises(AssertionError, match="odd"):
        rank_id_minus(W, x)


def test_twisted_conjugate_examples(system):
    rs, W = system("A", 2)
    assert twisted_conjugate(W, 0, W.identity) == W.simple_reflection(0)
    assert twisted_conjugate(W, 1, W.simple_reflection(1)) == W.identity
    conj = twisted_conjugate(W, 1, W.simple_reflection(0))
    assert conj == W.evaluate_word((1, 0, 1))
    assert twisted_conjugate(W, 1, conj) == W.simple_reflection(0)


def test_descent_classify_examples(system):
    rs, W = system("A", 2)
    for i in W.simple_indices:
        assert descent_classify(W, W.identity, i) == "none"
    assert descent_classify(W, W.simple_reflection(0), 0) == "real"
    conj = twisted_conjugate(W, 1, W.simple_reflection(0))
    assert descent_classify(W, conj, 1) == "complex"


def test_admissible_pair_validation(system):
    rs, W = system("A", 2)
    mins = enumerate_minuscule(W)
    ident, s0 = mins[0], mins[1]
    theta = make_orthogonal_set(rs, [(rs.highest_root, -1)])
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
        c == ("none", None)
        for c in pair_descents(W, make_admissible_pair(W, ident, empty, ident)).values()
    )
    theta = make_orthogonal_set(rs, [(rs.highest_root, -1)])
    d = pair_descents(W, make_admissible_pair(W, ident, theta, s0))
    assert d[0] == ("real", "affine")
    w20 = next(m for m in mins if W.reduced_word(m.element) == (2, 0))
    alpha1 = make_orthogonal_set(rs, [(rs.simple_root(1), -1)])
    d = pair_descents(W, make_admissible_pair(W, ident, alpha1, w20))
    assert d[0] == ("complex", "affine")
    assert d[1] == ("none", None)
    assert d[2] == ("complex", "finite")


def test_descent_move_affine_cases(system):
    rs, W = system("A", 2)
    mins = enumerate_minuscule(W)
    ident, s0 = mins[0], mins[1]
    theta = make_orthogonal_set(rs, [(rs.highest_root, -1)])
    moved = descent_move(W, make_admissible_pair(W, ident, theta, s0), 0)
    assert moved.v.element == W.simple_reflection(0)
    assert len(moved.s) == 0
    w20 = next(m for m in mins if W.reduced_word(m.element) == (2, 0))
    alpha1 = make_orthogonal_set(rs, [(rs.simple_root(1), -1)])
    moved = descent_move(W, make_admissible_pair(W, ident, alpha1, w20), 0)
    assert moved.v.element == W.simple_reflection(0)
    assert set(moved.s) == set(alpha1)
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
        for s in orthogonal_subsets(rs, W.shifted_roots(w.mask)):
            if len(s) == 0:
                continue
            pair = make_admissible_pair(W, ident, s, w)
            for i, cls in pair_descents(W, pair).items():
                if cls != ("real", "finite"):
                    continue
                hits += 1
                moved = descent_move(W, pair, i)
                assert moved.v.element == ident.element
                assert len(moved.s) == len(s) - 1
                assert moved.sigma == W.multiply(W.simple_reflection(i), pair.sigma)
    assert hits > 0


def test_descent_move_drops_l_everywhere(system):
    for letter, rank in [("A", 3), ("B", 2), ("C", 3)]:
        rs, W = get_system(letter, rank)
        mins = enumerate_minuscule(W)
        for w in mins:
            for v in mins:
                if not weak_order_leq(v, w):
                    continue
                gap = W.shifted_roots(w.mask & ~v.mask)
                for s in orthogonal_subsets(rs, gap):
                    pair = make_admissible_pair(W, v, s, w)
                    sigma = pair.sigma
                    big = involution_length(W, sigma)
                    for i, (kind, _) in pair_descents(W, pair).items():
                        if kind == "none":
                            continue
                        moved = descent_move(W, pair, i)
                        assert (
                            involution_length(W, moved.sigma) == big - 1
                        )


def test_negated_root_report_singleton(system):
    rs, W = system("B", 2)
    mins = enumerate_minuscule(W)
    target = next(m for m in mins if m.length == 1)
    s = make_orthogonal_set(rs, list(W.shifted_roots(target.mask)))
    rep = negated_root_report(W, s, target)
    assert rep.ok
    assert rep.checks == 2  # only +-beta are negated


def test_negated_root_report_exhaustive(system):
    for letter, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        rs, W = get_system(letter, rank)
        for m in enumerate_minuscule(W):
            for s in orthogonal_subsets(rs, W.shifted_roots(m.mask)):
                assert negated_root_report(W, s, m).ok


def test_negated_root_report_validates_containment(system):
    rs, W = system("A", 2)
    mins = enumerate_minuscule(W)
    theta = make_orthogonal_set(rs, [(rs.highest_root, -1)])
    with pytest.raises(ValueError):
        negated_root_report(W, theta, mins[0])


def test_d4_counterexample_sets(system):
    rs, W = get_system("D", 4)
    s = shifted(rs, "e1+e3", "e1-e3", "e2+e4", "e2-e4")
    sp = shifted(rs, "e1+e4", "e1-e4", "e2+e3", "e2-e3")
    sig_s = reflection_product(W, s)
    sig_sp = reflection_product(W, sp)
    assert sig_s == sig_sp
    alpha = (rs.epsilon_to_root("e1+e2"), -2)
    assert W.act(sig_s, alpha) == negate(alpha)
    report = negated_root_report(W, s)
    assert (report.checks, len(report.violations)) == (24, 16)
    assert report.violations[0] == "-1,-2,-1,-1+2d is negated but is not a half sum of support roots"
    for m in enumerate_minuscule(W):
        assert not set(s) <= set(W.shifted_roots(m.mask))
        assert not set(sp) <= set(W.shifted_roots(m.mask))



def test_support_injectivity(system):
    for letter, rank in [("A", 1), ("A", 2), ("D", 4)]:
        rs, W = get_system(letter, rank)
        assert support_injectivity_check(W) == [True] * len(enumerate_minuscule(W))


def test_descent_equivalences(system):
    """Descent, one-sided length drops, twisted-conjugation drop, and the L
    drop are all equivalent; real means commuting."""
    rs, W = get_system("B", 2)
    mins = enumerate_minuscule(W)
    pool = set()
    for w in mins:
        for v in mins:
            if not weak_order_leq(v, w):
                continue
            gap = W.shifted_roots(w.mask & ~v.mask)
            for s in orthogonal_subsets(rs, gap):
                pool.add(make_admissible_pair(W, v, s, w).sigma)
    for el in pool:
        ell = W.length(el)
        big = involution_length(W, el)
        for i in W.simple_indices:
            s_i = W.simple_reflection(i)
            is_descent = descent_classify(W, el, i) != "none"
            conj = twisted_conjugate(W, i, el)
            assert is_descent == (W.length(W.multiply(s_i, el)) < ell)
            assert is_descent == (W.length(W.multiply(el, s_i)) < ell)
            assert is_descent == (W.bruhat_leq(conj, el) and conj != el)
            assert is_descent == (involution_length(W, conj) == big - 1)
            if is_descent:
                commutes = W.multiply(s_i, el) == W.multiply(el, s_i)
                assert (descent_classify(W, el, i) == "real") == commutes


def test_support_reflection_prop(system):
    """A finite simple descent of the support involution reflects the support
    inside the inversion set, fixing it exactly in the real case."""
    for letter, rank in [("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        rs, W = get_system(letter, rank)
        for m in enumerate_minuscule(W):
            for s in orthogonal_subsets(rs, W.shifted_roots(m.mask)):
                if len(s) == 0:
                    continue
                sigma = reflection_product(W, s)
                for i in range(1, rs.rank + 1):
                    kind = descent_classify(W, sigma, i)
                    if kind == "none":
                        continue
                    beta = rs.simple_root(i)
                    moved = {(rs.reflect(beta, g), level) for g, level in s}
                    assert moved <= set(W.shifted_roots(m.mask))
                    assert (moved == set(s)) == (kind == "real")
