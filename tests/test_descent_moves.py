"""Descent moves take the pair's classification and their new v from data
already computed: one classification pass per move, and an affine move looks
its new v up in the group's map from minuscule elements to ideal ids.

The re-deriving move (classify every index, rebuild v with the brute-force
window scan) is kept here as the oracle that the sweep compares against.
"""

import json
from operator import add, sub
import re
import sys

import pytest

from borbits.affine import AffineWeylGroup, affine_text, is_positive, negate
from borbits.cli import main
from borbits.involutions import (
    AdmissiblePair,
    descent_classify,
    descent_move,
    make_admissible_pair,
    make_orthogonal_set,
    orthogonal_subsets,
    pair_descents,
    rank_id_minus,
    reflection_product,
    transform_set,
    twisted_conjugate,
)
from borbits.minuscule import (
    enumerate_abelian_ideals,
    minuscule_from_element,
    weak_order_leq,
)
from borbits.roots import build_root_system, root_text
from borbits.suites import Report, _admissible_sweep, negated_root_report, run_suite, verify_branch_recursion

from conftest import get_system


def _fresh_group(letter, rank):
    # private groups, so that sabotage cannot reach the shared ones
    return AffineWeylGroup(build_root_system(letter, rank))


def _rebind(monkeypatch, original, replacement):
    """Replace a function in every borbits module that holds it by name."""
    for name, module in list(sys.modules.items()):
        if name == "borbits" or name.startswith("borbits."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


# -- the re-deriving move, kept as the oracle ---------------------------------


def _sigma_from_scratch(group, pair):
    """The involution of the pair, rebuilt without the stored field."""
    moved = make_orthogonal_set(group.rs, [group.act(pair.v.element, a) for a in pair.s])
    return reflection_product(group, moved)


def _oracle_pair_descents(group, pair):
    rs = group.rs
    sigma = _sigma_from_scratch(group, pair)
    sigma_s = reflection_product(group, pair.s)
    vinv = group.inverse(pair.v.element)
    witness_neg = set(map(negate, group.shifted_roots(pair.witness.mask)))
    out = {}
    for i in group.simple_indices:
        kind = descent_classify(group, sigma, i)
        beta = group.act(vinv, group.simple_affine_root(i))
        gamma, level = beta
        if beta in witness_neg:
            not_orth = any(rs.pairing(gamma, g) != 0 for g, _ in pair.s)
            assert (kind != "none") == not_orth
            assert (kind == "real") == (negate(beta) in set(pair.s))
        if kind == "none":
            out[i] = ("none", None)
            continue
        assert is_positive(beta)
        if level == 0 and sum(gamma) == 1:
            j = next(k for k in range(1, group.rank + 1) if rs.simple_root(k) == gamma)
            assert descent_classify(group, sigma_s, j) != "none"
            assert (group.act(sigma_s, beta) == negate(beta)) == (kind == "real")
            out[i] = (kind, "finite")
        else:
            assert beta in witness_neg
            out[i] = (kind, "affine")
    return out


def _oracle_descent_move(group, pair, i):
    kind, locus = _oracle_pair_descents(group, pair)[i]
    assert kind != "none"
    rs = group.rs
    beta = group.act(group.inverse(pair.v.element), group.simple_affine_root(i))
    gamma, _ = beta
    if locus == "affine":
        new_v = minuscule_from_element(
            group, group.multiply(group.simple_reflection(i), pair.v.element)
        )
        new_s = pair.s
        if kind == "real":
            new_s = make_orthogonal_set(rs, set(pair.s) - {negate(beta)})
        result = make_admissible_pair(group, new_v, new_s, pair.witness)
    else:
        if kind == "complex":
            new_s = make_orthogonal_set(rs, [(rs.reflect(gamma, g), n) for g, n in pair.s])
        else:
            (g1, g2, n), *_ = [
                (g1, g2, n1)
                for g1, n1 in pair.s
                for g2, n2 in pair.s
                if g1 != g2 and n1 == n2 and tuple(map(sub, g1, g2)) == tuple(2 * c for c in gamma)
            ]
            merged = (tuple(map(add, gamma, g2)), n)
            new_s = make_orthogonal_set(rs, set(pair.s) - {(g1, n), (g2, n)} | {merged})
        result = make_admissible_pair(group, pair.v, new_s, pair.witness)
    expected = twisted_conjugate(group, i, _sigma_from_scratch(group, pair))
    assert _sigma_from_scratch(group, result) == expected
    return result


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_moves_agree_with_the_rederiving_oracle(letter, rank):
    rs, W = get_system(letter, rank)
    mins = W.minuscule
    moves = 0
    kinds = set()
    for w in mins:
        for v in mins:
            if not weak_order_leq(v, w):
                continue
            for s in orthogonal_subsets(rs, W.shifted_roots(w.mask & ~v.mask)):
                pair = make_admissible_pair(W, v, s, w)
                desc = pair_descents(W, pair)
                assert desc == _oracle_pair_descents(W, pair)
                for i, cls in desc.items():
                    if cls[0] == "none":
                        continue
                    moved = descent_move(W, pair, i)
                    assert moved == _oracle_descent_move(W, pair, i)
                    moves += 1
                    kinds.add(cls)
    assert moves > 0
    assert {("complex", "affine"), ("real", "affine"), ("complex", "finite")} <= kinds


def test_involutions_suite_rebuilds_no_minuscule_element(monkeypatch):
    """On a fresh group, `minuscule_from_element` runs only inside the
    enumeration of the minuscule elements, once per element."""
    calls = 0

    def counted(group, x):
        nonlocal calls
        calls += 1
        return minuscule_from_element(group, x)

    _rebind(monkeypatch, minuscule_from_element, counted)
    group = _fresh_group("A", 3)
    assert all(r.ok for r in run_suite(group, "involutions"))
    assert calls == len(group.minuscule) == 8


def _a3_real_affine_pair(group):
    """v = e, S = {theta - delta}, witness s_0: index 0 is a real affine
    descent, whose move has new v = s_0."""
    rs = group.rs
    mins = group.minuscule
    theta = make_orthogonal_set(rs, [(rs.highest_root, -1)])
    pair = make_admissible_pair(group, mins[0], theta, mins[1])
    assert pair_descents(group, pair)[0] == ("real", "affine")
    return pair


def test_swapped_map_entries_are_caught():
    group = _fresh_group("A", 3)
    pair = _a3_real_affine_pair(group)
    assert descent_move(group, pair, 0).v == group.minuscule[1]
    ids = group.minuscule_ids
    a, b = group.minuscule[1].element, group.minuscule[-1].element
    ids[a], ids[b] = ids[b], ids[a]
    with pytest.raises(ValueError, match="invalid pair: v is not below the witness"):
        descent_move(group, pair, 0)


def test_missing_map_entry_is_caught():
    group = _fresh_group("A", 3)
    pair = _a3_real_affine_pair(group)
    del group.minuscule_ids[group.minuscule[1].element]
    with pytest.raises(ValueError, match="element is not minuscule"):
        descent_move(group, pair, 0)


# -- the pair carries its involution ------------------------------------------


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_stored_sigma_agrees_with_the_product(letter, rank):
    """The stored involution is the from-scratch product, with rank of
    id - sigma equal to |S|, and every descent move stores the twisted
    conjugate."""
    _, W = get_system(letter, rank)
    pairs = moves = 0
    for pair in _admissible_sweep(W):
        pairs += 1
        scratch = _sigma_from_scratch(W, pair)
        assert pair.sigma == scratch
        assert rank_id_minus(W, pair.sigma) == len(pair.s)
        for i, (kind, _) in pair_descents(W, pair).items():
            if kind != "none":
                moves += 1
                moved = descent_move(W, pair, i)
                assert moved.sigma == twisted_conjugate(W, i, pair.sigma)
    assert pairs > 0 and moves > 0


def test_suites_build_sigma_once_per_pair(monkeypatch):
    """On a fresh group, the involutions and poset suites move a support by v
    exactly once per admissible pair they build."""
    made = moved = 0

    def counted_pair(group, v, s, witness):
        nonlocal made
        made += 1
        return make_admissible_pair(group, v, s, witness)

    def counted_transform(group, x, s):
        nonlocal moved
        moved += 1
        return transform_set(group, x, s)

    _rebind(monkeypatch, make_admissible_pair, counted_pair)
    _rebind(monkeypatch, transform_set, counted_transform)
    group = _fresh_group("B", 3)
    for name in ("involutions", "poset"):
        assert all(r.ok for r in run_suite(group, name))
    assert made > 0
    assert moved == made


def test_a_foreign_sigma_is_caught():
    group = _fresh_group("A", 3)
    pair = _a3_real_affine_pair(group)
    rs = group.rs
    other_s = make_orthogonal_set(
        rs, [(rs.simple_root(2), -1), (rs.highest_root, -1)]
    )
    witness = next(m for m in group.minuscule if set(other_s) <= set(group.shifted_roots(m.mask)))
    other = make_admissible_pair(group, pair.v, other_s, witness)
    assert descent_move(group, pair, 0).sigma == twisted_conjugate(group, 0, pair.sigma)
    sabotaged = AdmissiblePair(pair.v, pair.s, pair.witness, other.sigma)
    assert sabotaged == pair
    with pytest.raises(AssertionError, match="descent move does not match twisted conjugation"):
        descent_move(group, sabotaged, 0)


def test_every_foreign_sigma_is_refused():
    """On A3, no descent move goes through once a pair holds another pair's
    involution: a check raises, or the index stops being a descent."""
    group = _fresh_group("A", 3)
    pairs = list(_admissible_sweep(group))
    refused = 0
    for pair in pairs:
        for i, (kind, _) in pair_descents(group, pair).items():
            if kind == "none":
                continue
            for other in pairs:
                if other.sigma == pair.sigma:
                    continue
                with pytest.raises((AssertionError, ValueError)):
                    descent_move(group, AdmissiblePair(pair.v, pair.s, pair.witness, other.sigma), i)
                refused += 1
    assert refused > 0


def test_minuscule_ids_index_the_canonical_order(system):
    for letter, rank in [("A", 3), ("G", 2), ("D", 4)]:
        _, W = system(letter, rank)
        assert [W.minuscule_ids[m.element] for m in W.minuscule] == list(range(len(W.minuscule)))


# -- simple_index -------------------------------------------------------------


@pytest.mark.parametrize("letter,rank", [("A", 1), ("A", 3), ("B", 3), ("C", 2), ("D", 4), ("G", 2), ("F", 4)])
def test_simple_index_round_trip(letter, rank):
    rs, W = get_system(letter, rank)
    for i in W.simple_indices:
        assert W.simple_index(W.simple_affine_root(i)) == i
    not_simple = [
        (rs.highest_root, -1),         # -a_0
        (rs.simple_root(1), 1),        # a_1 at the wrong level
        negate((rs.simple_root(1), 0)),          # -a_1
        negate((rs.highest_root, -2)),           # a_0 at the wrong level
    ]
    if rank > 1:
        not_simple.append((rs.highest_root, 0))
    for a in not_simple:
        with pytest.raises(ValueError, match="is not a simple affine root"):
            W.simple_index(a)


def test_simple_index_error_prints_the_root():
    _, W = get_system("A", 2)
    with pytest.raises(ValueError) as info:
        W.simple_index(((1, 1), 0))
    assert str(info.value) == "1,1 is not a simple affine root"


# -- checks that pay only on failure -----------------------------------------


def test_branch_recursion_builds_no_words_when_clean(monkeypatch):
    group = _fresh_group("B", 2)

    def no_words(x):
        raise AssertionError("reduced word built on a passing check")

    monkeypatch.setattr(group, "reduced_word", no_words)
    for w in group.minuscule:
        assert verify_branch_recursion(group, w).ok


def test_branch_recursion_violation_text(monkeypatch):
    group = _fresh_group("B", 2)
    w = max(group.minuscule, key=lambda m: m.length)
    import borbits.suites as suites_mod

    monkeypatch.setattr(suites_mod, "twisted_conjugate", lambda g, i, sigma: sigma)
    rep = verify_branch_recursion(group, w)
    assert rep.violations
    w_word = " ".join(str(i) for i in group.reduced_word(w.element))
    pattern = re.compile(
        rf"w={w_word} v=[0-9 ]* i=\d S=\{{[^}}]*\}}: "
        r"(twisted conjugate mismatch|enlarged set is not the twisted conjugate)"
    )
    assert all(pattern.fullmatch(v) for v in rep.violations)


def test_ideals_command_does_not_rerun_the_ideal_walk(monkeypatch, capsys):
    def refused(rs):
        raise AssertionError("the ideals command re-ran enumerate_abelian_ideals")

    expected = [[root_text(r) for r in I] for I in enumerate_abelian_ideals(build_root_system("D", 4))]
    _rebind(monkeypatch, enumerate_abelian_ideals, refused)
    assert main(["ideals", "--type", "D", "--rank", "4", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["roots"] for r in rows] == expected


# -- the negated-root report keeps its verdicts --------------------------------


def _window_scan(group, x, s):
    """The roots negated by x, found by acting on every root in the level
    window |level| <= 1 + sum of |levels of S| (enough for the involution of S)."""
    window = 1 + sum(abs(n) for _, n in s)
    return [
        (gamma, n)
        for gamma in group.rs.roots
        for n in range(-window, window + 1)
        if group.act(x, (gamma, n)) == negate((gamma, n))
    ]


def _oracle_negated_root_report(group, s):
    sigma = reflection_product(group, s)

    def sums(sb, sbp):
        return {
            (
                tuple(sb * x + sbp * y for x, y in zip(b, bp)),
                sb * n + sbp * n_p,
            )
            for b, n in s
            for bp, n_p in s
        }

    halves = sums(1, 1) | sums(1, -1) | sums(-1, 1) | sums(-1, -1)
    checks, violations = 0, []
    for a in _window_scan(group, sigma, s):
        gamma, n = a
        checks += 1
        key = (tuple(2 * c for c in gamma), 2 * n)
        if key not in halves:
            violations.append(f"{affine_text(a)} is negated but is not a half sum of support roots")
            continue
        if n == -1 and max(gamma) > 0 and key not in sums(1, 1):
            violations.append(f"{affine_text(a)} is negated but not a plus-plus half sum")
        if n == 0 and key not in sums(1, -1):
            violations.append(f"{affine_text(a)} is negated but not a plus-minus half sum")
    return Report("negated-roots-halfsum", checks, tuple(violations))


@pytest.mark.parametrize("letter,rank", [("B", 2), ("G", 2), ("A", 3)])
def test_negated_root_report_matches_the_oracle(letter, rank):
    """Supports at mixed levels, most of them inside no inversion set, so the
    violation paths run as well as the passing one."""
    rs, W = get_system(letter, rank)
    pool = [(g, n) for g in rs.positive_roots for n in (-1, 0)]
    pool += [negate((g, 1)) for g in rs.positive_roots]
    violations = 0
    for s in orthogonal_subsets(rs, pool):
        x = reflection_product(W, s)
        assert W.negated_roots(x) == _window_scan(W, x, s)
        rep = negated_root_report(W, s)
        assert rep == _oracle_negated_root_report(W, s)
        violations += len(rep.violations)
    assert violations > 0


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_negated_roots_match_the_window_scan(letter, rank):
    rs, W = get_system(letter, rank)
    supports = {s for m in W.minuscule for s in orthogonal_subsets(rs, W.shifted_roots(m.mask))}
    found = 0
    for s in supports:
        x = reflection_product(W, s)
        negated = W.negated_roots(x)
        assert negated == _window_scan(W, x, s)
        found += len(negated)
    assert found > 0


@pytest.mark.parametrize("letter,rank", [("A", 1), ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_negated_roots_of_the_identity_and_simple_reflections(letter, rank):
    _, W = get_system(letter, rank)
    assert W.negated_roots(W.identity) == []
    for i in W.simple_indices:
        a = W.simple_affine_root(i)
        found = W.negated_roots(W.simple_reflection(i))
        assert len(found) == 2 and set(found) == {a, negate(a)}
