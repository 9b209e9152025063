"""Verification suites over a fixed root system.

Each suite bundles the exhaustive consistency sweeps for one layer of the
artifact and returns a list of reports; the command line front end prints
one summary line per suite.  Everything here is also exercised by the
pytest suite, which additionally pins concrete frozen examples.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations
from operator import add, and_, sub
import random

from . import SUITE_NAMES
from .affine import AffineWeylGroup, affine_text
from .involutions import (
    Report,
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
    set_text,
    support_injectivity_check,
    twisted_conjugate,
)
from .minuscule import (
    enumerate_abelian_ideals,
    ideal_to_element,
    is_minuscule,
    normalizer_by_ideal_stability,
    normalizer_simple_roots,
    weak_order_leq,
)
from .orbits import (
    _transitive_closure,
    build_orbit_poset,
    verify_branch_recursion,
    verify_moves_vs_order,
    verify_phi_equivalence,
    verify_strong_form,
)
from .roots import root_text

__all__ = ["SUITE_NAMES", "run_suite"]


def run_suite(group: AffineWeylGroup, name: str) -> list[Report]:
    if name == "minuscule":
        return suite_minuscule(group)
    if name == "involutions":
        return suite_involutions(group)
    if name == "poset":
        return suite_poset(group)
    if name == "strong-form":
        return [verify_strong_form(group)]
    if name == "phi":
        return suite_phi(group)
    raise ValueError(f"unknown suite {name!r}")


def _admissible_sweep(group: AffineWeylGroup):
    """All admissible pairs: v below the witness and S orthogonal inside the
    inversion gap.  A generator, so that no sweep holds every pair at once."""
    mins = group.minuscule
    for w in mins:
        for v in mins:
            if weak_order_leq(v, w):
                for s in orthogonal_subsets(group.rs, group.shifted_roots(w.mask & ~v.mask)):
                    yield make_admissible_pair(group, v, s, w)


def suite_minuscule(group: AffineWeylGroup) -> list[Report]:
    rs = group.rs
    reports = []
    mins = group.minuscule
    ideals = enumerate_abelian_ideals(rs)

    checks, bad = 0, []
    if len(mins) != len(ideals):
        bad.append(f"{len(mins)} elements vs {len(ideals)} ideals")
    for k, (ideal, m) in enumerate(zip(ideals, mins)):
        checks += 1
        if m.mask != group.shifted_mask((r, -1) for r in ideal):
            bad.append(f"enumeration order mismatch at {k}")
        if ideal_to_element(group, ideal).element != m.element:
            bad.append(f"round trip failed at {k}")
    reports.append(Report("ideal-element-bijection", checks, tuple(bad)))

    checks, bad = 0, []
    for k1, m1 in enumerate(mins):
        for k2, m2 in enumerate(mins):
            checks += 1
            if weak_order_leq(m1, m2) != group.bruhat_leq(m1.element, m2.element):
                bad.append(f"weak/Bruhat mismatch at ideals {k1} and {k2}")
    reports.append(Report("weak-order-is-bruhat", checks, tuple(bad)))

    checks, bad = 0, []
    seen = set()
    for m in mins:
        for i in group.simple_indices:
            for x in (m.element, group.multiply(group.simple_reflection(i), m.element)):
                if x in seen:
                    continue
                seen.add(x)
                checks += 1
                if is_minuscule(group, x) != group.alcove_image_check(x):
                    bad.append("inversion and alcove criteria disagree")
    reports.append(Report("minuscule-criteria-agree", checks, tuple(bad)))

    checks, bad = 0, []
    for m in mins:
        inv = group.shifted_roots(m.mask)
        for beta in inv:
            gamma, _ = beta
            if any(rs.dominance_leq(g, gamma) for g, n in inv if (g, n) != beta):
                continue
            checks += 1
            alpha = group.act(m.element, beta)
            if not group.is_simple_affine(alpha):
                bad.append(f"minimal inversion {affine_text(beta)} maps to non-simple {affine_text(alpha)}")
                continue
            shorter = group.multiply(group.simple_reflection(group.simple_index(alpha)), m.element)
            if group.length(shorter) != m.length - 1:
                bad.append(f"stripping {affine_text(beta)} did not drop the length")
    reports.append(Report("minimal-inversions-strip", checks, tuple(bad)))

    checks, bad = 0, []
    for m in mins:
        for a in group.shifted_roots(m.mask):
            gamma, _ = a
            for j, g in enumerate(rs.positive_roots):
                if rs.dominance_leq(gamma, g):
                    checks += 1
                    if not m.mask >> j & 1:
                        bad.append(f"{affine_text((g, -1))} above {affine_text(a)} escapes the inversion set")
    reports.append(Report("inversion-upward-closure", checks, tuple(bad)))

    checks, bad = 0, []
    for m in mins:
        for a, b in combinations(group.shifted_roots(m.mask), 2):
            (g, _), (h, _) = a, b
            if rs.pairing(g, h) != 0:
                continue
            checks += 1
            if rs.is_root(tuple(map(add, g, h))) or rs.is_root(tuple(map(sub, g, h))):
                bad.append(f"{affine_text(a)}, {affine_text(b)} orthogonal but not strongly orthogonal")
    reports.append(Report("orthogonal-is-strongly-orthogonal", checks, tuple(bad)))

    checks, bad = 0, []
    for m in mins:
        for s in orthogonal_subsets(rs, group.shifted_roots(m.mask)):
            if len(s) < 2:
                continue
            for gamma in rs.positive_roots:
                checks += 1
                extendable = [g for g, _ in s if rs.is_root(tuple(map(add, g, gamma)))]
                if len(extendable) > 1:
                    bad.append(f"{root_text(gamma)} extends two roots of {set_text(s)}")
    reports.append(Report("one-root-extension", checks, tuple(bad)))

    checks, bad = 0, []
    for k, (ideal, m) in enumerate(zip(ideals, mins)):
        checks += 1
        a = set(normalizer_simple_roots(group, m))
        b = set(normalizer_by_ideal_stability(rs, ideal))
        if a != b:
            bad.append(f"normalizer criteria disagree on ideal {k}")
    reports.append(Report("normalizer-criteria", checks, tuple(bad)))
    return reports


def suite_involutions(group: AffineWeylGroup) -> list[Report]:
    rs = group.rs
    reports = []
    mins = group.minuscule
    rng = random.Random(2024)

    # one walk of each inversion set's orthogonal subsets runs four sweeps,
    # whose reports keep their places below
    order_checks, order_bad = 0, []
    rank_checks, rank_bad = 0, []
    half_checks, half_bad = 0, []
    reflect_checks, reflect_bad = 0, []
    for m in mins:
        for s in orthogonal_subsets(rs, group.shifted_roots(m.mask)):
            sigma = reflection_product(group, s)
            order = list(s)
            for _ in range(2):
                rng.shuffle(order)
                el = group.identity
                for a in order:
                    el = group.multiply(el, group.reflection(a))
                order_checks += 1
                if el != sigma:
                    order_bad.append(f"order dependence for {set_text(s)}")
            rank_checks += 1
            if rank_id_minus(group, sigma) != len(s):
                rank_bad.append(f"rank of id - sigma is not |S| for {set_text(s)}")
            if involution_length(group, sigma) * 2 != group.length(sigma) + len(s):
                rank_bad.append(f"L formula fails for {set_text(s)}")
            rep = negated_root_report(group, s, m)
            half_checks += rep.checks
            half_bad.extend(rep.violations)
            if not s:
                continue
            support = group.shifted_mask(s)
            for i in range(1, rs.rank + 1):
                kind = descent_classify(group, sigma, i)
                if kind == "none":
                    continue
                reflect_checks += 1
                beta = rs.simple_root(i)
                moved = group.shifted_mask((rs.reflect(beta, g), level) for g, level in s)
                if moved is None or moved & ~m.mask:
                    reflect_bad.append(f"reflected support escapes the ideal for {set_text(s)} at {i}")
                if (moved == support) != (kind == "real"):
                    reflect_bad.append(f"fixed-support iff real fails for {set_text(s)} at {i}")
    reports.append(Report("product-order-independence", order_checks, tuple(order_bad)))
    reports.append(Report("rank-and-length", rank_checks, tuple(rank_bad)))

    # the one sweep of the admissible pairs collects their distinct
    # involutions, in order of appearance, and runs the pair-descent-moves
    # checks, whose report keeps its place further down
    sigma_pool: dict = {}
    moves, moves_bad = 0, []
    for pair in _admissible_sweep(group):
        sigma_pool[pair.sigma] = pair.sigma
        try:
            desc = pair_descents(group, pair)
        except AssertionError as exc:
            moves_bad.append(f"descent classification failed: {exc}")
            continue
        big_l = involution_length(group, pair.sigma)
        for i, (kind, _) in desc.items():
            moves += 1
            if kind == "none":
                continue
            if involution_length(group, descent_move(group, pair, i).sigma) != big_l - 1:
                moves_bad.append(f"descent move did not drop L at index {i}")

    checks, bad = 0, []
    for el in sigma_pool:
        big_l = involution_length(group, el)
        ell = group.length(el)
        for i in group.simple_indices:
            checks += 1
            kind = descent_classify(group, el, i)
            s_i = group.simple_reflection(i)
            left, right = group.multiply(s_i, el), group.multiply(el, s_i)
            drop_left = group.length(left) < ell
            drop_right = group.length(right) < ell
            conj = twisted_conjugate(group, i, el)
            # a pooled conjugate is read as the pool's object, which keeps
            # its length and word across the sweep
            conj = sigma_pool.get(conj, conj)
            drop_conj = group.bruhat_leq(conj, el) and conj != el
            drop_l = involution_length(group, conj) == big_l - 1
            is_descent = kind != "none"
            if not (is_descent == drop_left == drop_right == drop_conj == drop_l):
                bad.append(f"descent equivalences fail at index {i}")
            if is_descent and (kind == "real") != (left == right):
                bad.append(f"real descent vs commutation fails at index {i}")
            back = twisted_conjugate(group, i, conj)
            if back != el:
                bad.append(f"twisted conjugation is not self inverse at index {i}")
    reports.append(Report("descent-equivalences", checks, tuple(bad)))

    reports.append(Report("negated-roots-halfsum", half_checks, tuple(half_bad)))

    verdicts = support_injectivity_check(group)
    failed = [k for k, ok in enumerate(verdicts) if not ok]
    bad = tuple(f"involution does not determine the subset inside ideal {k}" for k in failed)
    reports.append(Report("support-injectivity", len(verdicts), bad))

    reports.append(Report("support-reflection", reflect_checks, tuple(reflect_bad)))
    reports.append(Report("pair-descent-moves", moves, tuple(moves_bad)))

    if (rs.type_letter, rs.rank) == ("D", 4):
        checks, bad = 0, []
        first = make_orthogonal_set(
            rs,
            [(rs.epsilon_to_root(t), -1) for t in ("e1+e3", "e1-e3", "e2+e4", "e2-e4")],
        )
        second = make_orthogonal_set(
            rs,
            [(rs.epsilon_to_root(t), -1) for t in ("e1+e4", "e1-e4", "e2+e3", "e2-e3")],
        )
        checks += 3
        if reflection_product(group, first) != reflection_product(group, second):
            bad.append("the two crossing quadruples should share an involution")
        if negated_root_report(group, first).ok:
            bad.append("the half-sum check should fail outside every inversion set")
        masks = group.shifted_mask(first), group.shifted_mask(second)
        if any(not mask & ~m.mask for m in mins for mask in masks):
            bad.append("the crossing quadruples should fit inside no inversion set")
        reports.append(Report("counterexample-sets", checks, tuple(bad)))

    if rs.rank <= 3:
        involutions = sorted(sigma_pool, key=group.length)
        checks, bad = 0, []
        for a in involutions:
            for b in involutions:
                if a == b or not group.bruhat_leq(a, b):
                    continue
                for i in group.simple_indices:
                    checks += 1
                    ca = twisted_conjugate(group, i, a)
                    cb = twisted_conjugate(group, i, b)
                    up_a = not group.bruhat_leq(ca, a) or ca == a
                    up_b = not group.bruhat_leq(cb, b) or cb == b
                    if ca == a or cb == b:
                        bad.append(f"twisted conjugate fixed an involution at {i}")
                        continue
                    if up_a and up_b and not group.bruhat_leq(ca, cb):
                        bad.append(f"monotonicity (up, up) fails at {i}")
                    if not up_a and not up_b and not group.bruhat_leq(ca, cb):
                        bad.append(f"monotonicity (down, down) fails at {i}")
                    if up_a and not up_b and not (
                        group.bruhat_leq(ca, b) and group.bruhat_leq(a, cb)
                    ):
                        bad.append(f"monotonicity (up, down) fails at {i}")
        reports.append(Report("conjugation-monotonicity", checks, tuple(bad)))
    return reports


def suite_poset(group: AffineWeylGroup) -> list[Report]:
    # Only this suite asks the same pairs again (poset builds, pairwise rows,
    # branch recursion, moves-vs-order), so it memoizes them while it runs.
    group.bruhat_leq = cache(group.bruhat_leq)
    try:
        return _poset_reports(group)
    finally:
        del group.bruhat_leq


def _poset_reports(group: AffineWeylGroup) -> list[Report]:
    mins = group.minuscule
    ident = mins[0]

    # each (w, v) poset is built once, here: dimension-formula reads those
    # with v the identity, and node-count-monotonicity reads their sizes
    dim_checks, dim_bad = 0, []
    sizes: list[dict] = []  # per w, the node count of each v below it
    checks, bad = 0, []
    for k, w in enumerate(mins):
        counts = {}
        sizes.append(counts)
        for v in mins:
            if not weak_order_leq(v, w):
                continue
            poset = build_orbit_poset(group, w, v)
            n = counts[v.element] = len(poset.nodes)
            if v is ident:
                for node in poset.nodes:
                    dim_checks += 1
                    if node.dim != node.big_l or 2 * node.big_l != node.length + len(node.s):
                        dim_bad.append(f"dimension formula fails at {set_text(node.s)}")
                dims = [node.dim for node in poset.nodes]
                if max(dims) != w.length or min(dims) != 0:
                    dim_bad.append(f"dimension range wrong for ideal {k}")
            # the pairwise comparison is the oracle of the inferred order, and
            # the order checks run on it, where transitivity is not built in;
            # bit j of row i is set iff node i is below node j
            sigmas = [node.sigma for node in poset.nodes]
            rows = [sum(group.bruhat_leq(a, b) << j for j, b in enumerate(sigmas)) for a in sigmas]
            checks += 1
            if poset.leq != tuple(rows):
                bad.append("inferred order differs from pairwise Bruhat comparison")
            supports = [group.shifted_mask(node.s) for node in poset.nodes]
            for i in range(n):
                if not rows[i] >> i & 1:
                    bad.append("order is not reflexive")
                for j in range(n):
                    if rows[i] >> j & 1:
                        # each k above j but not above i breaks transitivity
                        bad += ["order is not transitive"] * (rows[j] & ~rows[i]).bit_count()
                        if i != j and poset.nodes[i].big_l >= poset.nodes[j].big_l:
                            bad.append("grading is not strict")
                    if not supports[i] & ~supports[j] and not rows[i] >> j & 1:
                        bad.append("containment does not imply closure")
            # a maximum is above every node, a minimum below every node
            full = (1 << n) - 1
            if reduce(and_, rows, full).bit_count() != 1 or rows.count(full) != 1:
                bad.append("poset does not have unique extremes")
            edges = [0] * n
            for i, j in poset.hasse:
                edges[i] |= 1 << j
            for i, r in enumerate(_transitive_closure(edges)):
                bad += ["hasse closure mismatch"] * (r ^ (rows[i] & ~(1 << i))).bit_count()
    reports = [Report("dimension-formula", dim_checks, tuple(dim_bad))]

    branch, branch_bad = 0, []
    for w in mins:
        rep = verify_branch_recursion(group, w)
        branch += rep.checks
        branch_bad.extend(rep.violations)
    reports.append(Report("branch-recursion", branch, tuple(branch_bad)))
    reports.append(Report("poset-invariants", checks, tuple(bad)))

    checks, bad = 0, []
    for counts in sizes:
        for v1 in mins:
            for v2 in mins:
                if (
                    v1.element in counts
                    and v2.element in counts
                    and weak_order_leq(v1, v2)
                ):
                    checks += 1
                    if counts[v1.element] < counts[v2.element]:
                        bad.append("node count is not monotone in v")
    reports.append(Report("node-count-monotonicity", checks, tuple(bad)))

    checks, bad = 0, []
    for w in mins:
        rep = verify_moves_vs_order(group, w)
        checks += rep.checks
        bad.extend(rep.violations)
    reports.append(Report("moves-vs-order", checks, tuple(bad)))
    return reports


def suite_phi(group: AffineWeylGroup) -> list[Report]:
    reports = []
    for i in range(1, group.rank + 1):
        if group.rs.marks[i - 1] == 1:
            reports.append(verify_phi_equivalence(group, i))
    if not reports:
        reports.append(Report("phi-equivalence", 0))
    return reports
