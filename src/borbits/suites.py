"""Verification suites over a fixed root system.

Each suite bundles the exhaustive consistency sweeps for one layer of the
artifact and returns a list of reports; the command line front end prints
one summary line per suite.  Everything here is also exercised by the
pytest suite, which additionally pins concrete frozen examples.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
import random

from . import SUITE_NAMES
from .affine import AffineRoot, AffineWeylGroup
from .involutions import (
    Involution,
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
                for s in orthogonal_subsets(group.rs, group.shifted_roots(w._mask & ~v._mask)):
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
        if m.ideal != ideal:
            bad.append(f"enumeration order mismatch at {k}")
        if ideal_to_element(group, ideal).element != m.element:
            bad.append(f"round trip failed at {k}")
    reports.append(Report("ideal-element-bijection", checks, tuple(bad)))

    checks, bad = 0, []
    for m1 in mins:
        for m2 in mins:
            checks += 1
            if weak_order_leq(m1, m2) != group.bruhat_leq(m1.element, m2.element):
                bad.append(f"weak/Bruhat mismatch at {m1.inversions} vs {m2.inversions}")
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
        inv = list(m.inversions)
        for beta in inv:
            if any(b != beta and rs.dominance_leq(b.finite, beta.finite) for b in inv):
                continue
            checks += 1
            alpha = group.act(m.element, beta)
            if not group.is_simple_affine(alpha):
                bad.append(f"minimal inversion {beta} maps to non-simple {alpha}")
                continue
            shorter = group.multiply(group.simple_reflection(group.simple_index(alpha)), m.element)
            if group.length(shorter) != m.length - 1:
                bad.append(f"stripping {beta} did not drop the length")
    reports.append(Report("minimal-inversions-strip", checks, tuple(bad)))

    checks, bad = 0, []
    for m in mins:
        for a in m.inversions:
            for j, g in enumerate(rs.positive_roots):
                if rs.dominance_leq(a.finite, g):
                    checks += 1
                    if not m._mask >> j & 1:
                        bad.append(f"{AffineRoot(g, -1)} above {a} escapes the inversion set")
    reports.append(Report("inversion-upward-closure", checks, tuple(bad)))

    checks, bad = 0, []
    for m in mins:
        inv = list(m.inversions)
        for i, a in enumerate(inv):
            for b in inv[i + 1 :]:
                if rs.pairing(a.finite, b.finite) != 0:
                    continue
                checks += 1
                if rs.is_root((a.finite + b.finite).coeffs) or rs.is_root(
                    (a.finite - b.finite).coeffs
                ):
                    bad.append(f"{a}, {b} orthogonal but not strongly orthogonal")
    reports.append(Report("orthogonal-is-strongly-orthogonal", checks, tuple(bad)))

    checks, bad = 0, []
    for m in mins:
        for s in orthogonal_subsets(rs, m.inversions):
            if s.size < 2:
                continue
            for gamma in rs.positive_roots:
                checks += 1
                extendable = [
                    a for a in s.roots if rs.is_root((a.finite + gamma).coeffs)
                ]
                if len(extendable) > 1:
                    bad.append(f"{gamma} extends two roots of {s}")
    reports.append(Report("one-root-extension", checks, tuple(bad)))

    checks, bad = 0, []
    for m in mins:
        checks += 1
        a = set(normalizer_simple_roots(group, m))
        b = set(normalizer_by_ideal_stability(rs, m.ideal))
        if a != b:
            bad.append(f"normalizer criteria disagree on ideal {m.ideal.roots}")
    reports.append(Report("normalizer-criteria", checks, tuple(bad)))
    return reports


def suite_involutions(group: AffineWeylGroup) -> list[Report]:
    rs = group.rs
    reports = []
    mins = group.minuscule
    rng = random.Random(2024)

    checks, bad = 0, []
    for m in mins:
        for s in orthogonal_subsets(rs, m.inversions):
            base = reflection_product(group, s).element
            order = list(s.roots)
            for _ in range(2):
                rng.shuffle(order)
                el = group.identity
                for a in order:
                    el = group.multiply(el, group.reflection(a))
                checks += 1
                if el != base:
                    bad.append(f"order dependence for {s}")
    reports.append(Report("product-order-independence", checks, tuple(bad)))

    checks, bad = 0, []
    for m in mins:
        for s in orthogonal_subsets(rs, m.inversions):
            sigma = reflection_product(group, s)
            checks += 1
            if rank_id_minus(group, sigma.element) != s.size:
                bad.append(f"rank of id - sigma is not |S| for {s}")
            ell = group.length(sigma.element)
            if involution_length(group, sigma) * 2 != ell + s.size:
                bad.append(f"L formula fails for {s}")
    reports.append(Report("rank-and-length", checks, tuple(bad)))

    sigma_pool: dict = {}
    for pair in _admissible_sweep(group):
        sigma_pool.setdefault(pair.sigma.element, pair.sigma)
    checks, bad = 0, []
    for el, sigma in sigma_pool.items():
        big_l = involution_length(group, sigma)
        ell = group.length(el)
        for i in group.simple_indices:
            checks += 1
            kind = descent_classify(group, sigma, i)
            s_i = group.simple_reflection(i)
            drop_left = group.length(group.multiply(s_i, el)) < ell
            drop_right = group.length(group.multiply(el, s_i)) < ell
            conj = twisted_conjugate(group, i, sigma)
            drop_conj = group.bruhat_leq(conj.element, el) and conj.element != el
            drop_l = involution_length(group, conj) == big_l - 1
            is_descent = kind != "none"
            if not (is_descent == drop_left == drop_right == drop_conj == drop_l):
                bad.append(f"descent equivalences fail at index {i}")
            commutes = group.multiply(s_i, el) == group.multiply(el, s_i)
            if is_descent and (kind == "real") != commutes:
                bad.append(f"real descent vs commutation fails at index {i}")
            back = twisted_conjugate(group, i, conj)
            if back.element != el:
                bad.append(f"twisted conjugation is not self inverse at index {i}")
    reports.append(Report("descent-equivalences", checks, tuple(bad)))

    checks, bad = 0, []
    for m in mins:
        for s in orthogonal_subsets(rs, m.inversions):
            rep = negated_root_report(group, s, m)
            checks += rep.checks
            bad.extend(rep.violations)
    reports.append(Report("negated-roots-halfsum", checks, tuple(bad)))

    checks, bad = 0, []
    for m in mins:
        checks += 1
        if not support_injectivity_check(group, m):
            bad.append(f"involution does not determine the subset inside ideal {m.ideal.roots}")
    reports.append(Report("support-injectivity", checks, tuple(bad)))

    checks, bad = 0, []
    for m in mins:
        for s in orthogonal_subsets(rs, m.inversions):
            if s.size == 0:
                continue
            sigma = reflection_product(group, s)
            for i in range(1, rs.rank + 1):
                kind = descent_classify(group, sigma, i)
                if kind == "none":
                    continue
                checks += 1
                beta = rs.simple_root(i)
                moved = group.shifted_mask(
                    AffineRoot(rs.reflect(beta, a.finite), a.level) for a in s.roots
                )
                if moved is None or moved & ~m._mask:
                    bad.append(f"reflected support escapes the ideal for {s} at {i}")
                if (moved == group.shifted_mask(s.roots)) != (kind == "real"):
                    bad.append(f"fixed-support iff real fails for {s} at {i}")
    reports.append(Report("support-reflection", checks, tuple(bad)))

    checks, bad = 0, []
    for pair in _admissible_sweep(group):
        try:
            desc = pair_descents(group, pair)
        except AssertionError as exc:
            bad.append(f"descent classification failed: {exc}")
            continue
        big_l = involution_length(group, pair.sigma)
        for i, cls in desc.items():
            checks += 1
            if cls.kind == "none":
                continue
            moved = descent_move(group, pair, i)
            if involution_length(group, moved.sigma) != big_l - 1:
                bad.append(f"descent move did not drop L at index {i}")
    reports.append(Report("pair-descent-moves", checks, tuple(bad)))

    if (rs.type_letter, rs.rank) == ("D", 4):
        checks, bad = 0, []
        first = make_orthogonal_set(
            rs,
            [AffineRoot(rs.epsilon_to_root(t), -1) for t in ("e1+e3", "e1-e3", "e2+e4", "e2-e4")],
        )
        second = make_orthogonal_set(
            rs,
            [AffineRoot(rs.epsilon_to_root(t), -1) for t in ("e1+e4", "e1-e4", "e2+e3", "e2-e3")],
        )
        checks += 3
        if reflection_product(group, first).element != reflection_product(group, second).element:
            bad.append("the two crossing quadruples should share an involution")
        if negated_root_report(group, first).ok:
            bad.append("the half-sum check should fail outside every inversion set")
        masks = group.shifted_mask(first.roots), group.shifted_mask(second.roots)
        if any(not mask & ~m._mask for m in mins for mask in masks):
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
                    ca = twisted_conjugate(group, i, Involution(a)).element
                    cb = twisted_conjugate(group, i, Involution(b)).element
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
    rs = group.rs
    reports = []
    mins = group.minuscule
    ident = mins[0]

    checks, bad = 0, []
    for w in mins:
        poset = build_orbit_poset(group, w, ident)
        dims = [n.dim for n in poset.nodes]
        for node in poset.nodes:
            checks += 1
            if node.dim != node.big_l or 2 * node.big_l != node.length + node.s.size:
                bad.append(f"dimension formula fails at {node.s}")
        if max(dims) != w.length or min(dims) != 0:
            bad.append(f"dimension range wrong for ideal of {w.inversions}")
    reports.append(Report("dimension-formula", checks, tuple(bad)))

    checks, bad = 0, []
    for w in mins:
        rep = verify_branch_recursion(group, w)
        checks += rep.checks
        bad.extend(rep.violations)
    reports.append(Report("branch-recursion", checks, tuple(bad)))

    checks, bad = 0, []
    for w in mins:
        for v in mins:
            if not weak_order_leq(v, w):
                continue
            poset = build_orbit_poset(group, w, v)
            n = len(poset.nodes)
            # the pairwise comparison is the oracle of the inferred order, and
            # the order checks run on it, where transitivity is not built in;
            # bit j of row i is set iff node i is below node j
            sigmas = [node.sigma.element for node in poset.nodes]
            rows = [sum(group.bruhat_leq(a, b) << j for j, b in enumerate(sigmas)) for a in sigmas]
            checks += 1
            if poset.leq != tuple(tuple(bool(r >> j & 1) for j in range(n)) for r in rows):
                bad.append("inferred order differs from pairwise Bruhat comparison")
            supports = [group.shifted_mask(node.s.roots) for node in poset.nodes]
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
    reports.append(Report("poset-invariants", checks, tuple(bad)))

    checks, bad = 0, []
    for w in mins:
        counts = {}
        for v in mins:
            if weak_order_leq(v, w):
                counts[v.element] = len(orthogonal_subsets(rs, group.shifted_roots(w._mask & ~v._mask)))
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
