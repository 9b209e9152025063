"""Verification suites over a fixed root system.

Each suite bundles the exhaustive consistency sweeps for one layer of the
artifact and returns a list of reports; the command line front end prints
one summary line per suite.  This module holds every sweep that only
`verify` runs, so the orbit commands never load it.  The benchmark tracer
(perfbench/tracer.py) spans the four ``verify_*`` sweeps as
``orbits.verify_*``, so `orbits` forwards exactly those four names here.
Everything here is also exercised by the pytest suite, which additionally
pins concrete frozen examples.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, reduce
from itertools import combinations, product
from operator import add, and_, itemgetter, sub
import random
from typing import Optional

from . import SUITE_NAMES
from .affine import AffineWeylElement, AffineWeylGroup, affine_text, negate, word_to_text
from .involutions import (
    OrthogonalSet,
    _contexts,
    descent_classify,
    descent_move,
    involution_length,
    make_admissible_pair,
    make_orthogonal_set,
    orthogonal_subsets,
    pair_descents,
    rank_id_minus,
    reflection_product,
    set_text,
    shifted_orthogonal_stream,
    transform_set,
    twisted_conjugate,
)
from .minuscule import (
    MinusculeElement,
    enumerate_abelian_ideals,
    ideal_to_element,
    is_minuscule,
    normalizer_by_ideal_stability,
    normalizer_simple_roots,
    weak_order_leq,
)
from .orbits import build_orbit_poset
from .roots import _Value, _bits, root_text

__all__ = [
    "SUITE_NAMES", "Report", "run_suite", "negated_root_report", "support_injectivity_check",
    "verify_strong_form", "verify_branch_recursion", "verify_moves_vs_order", "phi_involution",
    "phi_apply", "verify_phi_equivalence",
]


class Report(_Value):
    """Outcome of a verification sweep: how many checks ran and which failed."""

    __slots__ = ("name", "checks", "violations")

    def __init__(self, name: str, checks: int, violations: tuple[str, ...] = ()):
        self.name, self.checks, self.violations = name, checks, violations

    @property
    def ok(self) -> bool:
        return not self.violations


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


# -- half sums of negated roots and injectivity of supports ------------------


def negated_root_report(
    group: AffineWeylGroup,
    s: OrthogonalSet,
    inside: Optional[MinusculeElement] = None,
) -> Report:
    """Enumerate the real roots sent to their negatives by the involution of
    S and verify each is half of (+-b) + (+-b') with b, b' in S; roots at
    level -1 with positive finite part must use the plus-plus form, finite
    roots the mixed form."""
    if inside is not None:
        support = group.shifted_mask(s)
        if support is None or support & ~inside.mask:
            raise ValueError("S is not inside the inversion set of the given element")
    sigma = reflection_product(group, s)
    # each doubled root (sb*b + sbp*b') mapped to all its sign pairs (sb, sbp)
    halves: dict[tuple, set[tuple[int, int]]] = {}
    for (b, n), (bp, n_p) in product(s, repeat=2):
        for sb, sbp in product((1, -1), repeat=2):
            fin = tuple(sb * x + sbp * y for x, y in zip(b, bp))
            halves.setdefault((fin, sb * n + sbp * n_p), set()).add((sb, sbp))
    checks = 0
    violations = []
    for a in group.negated_roots(sigma):
        checks += 1
        gamma, n = a
        key = (tuple(2 * c for c in gamma), 2 * n)
        if key not in halves:
            violations.append(f"{affine_text(a)} is negated but is not a half sum of support roots")
            continue
        if n == -1 and max(gamma) > 0 and (1, 1) not in halves[key]:
            violations.append(f"{affine_text(a)} is negated but not a plus-plus half sum")
        if n == 0 and (1, -1) not in halves[key]:
            violations.append(f"{affine_text(a)} is negated but not a plus-minus half sum")
    return Report("negated-roots-halfsum", checks, tuple(violations))


def support_injectivity_check(group: AffineWeylGroup) -> list[bool]:
    """Within the inversion set of each minuscule element, the involution
    determines the orthogonal subset: no other orthogonal subset of
    Phi^+ - delta shares its involution.  One verdict per ideal id; each
    subset of Phi^+ - delta is streamed once against the contexts."""
    holders = _contexts(group)
    owners: dict[AffineWeylElement, list[OrthogonalSet]] = {}
    for s in holders:
        owners.setdefault(reflection_product(group, s), []).append(s)
    ok = [True] * len(group.minuscule)
    for r, _, sigma in shifted_orthogonal_stream(group):
        for s in owners.get(sigma, ()):
            if s != r:
                for k in holders[s]:
                    ok[k] = False
    return ok


# -- confinement of supports under the Bruhat order -------------------------


def verify_strong_form(group: AffineWeylGroup) -> Report:
    """For every minuscule w and orthogonal S inside its inversion set: any
    orthogonal subset of Phi^+ - delta whose involution is Bruhat-below the
    involution of S lies inside the inversion set of w as well.  Only the
    contexts S are held, shortest involution first; each subset R of
    Phi^+ - delta is streamed against the contexts at least as long."""
    holders = _contexts(group)
    masks = [m.mask for m in group.minuscule]
    sigmas = {s: reflection_product(group, s) for s in holders}
    contexts = sorted(((group.length(x), s, x) for s, x in sigmas.items()), key=itemgetter(0))
    lengths = [ell for ell, _, _ in contexts]
    checks = 0
    violations = []
    for r, r_mask, sigma_r in shifted_orthogonal_stream(group):
        for _, s, sigma_s in contexts[bisect_left(lengths, group.length(sigma_r)):]:
            checks += 1
            if group.bruhat_leq(sigma_r, sigma_s):
                for k in holders[s]:
                    checks += 1
                    if r_mask & ~masks[k]:
                        violations.append(f"{set_text(r)} is below {set_text(s)} but escapes ideal {k}")
    return Report("strong-form", checks, tuple(violations))


# -- branch recursion along weak order covers --------------------------------


def _weak_covers(group: AffineWeylGroup, mins, w: MinusculeElement):
    """Covers v < s_i v <= w inside the minuscule poset; yields
    (v, i, v', k) with r_k - delta the added inversion."""
    ids = group.minuscule_ids
    for m in mins:
        if not weak_order_leq(m, w):
            continue
        gap = w.mask & ~m.mask
        for i, k in group.up_steps(m.element):
            if not gap >> k & 1:
                continue
            nxt = group.multiply(group.simple_reflection(i), m.element)
            yield m, i, group.minuscule[ids[nxt]], k


def verify_branch_recursion(group: AffineWeylGroup, w: MinusculeElement) -> Report:
    """One-step consistency along each weak-order cover v < s_i v below w:
    when the new inversion is not orthogonal to S the involution of the pair
    drops by a twisted conjugation, otherwise it is unchanged and the
    enlarged set accounts for the lost dimension."""
    checks = 0
    violations = []

    def fail(v: MinusculeElement, i: int, s: OrthogonalSet, what: str) -> None:
        # the words are computed only for a violation
        violations.append(
            f"w={word_to_text(group.reduced_word(w.element))} "
            f"v={word_to_text(group.reduced_word(v.element))} i={i} S={set_text(s)}: {what}"
        )

    ortho = group.rs.orthogonal_masks
    for v, i, v2, k in _weak_covers(group, group.minuscule, w):
        for s in orthogonal_subsets(group.rs, group.shifted_roots(w.mask & ~v2.mask)):
            checks += 1
            sig_v = make_admissible_pair(group, v, s, w).sigma
            sig_v2 = make_admissible_pair(group, v2, s, w).sigma
            l_v = involution_length(group, sig_v)
            l_v2 = involution_length(group, sig_v2)
            support = group.shifted_mask(s)
            if support & ~ortho[k]:
                if sig_v2 != twisted_conjugate(group, i, sig_v):
                    fail(v, i, s, "twisted conjugate mismatch")
                if l_v2 != l_v - 1:
                    fail(v, i, s, "L did not drop by one")
                if not group.bruhat_leq(sig_v2, sig_v):
                    fail(v, i, s, "no Bruhat drop")
            else:
                big = group.shifted_roots(support | 1 << k)
                sig_big = make_admissible_pair(group, v, big, w).sigma
                l_big = involution_length(group, sig_big)
                if sig_v2 != sig_v:
                    fail(v, i, s, "involutions differ in the split case")
                if not (l_v2 == l_v == l_big - 1):
                    fail(v, i, s, "L bookkeeping failed in the split case")
                if sig_v != twisted_conjugate(group, i, sig_big):
                    fail(v, i, s, "enlarged set is not the twisted conjugate")
                if not group.bruhat_leq(sig_v, sig_big):
                    fail(v, i, s, "no Bruhat drop from the enlarged set")
    return Report("branch-recursion", checks, tuple(violations))


# -- move-generated order vs Bruhat comparison --------------------------------


def _transitive_closure(rows: list[int]) -> list[int]:
    """Warshall's algorithm on bit rows: bit j of row i is set in the result
    iff j is reached from i along set bits."""
    rows = list(rows)
    for k in range(len(rows)):
        bit, row = 1 << k, rows[k]
        for i, r in enumerate(rows):
            if r & bit:
                rows[i] = r | row
    return rows


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        x, y = self.find(x), self.find(y)
        if x != y:
            self.parent[y] = x


def verify_moves_vs_order(group: AffineWeylGroup, w: MinusculeElement) -> Report:
    """Rebuild the closure order on the identity-level orbits from elementary
    justified relations and compare with the Bruhat comparison order.

    Nodes are all admissible pairs below w.  Pairs whose orbits share a
    closure are merged: along a weak cover the orbit is unchanged when the
    new inversion is not orthogonal to S, and is the dense piece of the
    enlarged set when it is.  Directed edges are torus degenerations
    S <= S + {beta} and finite descent moves; relations are then transported
    through common finite descents, mirroring the way one-step relations
    propagate, and the whole thing is saturated under transitivity.
    """
    rs = group.rs
    ortho, ids = rs.orthogonal_masks, group.minuscule_ids
    mins = [m for m in group.minuscule if weak_order_leq(m, w)]
    # a node is keyed on (ideal id of v, mask of S); supports lists the masks
    # of S per ideal id, in the order of orthogonal_subsets
    node_id: dict[tuple[int, int], int] = {}
    node_pairs: list[tuple[MinusculeElement, OrthogonalSet, int]] = []
    supports: dict[int, list[int]] = {}
    for m in mins:
        vid = ids[m.element]
        masks = supports[vid] = []
        for s in orthogonal_subsets(rs, group.shifted_roots(w.mask & ~m.mask)):
            mask = group.shifted_mask(s)
            node_id[(vid, mask)] = len(node_pairs)
            node_pairs.append((m, s, mask))
            masks.append(mask)
    n = len(node_pairs)
    uf = _UnionFind(n)
    edges: set[tuple[int, int]] = set()

    # merges along weak covers, and the degeneration edge for the split case
    for v, i, v2, j in _weak_covers(group, mins, w):
        vid, vid2 = ids[v.element], ids[v2.element]
        for mask in supports[vid2]:
            upper = node_id[(vid2, mask)]
            if not mask & ~ortho[j]:
                uf.union(upper, node_id[(vid, mask | 1 << j)])
            else:
                uf.union(upper, node_id[(vid, mask)])

    # torus degenerations at every level
    for k, (m, s, mask) in enumerate(node_pairs):
        vid = ids[m.element]
        for j in _bits(w.mask & ~m.mask & ~mask):
            if not mask & ~ortho[j]:
                edges.add((k, node_id[(vid, mask | 1 << j)]))

    # finite descent moves, recorded per (v, i) for the transport rule
    finite_moves: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for k, (m, s, _) in enumerate(node_pairs):
        if not s:
            continue
        vid = ids[m.element]
        pair = make_admissible_pair(group, m, s, w)
        for i, (_, locus) in pair_descents(group, pair).items():
            if locus != "finite":
                continue
            moved = descent_move(group, pair, i)
            k2 = node_id[(vid, group.shifted_mask(moved.s))]
            edges.add((k2, k))
            finite_moves.setdefault((vid, i), []).append((k, k2))

    # saturate: transitive closure plus transport through common finite descents
    classes = sorted({uf.find(k) for k in range(n)})
    cls_index = {c: j for j, c in enumerate(classes)}
    of = [cls_index[uf.find(k)] for k in range(n)]
    size = len(classes)
    adj = [1 << j for j in range(size)]
    for a, b in edges:
        adj[of[a]] |= 1 << of[b]
    reach = _transitive_closure(adj)
    while True:
        added = False
        for pairs in finite_moves.values():
            for k_s, k_s2 in pairs:
                for k_r, k_r2 in pairs:
                    if reach[of[k_r2]] >> of[k_s2] & 1 and not reach[of[k_r]] >> of[k_s] & 1:
                        reach[of[k_r]] |= 1 << of[k_s]
                        added = True
        if not added:
            break
        reach = _transitive_closure(reach)

    # compare at the identity level, ideal id 0
    checks = 0
    violations = []
    nodes0 = [(s, of[k]) for k, (m, s, _) in enumerate(node_pairs) if ids[m.element] == 0]
    level0 = [(s, reflection_product(group, s), k) for s, k in nodes0]
    for s1, x1, k1 in level0:
        for s2, x2, k2 in level0:
            checks += 1
            derived = bool(reach[k1] >> k2 & 1)
            expected = group.bruhat_leq(x1, x2)
            if derived != expected:
                violations.append(
                    f"{set_text(s1)} vs {set_text(s2)}: "
                    f"moves say {derived}, involutions say {expected}"
                )
    return Report("moves-vs-order", checks, tuple(violations))


# -- the diagram involution for mark-one parabolics ----------------------------


def _longest_parabolic_element(group: AffineWeylGroup, omit: int) -> AffineWeylElement:
    """Longest element of the finite parabolic generated by all simple
    reflections except the omitted index (1-based)."""
    cur = group.identity
    kept = set(range(1, group.rank + 1)) - {omit}
    while ascents := kept - group.descents(cur):
        cur = group.multiply(cur, group.simple_reflection(min(ascents)))
    return cur


def phi_involution(group: AffineWeylGroup, p_index: int) -> dict[int, int]:
    """The extended Dynkin diagram involution attached to a simple root of
    mark one: it swaps that node with the affine node and acts on the rest
    by minus the longest parabolic element.  Checked to be an automorphism
    of the extended Cartan matrix."""
    rs = group.rs
    if not 1 <= p_index <= rs.rank:
        raise ValueError("simple root index out of range")
    if rs.marks[p_index - 1] != 1:
        raise ValueError("the chosen simple root does not have mark one")
    w_p = _longest_parabolic_element(group, p_index)
    phi = {p_index: 0, 0: p_index}
    for i in range(1, rs.rank + 1):
        if i == p_index:
            continue
        phi[i] = group.simple_index(negate(group.act(w_p, group.simple_affine_root(i))))
    for i, j in phi.items():
        if phi[j] != i:
            raise AssertionError("diagram map is not an involution")
    simples = [g for g, _ in map(group.simple_affine_root, group.simple_indices)]
    for i in group.simple_indices:
        for j in group.simple_indices:
            a = rs.pairing(simples[j], simples[i])
            b = rs.pairing(simples[phi[j]], simples[phi[i]])
            if a != b:
                raise AssertionError("diagram map does not preserve the Cartan matrix")
    return phi


def phi_apply(
    group: AffineWeylGroup, phi: dict[int, int], x: AffineWeylElement
) -> AffineWeylElement:
    """Apply the diagram involution to an element through any reduced word."""
    return group.evaluate_word(tuple(phi[i] for i in group.reduced_word(x)))


def verify_phi_equivalence(group: AffineWeylGroup, p_index: int) -> Report:
    """For every orthogonal subset S of the nilradical ideal at the chosen
    mark-one simple root: the diagram involution carries the finite
    involution of w_P(S) to the involution of S - delta, preserves length,
    and identifies the finite-Weyl closure order with the affine one."""
    rs = group.rs
    phi = phi_involution(group, p_index)
    w_p = _longest_parabolic_element(group, p_index)
    ideal_roots = [g for g in rs.positive_roots if g[p_index - 1] == 1]
    if any(g[p_index - 1] > 1 for g in rs.positive_roots):
        raise AssertionError("mark-one root with coefficient above one")
    subsets = orthogonal_subsets(rs, [(g, 0) for g in ideal_roots])
    checks = 0
    violations = []
    finite_sigmas = []
    affine_sigmas = []
    for s in subsets:
        moved = transform_set(group, w_p, s)
        sig_fin = reflection_product(group, moved)
        shifted = make_orthogonal_set(rs, [(g, -1) for g, _ in s])
        sig_aff = reflection_product(group, shifted)
        checks += 1
        if phi_apply(group, phi, sig_fin) != sig_aff:
            violations.append(f"phi mismatch for S={set_text(s)}")
        if group.length(sig_fin) != group.length(sig_aff):
            violations.append(f"length mismatch for S={set_text(s)}")
        finite_sigmas.append(sig_fin)
        affine_sigmas.append(sig_aff)
    for a in range(len(subsets)):
        for b in range(len(subsets)):
            checks += 1
            if group.bruhat_leq(finite_sigmas[a], finite_sigmas[b]) != group.bruhat_leq(
                affine_sigmas[a], affine_sigmas[b]
            ):
                violations.append(
                    f"poset mismatch between {set_text(subsets[a])} and {set_text(subsets[b])}"
                )
    return Report("phi-equivalence", checks, tuple(violations))
