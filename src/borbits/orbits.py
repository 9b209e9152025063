"""Orbit posets of abelian ideals: nodes, dimensions, and closure order.

For a pair of minuscule elements v <= w, the orbits are indexed by the
orthogonal subsets of the inversion gap between w and v.  Each node carries
the involution of the pair, its invariant L, and the orbit dimension
``length(v) + L``; for v equal to the identity the dimension is just L of
the support involution.  The closure order is defined computationally as
the Bruhat comparison of the attached involutions, and the Hasse diagram is
its transitive reduction.

The module also ships the verification sweeps that tie the order to its
independent justifications: the one-step branch recursion along weak-order
covers, a move-generated order built from degenerations and descent moves
that must saturate to the same relation, the confinement property (an
involution below one supported in an inversion set is itself supported
there), and the diagram involution that exchanges the finite-Weyl and
affine pictures for maximal parabolics whose simple root has mark one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .affine import (
    AffineRoot,
    AffineWeylElement,
    AffineWeylGroup,
    ReducedWord,
    word_to_text,
)
from .involutions import (
    AdmissiblePair,
    Involution,
    OrthogonalSet,
    Report,
    descent_move,
    involution_length,
    make_admissible_pair,
    make_orthogonal_set,
    orthogonal_subsets,
    pair_descents,
    reflection_product,
    transform_set,
    twisted_conjugate,
)
from .minuscule import MinusculeElement, up_steps, weak_order_leq

__all__ = [
    "OrbitNode",
    "OrbitPoset",
    "PosetContext",
    "build_orbit_poset",
    "closure_leq",
    "export_poset",
    "node_row",
    "verify_strong_form",
    "verify_branch_recursion",
    "verify_moves_vs_order",
    "phi_involution",
    "phi_apply",
    "verify_phi_equivalence",
]


@dataclass(frozen=True)
class OrbitNode:
    s: OrthogonalSet
    sigma: Involution
    sigma_word: ReducedWord
    length: int     # coxeter length of sigma
    big_l: int      # (length + |S|) / 2
    dim: int        # orbit dimension, length(v) + big_l


@dataclass(frozen=True)
class PosetContext:
    type_letter: str
    rank: int
    ideal_id: int
    v_word: ReducedWord
    w: MinusculeElement
    v: MinusculeElement


@dataclass(frozen=True)
class OrbitPoset:
    context: PosetContext
    nodes: tuple[OrbitNode, ...]
    leq: tuple[tuple[bool, ...], ...]
    hasse: tuple[tuple[int, int], ...]


def build_orbit_poset(
    group: AffineWeylGroup, w: MinusculeElement, v: MinusculeElement
) -> OrbitPoset:
    """Nodes are the orthogonal subsets of the inversion gap; the order is
    Bruhat comparison of the associated involutions."""
    if not weak_order_leq(v, w):
        raise ValueError("v is not below w")
    subsets = orthogonal_subsets(group.rs, w.inversion_set() - v.inversion_set())
    ell_v = v.length
    nodes = []
    for s in subsets:
        sigma = make_admissible_pair(group, v, s, w).sigma
        ell = group.length(sigma.element)
        big_l = involution_length(group, sigma)
        nodes.append(
            OrbitNode(
                s,
                sigma,
                group.reduced_word(sigma.element),
                ell,
                big_l,
                ell_v + big_l,
            )
        )
    n = len(nodes)
    leq = tuple(
        tuple(
            group.bruhat_leq(nodes[i].sigma.element, nodes[j].sigma.element)
            for j in range(n)
        )
        for i in range(n)
    )
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise AssertionError("closure order is not antisymmetric")
    ctx = PosetContext(
        group.rs.datum.type_letter,
        group.rank,
        group.minuscule_ids[w.element],
        group.reduced_word(v.element),
        w,
        v,
    )
    return OrbitPoset(ctx, tuple(nodes), leq, _transitive_reduction(leq))


def _transitive_reduction(leq) -> tuple[tuple[int, int], ...]:
    n = len(leq)
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(n)):
                continue
            edges.append((i, j))
    return tuple(sorted(edges))


def closure_leq(group: AffineWeylGroup, p: AdmissiblePair, q: AdmissiblePair) -> bool:
    """Closure comparison of two orbits over the same v: Bruhat order of the
    associated involutions."""
    if p.v.element != q.v.element:
        raise ValueError("closure comparison needs a common v")
    return group.bruhat_leq(p.sigma.element, q.sigma.element)


def node_row(node: OrbitNode) -> dict:
    """A node as the JSON outputs print it; the poset export adds its id."""
    return {
        "S": [str(a) for a in node.s.roots],
        "sigma_word": word_to_text(node.sigma_word),
        "length": node.length,
        "L": node.big_l,
        "dim": node.dim,
    }


def export_poset(poset: OrbitPoset, fmt: str) -> str:
    if fmt == "dot":
        lines = ["digraph {", "  rankdir=BT;"]
        for k, node in enumerate(poset.nodes):
            lines.append(f'  n{k} [label="{node.s} / {node.dim}"];')
        for i, j in poset.hasse:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        data = {
            "context": {
                "type": poset.context.type_letter,
                "rank": poset.context.rank,
                "ideal_id": poset.context.ideal_id,
                "v_word": word_to_text(poset.context.v_word),
            },
            "nodes": [{"id": k, **node_row(node)} for k, node in enumerate(poset.nodes)],
            "hasse": [list(e) for e in poset.hasse],
        }
        return json.dumps(data, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# -- confinement of supports under the Bruhat order -------------------------


def verify_strong_form(group: AffineWeylGroup) -> Report:
    """For every minuscule w and orthogonal S inside its inversion set: any
    orthogonal subset of Phi^+ - delta whose involution is Bruhat-below the
    involution of S lies inside the inversion set of w as well."""
    buckets = group.shifted_orthogonal_index
    all_subsets = [(s, el, group.length(el)) for el, subs in buckets.items() for s in subs]
    mins = group.minuscule
    contexts: dict[frozenset[AffineRoot], list[int]] = {}
    for k, m in enumerate(mins):
        for s in orthogonal_subsets(group.rs, m.inversions):
            contexts.setdefault(s.root_set(), []).append(k)
    checks = 0
    violations = []
    for s_key, holders in contexts.items():
        sigma_s = reflection_product(
            group, make_orthogonal_set(group.rs, s_key)
        ).element
        len_s = group.length(sigma_s)
        below = []
        for r, el, len_r in all_subsets:
            if len_r > len_s:
                continue
            checks += 1
            if group.bruhat_leq(el, sigma_s):
                below.append(r)
        for k in holders:
            inv = mins[k].inversion_set()
            for r in below:
                checks += 1
                if not r.root_set() <= inv:
                    violations.append(
                        f"{r} is below {set(map(str, s_key))} but escapes ideal {k}"
                    )
    return Report("strong-form", checks, tuple(violations))


# -- branch recursion along weak order covers --------------------------------


def _weak_covers(group: AffineWeylGroup, mins, w: MinusculeElement):
    """Covers v < s_i v <= w inside the minuscule poset; yields
    (v, i, v', beta_new) with beta_new the added inversion."""
    ids = group.minuscule_ids
    w_inv = w.inversion_set()
    for m in mins:
        if not weak_order_leq(m, w):
            continue
        for i, beta_new in up_steps(group, m.element):
            if beta_new not in w_inv or beta_new in m.inversion_set():
                continue
            nxt = group.multiply(group.simple_reflection(i), m.element)
            yield m, i, group.minuscule[ids[nxt]], beta_new


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
            f"v={word_to_text(group.reduced_word(v.element))} i={i} S={s}: {what}"
        )

    for v, i, v2, beta_new in _weak_covers(group, group.minuscule, w):
        gap2 = w.inversion_set() - v2.inversion_set()
        for s in orthogonal_subsets(group.rs, gap2):
            checks += 1
            sig_v = make_admissible_pair(group, v, s, w).sigma
            sig_v2 = make_admissible_pair(group, v2, s, w).sigma
            l_v = involution_length(group, sig_v)
            l_v2 = involution_length(group, sig_v2)
            orth = all(
                group.rs.pairing(beta_new.finite, a.finite) == 0 for a in s.roots
            )
            if not orth:
                if sig_v2.element != twisted_conjugate(group, i, sig_v).element:
                    fail(v, i, s, "twisted conjugate mismatch")
                if l_v2 != l_v - 1:
                    fail(v, i, s, "L did not drop by one")
                if not group.bruhat_leq(sig_v2.element, sig_v.element):
                    fail(v, i, s, "no Bruhat drop")
            else:
                big = make_orthogonal_set(group.rs, s.root_set() | {beta_new})
                sig_big = make_admissible_pair(group, v, big, w).sigma
                l_big = involution_length(group, sig_big)
                if sig_v2.element != sig_v.element:
                    fail(v, i, s, "involutions differ in the split case")
                if not (l_v2 == l_v == l_big - 1):
                    fail(v, i, s, "L bookkeeping failed in the split case")
                if sig_v.element != twisted_conjugate(group, i, sig_big).element:
                    fail(v, i, s, "enlarged set is not the twisted conjugate")
                if not group.bruhat_leq(sig_v.element, sig_big.element):
                    fail(v, i, s, "no Bruhat drop from the enlarged set")
    return Report("branch-recursion", checks, tuple(violations))


# -- move-generated order vs Bruhat comparison --------------------------------


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
    mins = [m for m in group.minuscule if weak_order_leq(m, w)]
    node_id: dict[tuple[AffineWeylElement, frozenset[AffineRoot]], int] = {}
    node_pairs: list[tuple[MinusculeElement, OrthogonalSet]] = []
    gap_of: dict[AffineWeylElement, frozenset[AffineRoot]] = {}
    for m in mins:
        gap = gap_of[m.element] = w.inversion_set() - m.inversion_set()
        for s in orthogonal_subsets(rs, gap):
            node_id[(m.element, s.root_set())] = len(node_pairs)
            node_pairs.append((m, s))
    n = len(node_pairs)
    uf = _UnionFind(n)
    edges: set[tuple[int, int]] = set()

    # merges along weak covers, and the degeneration edge for the split case
    for v, i, v2, beta_new in _weak_covers(group, mins, w):
        for s in orthogonal_subsets(rs, gap_of[v2.element]):
            upper = node_id[(v2.element, s.root_set())]
            if all(rs.pairing(beta_new.finite, a.finite) == 0 for a in s.roots):
                uf.union(upper, node_id[(v.element, s.root_set() | {beta_new})])
            else:
                uf.union(upper, node_id[(v.element, s.root_set())])

    # torus degenerations at every level
    for k, (m, s) in enumerate(node_pairs):
        for beta in gap_of[m.element]:
            if beta in s.root_set():
                continue
            if all(rs.pairing(beta.finite, a.finite) == 0 for a in s.roots):
                edges.add((k, node_id[(m.element, s.root_set() | {beta})]))

    # finite descent moves, recorded per (v, i) for the transport rule
    finite_moves: dict[tuple[AffineWeylElement, int], list[tuple[int, int]]] = {}
    for k, (m, s) in enumerate(node_pairs):
        if s.size == 0:
            continue
        pair = make_admissible_pair(group, m, s, w)
        for i, cls in pair_descents(group, pair).items():
            if cls.kind == "none" or cls.locus != "finite":
                continue
            moved = descent_move(group, pair, i)
            k2 = node_id[(m.element, moved.s.root_set())]
            edges.add((k2, k))
            finite_moves.setdefault((m.element, i), []).append((k, k2))

    # saturate: transitive closure plus transport through common finite descents
    classes = sorted({uf.find(k) for k in range(n)})
    cls_index = {c: j for j, c in enumerate(classes)}
    of = [cls_index[uf.find(k)] for k in range(n)]
    size = len(classes)
    reach = [1 << j for j in range(size)]
    adj = [0] * size
    for a, b in edges:
        adj[of[a]] |= 1 << of[b]

    def close() -> None:
        changed = True
        while changed:
            changed = False
            for j in range(size):
                new = reach[j] | adj[j]
                acc = new
                bits = new
                while bits:
                    low = bits & -bits
                    acc |= reach[low.bit_length() - 1]
                    bits ^= low
                if acc != reach[j]:
                    reach[j] = acc
                    changed = True

    close()
    while True:
        added = False
        for key, pairs in finite_moves.items():
            for k_s, k_s2 in pairs:
                for k_r, k_r2 in pairs:
                    if reach[of[k_r2]] >> of[k_s2] & 1 and not (
                        reach[of[k_r]] >> of[k_s] & 1
                    ):
                        adj[of[k_r]] |= 1 << of[k_s]
                        added = True
        if not added:
            break
        close()

    # compare at the identity level
    ident = group.minuscule[0]
    checks = 0
    violations = []
    subsets0 = orthogonal_subsets(rs, gap_of[ident.element])
    sigma0 = {
        s.root_set(): reflection_product(group, s).element for s in subsets0
    }
    for s1 in subsets0:
        k1 = of[node_id[(ident.element, s1.root_set())]]
        for s2 in subsets0:
            checks += 1
            k2 = of[node_id[(ident.element, s2.root_set())]]
            derived = bool(reach[k1] >> k2 & 1)
            expected = group.bruhat_leq(sigma0[s1.root_set()], sigma0[s2.root_set()])
            if derived != expected:
                violations.append(
                    f"{s1} vs {s2}: moves say {derived}, involutions say {expected}"
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
        phi[i] = group.simple_index(-group.act(w_p, group.simple_affine_root(i)))
    for i, j in phi.items():
        if phi[j] != i:
            raise AssertionError("diagram map is not an involution")
    simples = [group.simple_affine_root(i).finite for i in group.simple_indices]
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
    ideal_roots = [
        g for g in rs.positive_roots if g.coeffs[p_index - 1] == 1
    ]
    if any(g.coeffs[p_index - 1] > 1 for g in rs.positive_roots):
        raise AssertionError("mark-one root with coefficient above one")
    subsets = orthogonal_subsets(rs, [AffineRoot(g, 0) for g in ideal_roots])
    checks = 0
    violations = []
    finite_sigmas = []
    affine_sigmas = []
    for s in subsets:
        moved = transform_set(group, w_p, s)
        sig_fin = reflection_product(group, moved).element
        shifted = make_orthogonal_set(
            rs, [AffineRoot(a.finite, -1) for a in s.roots]
        )
        sig_aff = reflection_product(group, shifted).element
        checks += 1
        if phi_apply(group, phi, sig_fin) != sig_aff:
            violations.append(f"phi mismatch for S={s}")
        if group.length(sig_fin) != group.length(sig_aff):
            violations.append(f"length mismatch for S={s}")
        finite_sigmas.append(sig_fin)
        affine_sigmas.append(sig_aff)
    for a in range(len(subsets)):
        for b in range(len(subsets)):
            checks += 1
            if group.bruhat_leq(finite_sigmas[a], finite_sigmas[b]) != group.bruhat_leq(
                affine_sigmas[a], affine_sigmas[b]
            ):
                violations.append(
                    f"poset mismatch between {subsets[a]} and {subsets[b]}"
                )
    return Report("phi-equivalence", checks, tuple(violations))
