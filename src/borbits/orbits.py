"""Orbit posets of abelian ideals: nodes, dimensions, and closure order.

For a pair of minuscule elements v <= w, the orbits are indexed by the
orthogonal subsets of the inversion gap between w and v.  Each node carries
the involution of the pair, its invariant L, and the orbit dimension
``length(v) + L``; for v equal to the identity the dimension is just L of
the support involution.  The closure order is defined computationally as
the Bruhat comparison of the attached involutions, kept as bit rows, and
the Hasse diagram is its transitive reduction.

The module also ships the verification sweeps that tie the order to its
independent justifications: the one-step branch recursion along weak-order
covers, a move-generated order built from degenerations and descent moves
that must saturate to the same relation, the confinement property (an
involution below one supported in an inversion set is itself supported
there), and the diagram involution that exchanges the finite-Weyl and
affine pictures for maximal parabolics whose simple root has mark one.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from .affine import AffineWeylElement, AffineWeylGroup, ReducedWord, affine_text, negate, word_to_text
from .involutions import (
    OrthogonalSet,
    Report,
    _contexts,
    descent_move,
    involution_length,
    make_admissible_pair,
    make_orthogonal_set,
    orthogonal_subsets,
    pair_descents,
    reflection_product,
    set_text,
    shifted_orthogonal_stream,
    transform_set,
    twisted_conjugate,
)
from .minuscule import MinusculeElement, weak_order_leq
from .roots import _Value, _bits

__all__ = [
    "OrbitNode",
    "OrbitPoset",
    "PosetContext",
    "build_orbit_poset",
    "export_poset",
    "node_row",
    "verify_strong_form",
    "verify_branch_recursion",
    "verify_moves_vs_order",
    "phi_involution",
    "phi_apply",
    "verify_phi_equivalence",
]


class OrbitNode(_Value):
    # length: coxeter length of sigma; big_l: (length + |S|) / 2;
    # dim: orbit dimension, length(v) + big_l
    __slots__ = ("s", "sigma", "sigma_word", "length", "big_l", "dim")

    def __init__(self, s: OrthogonalSet, sigma: AffineWeylElement, sigma_word: ReducedWord,
                 length: int, big_l: int, dim: int):
        self.s, self.sigma, self.sigma_word = s, sigma, sigma_word
        self.length, self.big_l, self.dim = length, big_l, dim


class PosetContext(_Value):
    __slots__ = ("type_letter", "rank", "ideal_id", "v_word")

    def __init__(self, type_letter: str, rank: int, ideal_id: int, v_word: ReducedWord):
        self.type_letter, self.rank, self.ideal_id, self.v_word = type_letter, rank, ideal_id, v_word


class OrbitPoset(_Value):
    # leq: bit j of leq[i] is set iff node i is below node j (or i == j)
    __slots__ = ("context", "nodes", "leq", "hasse")

    def __init__(self, context: PosetContext, nodes: tuple[OrbitNode, ...],
                 leq: tuple[int, ...], hasse: tuple[tuple[int, int], ...]):
        self.context, self.nodes, self.leq, self.hasse = context, nodes, leq, hasse


def build_orbit_poset(
    group: AffineWeylGroup, w: MinusculeElement, v: MinusculeElement
) -> OrbitPoset:
    """Nodes are the orthogonal subsets of the inversion gap; the order is
    Bruhat comparison of the associated involutions, inferred by length and
    transitivity (the poset suite compares it with every pair)."""
    if not weak_order_leq(v, w):
        raise ValueError("v is not below w")
    subsets = orthogonal_subsets(group.rs, group.shifted_roots(w.mask & ~v.mask))
    ell_v = v.length
    nodes = []
    for s in subsets:
        sigma = make_admissible_pair(group, v, s, w).sigma
        ell = group.length(sigma)
        big_l = involution_length(group, sigma)
        nodes.append(OrbitNode(s, sigma, group.reduced_word(sigma), ell, big_l, ell_v + big_l))
    n = len(nodes)
    if len({node.sigma for node in nodes}) != n:
        raise AssertionError("closure order is not antisymmetric")
    # Bruhat order: u < w forces length(u) < length(w), and everything below
    # u is below w.  So only strictly shorter nodes not yet known to be below
    # are compared, the longest first, and each hit brings its lower set.
    order = sorted(range(n), key=lambda k: nodes[k].length)
    lengths = [nodes[k].length for k in order]
    below = [0] * n  # bit i of below[j]: node i is strictly below node j
    for j in order:
        x, known = nodes[j].sigma, 0
        for i in reversed(order[: bisect_left(lengths, nodes[j].length)]):
            if not known >> i & 1 and group.bruhat_leq(nodes[i].sigma, x):
                known |= 1 << i | below[i]
        below[j] = known
    leq = [1 << i for i in range(n)]
    for j in range(n):
        for i in _bits(below[j]):
            leq[i] |= 1 << j
    hasse = []
    for j in range(n):
        # the covers of j: below j, and below nothing that is below j
        covers = below[j]
        for k in _bits(below[j]):
            covers &= ~below[k]
        hasse.extend((i, j) for i in _bits(covers))
    ctx = PosetContext(
        group.rs.type_letter,
        group.rank,
        group.minuscule_ids[w.element],
        group.reduced_word(v.element),
    )
    return OrbitPoset(ctx, tuple(nodes), tuple(leq), tuple(sorted(hasse)))


def node_row(node: OrbitNode) -> dict:
    """A node as the JSON outputs print it; the poset export adds its id."""
    return {
        "S": [affine_text(a) for a in node.s],
        "sigma_word": word_to_text(node.sigma_word),
        "length": node.length,
        "L": node.big_l,
        "dim": node.dim,
    }


def export_poset(poset: OrbitPoset, fmt: str) -> str:
    if fmt == "dot":
        lines = ["digraph {", "  rankdir=BT;"]
        for k, node in enumerate(poset.nodes):
            lines.append(f'  n{k} [label="{set_text(node.s)} / {node.dim}"];')
        for i, j in poset.hasse:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        import json

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
