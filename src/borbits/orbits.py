"""Orbit posets of abelian ideals: nodes, dimensions, and closure order.

For a pair of minuscule elements v <= w, the orbits are indexed by the
orthogonal subsets of the inversion gap between w and v.  Each node carries
the involution of the pair, its invariant L, and the orbit dimension
``length(v) + L``; for v equal to the identity the dimension is just L of
the support involution.  The closure order is defined computationally as
the Bruhat comparison of the attached involutions, kept as bit rows, and
the Hasse diagram is its transitive reduction.

The sweeps that check the order against its independent justifications
live in `suites`; `__getattr__` serves four of their names here for the
benchmark tracer.
"""

from __future__ import annotations

from bisect import bisect_left

from .affine import AffineWeylElement, AffineWeylGroup, ReducedWord, affine_text, word_to_text
from .involutions import OrthogonalSet, involution_length, make_admissible_pair, orthogonal_subsets, set_text
from .minuscule import MinusculeElement, weak_order_leq
from .roots import _Value, _bits

__all__ = [
    "OrbitNode",
    "OrbitPoset",
    "PosetContext",
    "build_orbit_poset",
    "export_poset",
    "node_row",
]

# The benchmark tracer (perfbench/tracer.py) spans the four verify sweeps
# as orbits.verify_*; they live in `suites`, which is loaded only when one
# of them is asked for here, so the orbit commands never load it.
_FORWARDED = {"verify_branch_recursion", "verify_moves_vs_order", "verify_phi_equivalence", "verify_strong_form"}


def __getattr__(name: str):
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import suites

    return getattr(suites, name)


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
