"""Involutions attached to orthogonal sets of real affine roots.

An orthogonal set S of real roots determines the involution given by the
product of its (commuting) reflections.  S is held as the tuple of its roots
in `affine_key` order (the `OrthogonalSet` alias), the form that
`make_orthogonal_set` and `orthogonal_subsets` return and `set_text` prints.
This module computes those involutions, their length-like invariant
``(coxeter length + rank of id - sigma) / 2``, the twisted conjugation
``s . sigma`` by a simple reflection, the classification of descents of
admissible pairs into real/complex and finite/affine kinds, and the
four-case descent move that lowers an admissible pair along a descent.

The inversion gap of a pair and its support S lie in ``Phi^+ - delta``, so
they are read as bitmasks over the positive roots (bit j for r_j - delta),
and containment and orthogonality are bit tests against the root system's
`orthogonal_masks`.  v(S) has roots at other levels; no mask describes it.

An admissible pair (v, S, w) owes its involution, the class of each simple
index and the target of each descent move to (v, S) alone: the witness w
only certifies that S lies in the gap inv(w) - inv(v).  Those facts are
worked out once per (ideal id of v, mask of S) and kept in the group's
admissible pair table (`_PairFacts`).  What depends on w still runs for
every pair: v <= w, S inside the gap, and the affine locus test (-beta an
inversion of w) with its two orthogonality criteria; so does the rank check
of sigma against |S|.  `gap_subsets` walks the orthogonal subsets of each
gap mask once per group.  The test suite keeps the path that rebuilds every
fact pair by pair as its oracle.
"""

from __future__ import annotations

from itertools import combinations
from operator import add, getitem, neg, sub
from typing import Iterable, Iterator, Optional

from .affine import (
    AffineRoot, AffineWeylElement, AffineWeylGroup, affine_key, affine_text, is_positive, negate,
)
from .minuscule import MinusculeElement, weak_order_leq
from .roots import RootSystem, _Value, _bits

__all__ = [
    "OrthogonalSet",
    "AdmissiblePair",
    "set_text",
    "make_orthogonal_set",
    "orthogonal_subsets",
    "gap_subsets",
    "reflection_product",
    "rank_id_minus",
    "involution_length",
    "twisted_conjugate",
    "descent_classify",
    "make_admissible_pair",
    "pair_descents",
    "descent_move",
]


# pairwise orthogonal real affine roots in `affine_key` order
OrthogonalSet = tuple[AffineRoot, ...]


def set_text(s: OrthogonalSet) -> str:
    """S as the outputs print it: its roots in order, inside braces."""
    return "{" + ",".join(map(affine_text, s)) + "}"


def make_orthogonal_set(rs: RootSystem, roots: Iterable[AffineRoot]) -> OrthogonalSet:
    """S from outside input: every finite part must be a root and every
    two of them orthogonal."""
    rset = sorted(set(roots), key=affine_key)
    for a in rset:
        finite, _ = a
        if not rs.is_root(finite):
            raise ValueError(f"{affine_text(a)} is not a real affine root")
    for a, b in combinations(rset, 2):
        (g, _), (h, _) = a, b
        if rs.pairing(g, h) != 0:
            raise ValueError(f"{affine_text(a)} and {affine_text(b)} are not orthogonal")
    return tuple(rset)


def orthogonal_subsets(rs: RootSystem, roots: Iterable[AffineRoot]) -> list[OrthogonalSet]:
    """All pairwise orthogonal subsets in canonical order (size, then
    lexicographic positions in the sorted pool), one size at a time: each
    clique, in order, grows by each later root orthogonal to all of it.
    Orthogonality is read from `rs.orthogonal_masks` at the positive root of
    each finite part, into bitmasks over the pool."""
    pool = sorted(set(roots), key=affine_key)
    index, ortho = rs._pos_index, rs.orthogonal_masks
    keys = [index[g] if max(g) > 0 else index[tuple(map(neg, g))] for g, _ in pool]
    # bit q of later[p]: pool[q] comes after pool[p] and is orthogonal to it
    later = [
        sum(1 << q for q in range(p + 1, len(keys)) if ortho[k] >> keys[q] & 1) for p, k in enumerate(keys)
    ]
    out: list[OrthogonalSet] = []
    level = [((), (1 << len(pool)) - 1)]
    while level:
        out += [chosen for chosen, _ in level]
        level = [(chosen + (pool[j],), free & later[j]) for chosen, free in level for j in _bits(free)]
    return out


def gap_subsets(group: AffineWeylGroup, gap: int) -> list[OrthogonalSet]:
    """`orthogonal_subsets` of the roots r_j - delta of a gap mask, walked
    once per group: the sweeps meet the same gaps under many pairs v <= w.
    A set that several gaps hold is kept once (`_shared`)."""
    subsets = group._gaps.get(gap)
    if subsets is None:
        subsets = orthogonal_subsets(group.rs, group.shifted_roots(gap))
        subsets = group._gaps[gap] = [_shared(group, s) for s in subsets]
    return subsets


def _shared(group: AffineWeylGroup, s: OrthogonalSet) -> OrthogonalSet:
    """The group's one copy of a subset of Phi^+ - delta."""
    return group._sets.setdefault(s, s)


def reflection_product(group: AffineWeylGroup, s: OrthogonalSet) -> AffineWeylElement:
    """The product of the reflections of an orthogonal set (the order does
    not matter; the result is checked to square to the identity).  The group
    keeps each set's product, so it is built and checked once."""
    sigma = group._sigmas.get(s)
    if sigma is None:
        sigma = group._sigmas[s] = _product(group, s)
    return sigma


def _product(group: AffineWeylGroup, s: OrthogonalSet) -> AffineWeylElement:
    """`reflection_product` without the table: built and checked, not kept."""
    sigma = group.identity
    for a in s:
        sigma = group.multiply(sigma, group.reflection(a))
    if group.multiply(sigma, sigma) != group.identity:
        raise AssertionError("reflection product is not an involution")
    return sigma


def shifted_orthogonal_stream(
    group: AffineWeylGroup,
) -> Iterator[tuple[OrthogonalSet, int, AffineWeylElement]]:
    """Every orthogonal subset R of Phi^+ - delta, in `orthogonal_subsets`
    order, as (R, its mask, its involution).  The involutions are built one
    at a time and the group keeps none of them: E8 has 352,876 such subsets."""
    for r in orthogonal_subsets(group.rs, group._shifted):
        yield r, group.shifted_mask(r), _product(group, r)


def _contexts(group: AffineWeylGroup) -> dict[OrthogonalSet, list[int]]:
    """The orthogonal subsets of the inversion sets, each with the ids of the
    ideals that hold it, in order of first appearance."""
    holders: dict[OrthogonalSet, list[int]] = {}
    for k, m in enumerate(group.minuscule):
        for s in gap_subsets(group, m.mask):
            holders.setdefault(s, []).append(k)
    return holders


def rank_id_minus(group: AffineWeylGroup, x: AffineWeylElement) -> int:
    """Rank of id - x on the affine root lattice (simple roots plus delta)
    for an involution x = t_lambda w, which x must be: (r - tr w) / 2, with
    tr w the sum over j of the alpha_j coefficient of w(alpha_j).  Proof: x
    fixes delta and sends alpha_j to w(alpha_j) minus a multiple of delta,
    so its trace on that basis is tr w + 1; as x^2 = id it is diagonalizable
    with eigenvalues +-1, so that trace is also r + 1 - 2 rank(id - x).  An
    odd r - tr w shows that x is not an involution, and is refused."""
    images = map(x.perm.__getitem__, group._simple_roots_at)
    twice = group.rank - sum(map(getitem, group._coefficients, images))
    if twice % 2:
        raise AssertionError("r - tr w is odd: not an involution")
    return twice // 2


def involution_length(group: AffineWeylGroup, sigma: AffineWeylElement) -> int:
    """(coxeter length + rank of id - sigma) / 2; an integer because the two
    terms have equal parity, which is asserted on every call."""
    rk = rank_id_minus(group, sigma)
    ell = group.length(sigma)
    if (ell + rk) % 2:
        raise AssertionError("length and rank of id - sigma have different parity")
    return (ell + rk) // 2


def twisted_conjugate(group: AffineWeylGroup, i: int, sigma: AffineWeylElement) -> AffineWeylElement:
    """s_i . sigma: s_i sigma when the two commute, s_i sigma s_i otherwise.
    Self-inverse on involutions.  They commute iff sigma s_i sigma^{-1},
    the reflection in sigma(a_i), is s_i: iff sigma(a_i) = +-a_i."""
    s = group.simple_reflection(i)
    left = group.multiply(s, sigma)
    a = group.simple_affine_root(i)
    if group.act(sigma, a) in (a, negate(a)):
        return left
    return group.multiply(left, s)


def descent_classify(group: AffineWeylGroup, sigma: AffineWeylElement, i: int) -> str:
    """'none' if sigma(alpha_i) is positive, 'real' if it equals -alpha_i,
    'complex' otherwise."""
    alpha = group.simple_affine_root(i)
    image = group.act(sigma, alpha)
    if is_positive(image):
        return "none"
    if image == negate(alpha):
        return "real"
    return "complex"


class AdmissiblePair(_Value):
    """A minuscule v together with an orthogonal S inside the inversion gap
    to a witness minuscule element above v.  The pair carries its involution
    sigma, the product of the reflections in v(S), which
    `make_admissible_pair` reads from the group and ranks against |S|;
    equality and hashing stay on (v, S, witness)."""

    __slots__ = ("v", "s", "witness", "sigma")

    def __init__(self, v: MinusculeElement, s: OrthogonalSet, witness: MinusculeElement,
                 sigma: AffineWeylElement):
        self.v, self.s, self.witness, self.sigma = v, s, witness, sigma

    def _fields(self) -> tuple:
        return (self.v, self.s, self.witness)


# What each simple index is for (v, S) alone, shared by every entry: not a
# descent, a finite descent, or a descent whose locus must be affine, which
# the witness confirms pair by pair.
_NONE = ("none", None)
_FINITE = {kind: (kind, "finite") for kind in ("real", "complex")}
_OPEN = {kind: (kind, None) for kind in ("real", "complex")}
_AFFINE = {kind: (kind, "affine") for kind in ("real", "complex")}


class _PairFacts:
    """The entry of the group's admissible pair table for (ideal id of v,
    mask of S): what the pairs (v, S, w) share whatever their witness w.
    ``vs`` is v(S) and ``sigma`` its involution.  The first classification
    fills ``classes``, per simple index `_NONE`, a `_FINITE` or an `_OPEN`
    class, and ``moves``, per simple index None until a move along it is
    made and then its target: the walk's element of the new v (None for a
    finite move, which keeps v), the group's copy of the new S, and the
    target's involution, which matched the twisted conjugate of ``sigma``
    when it was stored."""

    __slots__ = ("vs", "sigma", "classes", "moves")

    def __init__(self, vs: OrthogonalSet, sigma: AffineWeylElement):
        self.vs, self.sigma = vs, sigma
        self.classes: Optional[tuple] = None
        self.moves: list[Optional[tuple[Optional[AffineWeylElement], OrthogonalSet, AffineWeylElement]]] = []


def _pair_facts(
    group: AffineWeylGroup, v: MinusculeElement, s: OrthogonalSet, support: int
) -> tuple[int, _PairFacts]:
    """The ideal id of v and the table entry of (v, S), made on first use."""
    vid = group.minuscule_ids.get(v.element)
    if vid is None:
        raise ValueError("element is not minuscule")
    facts = group._pairs.get((vid, support))
    if facts is None:
        vs = transform_set(group, v.element, s)
        facts = group._pairs[vid, support] = _PairFacts(vs, reflection_product(group, vs))
    return vid, facts


def make_admissible_pair(
    group: AffineWeylGroup,
    v: MinusculeElement,
    s: OrthogonalSet,
    witness: MinusculeElement,
) -> AdmissiblePair:
    """The pair (v, S, witness), checked: v below the witness, S inside the
    gap, and rank(id - sigma) = |S| for the group's involution of v(S)."""
    if not weak_order_leq(v, witness):
        raise ValueError("invalid pair: v is not below the witness")
    support = group.shifted_mask(s)
    if support is None or support & (v.mask | ~witness.mask):
        raise ValueError("invalid pair: S is not inside the inversion gap")
    _, facts = _pair_facts(group, v, s, support)
    sigma = reflection_product(group, facts.vs)
    if rank_id_minus(group, sigma) != len(s):
        raise AssertionError("rank of id - sigma differs from the support size")
    return AdmissiblePair(v, s, witness, sigma)


def transform_set(group: AffineWeylGroup, x: AffineWeylElement, s: OrthogonalSet) -> OrthogonalSet:
    """x(S), canonically ordered.  x preserves the pairing and is injective,
    so the images are distinct and pairwise orthogonal and are not checked
    again; `make_orthogonal_set` is for outside input."""
    return tuple(sorted((group.act(x, a) for a in s), key=affine_key))


def sigma_of_pair(group: AffineWeylGroup, pair: AdmissiblePair) -> AffineWeylElement:
    """The stored involution of the pair.  Nothing in the package calls it;
    the name stays because the benchmark tracer (perfbench/tracer.py) spans
    it and fails to install without it."""
    return pair.sigma


def pair_descents(
    group: AffineWeylGroup, pair: AdmissiblePair
) -> dict[int, tuple[str, Optional[str]]]:
    """Classify every simple index against the involution of the pair, as
    (kind, locus): kind is none, real or complex, and locus is finite or
    affine, None exactly when kind is none.

    For each descent, the pulled-back root v^{-1}(alpha) must be positive and
    lie either in the finite simple roots (finite locus) or in the negated
    inversion set of the witness (affine locus); the direct classification is
    cross-checked against the orthogonality criterion for affine descents and
    against the descent of the bare support involution for finite ones.
    Everything but the witness's part is classified once per (v, S).
    """
    support = group.shifted_mask(pair.s)
    vid, facts = _pair_facts(group, pair.v, pair.s, support)
    if pair.sigma != facts.sigma:
        raise AssertionError("the pair's involution is not that of v(S)")
    return _classify_descents(group, pair, vid, facts, support, group.simple_indices)


def _classes(group: AffineWeylGroup, vid: int, s: OrthogonalSet, facts: _PairFacts) -> tuple:
    """The witness-free classes of (v, S) per simple index, with the checks
    that need no witness: a descent pulls back to a positive root, and a
    finite descent is one of the support involution sigma_S, real exactly
    when sigma_S negates beta."""
    sigma, sigma_s = facts.sigma, None
    out = []
    for i, (beta, _) in enumerate(group.minuscule_pull_backs[vid]):
        kind = descent_classify(group, sigma, i)
        if kind == "none":
            out.append(_NONE)
            continue
        if not is_positive(beta):
            raise AssertionError("descent pulled back to a negative root")
        finite, level = beta
        if level == 0 and sum(finite) == 1:
            if sigma_s is None:
                sigma_s = reflection_product(group, s)
            if descent_classify(group, sigma_s, group.simple_index(beta)) == "none":
                raise AssertionError("finite descent does not descend the support involution")
            if (group.act(sigma_s, beta) == negate(beta)) != (kind == "real"):
                raise AssertionError("real finite descent criterion mismatch")
            out.append(_FINITE[kind])
        else:
            out.append(_OPEN[kind])
    return tuple(out)


def _classify_descents(
    group: AffineWeylGroup, pair: AdmissiblePair, vid: int, facts: _PairFacts, support: int,
    indices: Iterable[int],
) -> dict[int, tuple[str, Optional[str]]]:
    """The body of `pair_descents` for the given indices.  The table entry
    gives each index's class; the witness's part runs for every pair: -beta
    is an inversion of the witness when bit k of its mask is set, and then
    the orthogonality criteria must hold, read on the mask of S."""
    classes = facts.classes
    if classes is None:
        classes = facts.classes = _classes(group, vid, pair.s, facts)
        facts.moves = [None] * len(classes)
    pulled = group.minuscule_pull_backs[vid]
    witness, ortho = pair.witness.mask, group.rs.orthogonal_masks
    out = {}
    for i in indices:
        cls = classes[i]
        kind, locus = cls
        k = pulled[i][1]
        affine = k is not None and witness >> k & 1
        if affine:
            if (kind != "none") != bool(support & ~ortho[k]):
                raise AssertionError("affine descent criterion mismatch")
            if (kind == "real") != bool(support >> k & 1):
                raise AssertionError("real affine descent criterion mismatch")
        if kind == "none" or locus == "finite":
            out[i] = cls
        elif affine:
            out[i] = _AFFINE[kind]
        else:
            raise AssertionError("descent is neither finite nor affine")
    return out


def descent_move(group: AffineWeylGroup, pair: AdmissiblePair, i: int) -> AdmissiblePair:
    """Lower an admissible pair along a descent: the four cases are keyed by
    the real/complex and finite/affine classification of the descent.  The
    result is admissible for the same witness and its involution is the
    twisted conjugate of the input's; both facts are asserted.  An affine
    move takes its new v from the group's minuscule elements.  The target is
    worked out once per (v, S) and descent; the result is built and checked
    for every pair."""
    support = group.shifted_mask(pair.s)
    vid, facts = _pair_facts(group, pair.v, pair.s, support)
    kind, locus = _classify_descents(group, pair, vid, facts, support, (i,))[i]
    if kind == "none":
        raise ValueError(f"index {i} is not a descent for the pair")
    move = facts.moves[i]
    if move is None:
        x, new_s = _move_target(group, pair, group.minuscule_pull_backs[vid][i][0], i, kind, locus)
        new_s = _shared(group, new_s)
        conj = twisted_conjugate(group, i, facts.sigma)
    else:
        x, new_s, conj = move
    if x is None:
        new_v = pair.v
    else:
        k = group.minuscule_ids.get(x)
        if k is None:
            raise ValueError("element is not minuscule")
        new_v = group.minuscule[k]
    result = make_admissible_pair(group, new_v, new_s, pair.witness)
    if result.sigma != conj or pair.sigma != facts.sigma:
        raise AssertionError("descent move does not match twisted conjugation")
    if move is None:
        # the target's involution is the group's; the conjugate is dropped
        facts.moves[i] = (x, new_s, result.sigma)
    return result


def _move_target(
    group: AffineWeylGroup, pair: AdmissiblePair, beta: AffineRoot, i: int, kind: str, locus: str
) -> tuple[Optional[AffineWeylElement], OrthogonalSet]:
    """The new v's element (None when v stays) and the new S of a move."""
    rs = group.rs
    if locus == "affine":
        k = group.minuscule_ids.get(group.multiply(group.simple_reflection(i), pair.v.element))
        if k is None:
            raise ValueError("element is not minuscule")
        if kind == "complex":
            new_s = pair.s
        else:
            # dropping -beta from a canonical tuple keeps it canonical
            gone = negate(beta)
            new_s = tuple(a for a in pair.s if a != gone)
        return group.minuscule[k].element, new_s
    if kind == "complex":
        gamma, _ = beta
        return None, make_orthogonal_set(rs, [(rs.reflect(gamma, g), level) for g, level in pair.s])
    return None, _real_finite_replacement(rs, pair.s, beta)


def _real_finite_replacement(rs: RootSystem, s: OrthogonalSet, beta: AffineRoot) -> OrthogonalSet:
    """S with the pair gamma1 = gamma2 + 2 beta replaced by beta + gamma2.
    All decompositions must give the same replacement; anything else is
    surfaced rather than silently picked."""
    gamma, _ = beta
    twice = tuple(2 * c for c in gamma)
    # gamma is a root, so twice is nonzero and g1 != g2
    candidates = [
        (g1, g2, n) for g1, n in s for g2, n2 in s if n == n2 and tuple(map(sub, g1, g2)) == twice
    ]
    if not candidates:
        raise AssertionError("real finite descent without a half-difference pair")
    results = set()
    for g1, g2, n in candidates:
        kept = [a for a in s if a not in ((g1, n), (g2, n))]
        merged = (tuple(map(add, gamma, g2)), n)
        results.add(make_orthogonal_set(rs, kept + [merged]))
    if len(results) != 1:
        raise AssertionError("ambiguous real finite descent replacement")
    (out,) = results
    return out
