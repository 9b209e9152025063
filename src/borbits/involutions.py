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

Two consistency checks that are easy to get wrong are kept close to the
data: every root sent to its negative by the involution of an orthogonal
subset of an inversion set must be a half sum of two support roots, and
within an inversion set the support is recoverable from the involution.
Both are exposed as report-producing operations so negative examples can be
exercised as well.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import add, neg, sub
from typing import Iterable, Iterator, Optional

from .affine import (
    AffineRoot, AffineWeylElement, AffineWeylGroup, affine_key, affine_text, is_positive, negate,
)
from .minuscule import MinusculeElement, weak_order_leq
from .roots import RootSystem, _Value, _bits

__all__ = [
    "Report",
    "OrthogonalSet",
    "AdmissiblePair",
    "set_text",
    "make_orthogonal_set",
    "orthogonal_subsets",
    "reflection_product",
    "rank_id_minus",
    "involution_length",
    "twisted_conjugate",
    "descent_classify",
    "make_admissible_pair",
    "pair_descents",
    "descent_move",
    "negated_root_report",
    "support_injectivity_check",
]


class Report(_Value):
    """Outcome of a verification sweep: how many checks ran and which failed."""

    __slots__ = ("name", "checks", "violations")

    def __init__(self, name: str, checks: int, violations: tuple[str, ...] = ()):
        self.name, self.checks, self.violations = name, checks, violations

    @property
    def ok(self) -> bool:
        return not self.violations


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
        for s in orthogonal_subsets(group.rs, group.shifted_roots(m.mask)):
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
    roots, perm = group._roots, x.perm
    twice = group.rank - sum([roots[perm[g]][j] for j, g in group._diagonal_at])
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
    Self-inverse on involutions."""
    s = group.simple_reflection(i)
    left = group.multiply(s, sigma)
    if left == group.multiply(sigma, s):
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
    sigma, the product of the reflections in v(S), built once by
    `make_admissible_pair`, which asserts that rank(id - sigma) is |S|;
    equality and hashing stay on (v, S, witness)."""

    __slots__ = ("v", "s", "witness", "sigma")

    def __init__(self, v: MinusculeElement, s: OrthogonalSet, witness: MinusculeElement,
                 sigma: AffineWeylElement):
        self.v, self.s, self.witness, self.sigma = v, s, witness, sigma

    def _fields(self) -> tuple:
        return (self.v, self.s, self.witness)


def make_admissible_pair(
    group: AffineWeylGroup,
    v: MinusculeElement,
    s: OrthogonalSet,
    witness: MinusculeElement,
) -> AdmissiblePair:
    if not weak_order_leq(v, witness):
        raise ValueError("invalid pair: v is not below the witness")
    support = group.shifted_mask(s)
    if support is None or support & (v.mask | ~witness.mask):
        raise ValueError("invalid pair: S is not inside the inversion gap")
    sigma = reflection_product(group, transform_set(group, v.element, s))
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
    """
    found = _classify_descents(group, pair, group.simple_indices)
    return {i: cls for i, (cls, _) in found.items()}


def _classify_descents(
    group: AffineWeylGroup, pair: AdmissiblePair, indices: Iterable[int]
) -> dict[int, tuple[tuple[str, Optional[str]], AffineRoot]]:
    """The body of `pair_descents` for the given indices; each classification
    comes with its pulled-back root beta = v^{-1}(alpha_i).  The witness's
    inversions and S are read as masks: -beta is in them when its bit k is."""
    sigma = pair.sigma
    witness, support = pair.witness.mask, group.shifted_mask(pair.s)
    ortho = group.rs.orthogonal_masks
    sigma_s = None
    out: dict[int, tuple[tuple[str, Optional[str]], AffineRoot]] = {}
    for i in indices:
        kind = descent_classify(group, sigma, i)
        beta = group.pull_back(pair.v.element, i)
        k = group.negated_position(beta)
        affine = k is not None and witness >> k & 1
        if affine:
            not_orth = bool(support & ~ortho[k])
            if (kind != "none") != not_orth:
                raise AssertionError("affine descent criterion mismatch")
            if (kind == "real") != bool(support >> k & 1):
                raise AssertionError("real affine descent criterion mismatch")
        if kind == "none":
            out[i] = (("none", None), beta)
            continue
        if not is_positive(beta):
            raise AssertionError("descent pulled back to a negative root")
        finite, level = beta
        if level == 0 and sum(finite) == 1:
            if sigma_s is None:
                sigma_s = reflection_product(group, pair.s)
            if descent_classify(group, sigma_s, group.simple_index(beta)) == "none":
                raise AssertionError("finite descent does not descend the support involution")
            if (group.act(sigma_s, beta) == negate(beta)) != (kind == "real"):
                raise AssertionError("real finite descent criterion mismatch")
            out[i] = ((kind, "finite"), beta)
        elif affine:
            out[i] = ((kind, "affine"), beta)
        else:
            raise AssertionError("descent is neither finite nor affine")
    return out


def descent_move(group: AffineWeylGroup, pair: AdmissiblePair, i: int) -> AdmissiblePair:
    """Lower an admissible pair along a descent: the four cases are keyed by
    the real/complex and finite/affine classification of the descent.  The
    result is admissible for the same witness and its involution is the
    twisted conjugate of the input's; both facts are asserted.  An affine
    move takes its new v from the group's minuscule elements."""
    s_i = group.simple_reflection(i)
    (kind, locus), beta = _classify_descents(group, pair, (i,))[i]
    if kind == "none":
        raise ValueError(f"index {i} is not a descent for the pair")
    rs = group.rs
    if locus == "affine":
        k = group.minuscule_ids.get(group.multiply(s_i, pair.v.element))
        if k is None:
            raise ValueError("element is not minuscule")
        if kind == "complex":
            new_s = pair.s
        else:
            # dropping -beta from a canonical tuple keeps it canonical
            gone = negate(beta)
            new_s = tuple(a for a in pair.s if a != gone)
        result = make_admissible_pair(group, group.minuscule[k], new_s, pair.witness)
    else:
        if kind == "complex":
            gamma, _ = beta
            new_s = make_orthogonal_set(rs, [(rs.reflect(gamma, g), level) for g, level in pair.s])
        else:
            new_s = _real_finite_replacement(rs, pair.s, beta)
        result = make_admissible_pair(group, pair.v, new_s, pair.witness)
    if result.sigma != twisted_conjugate(group, i, pair.sigma):
        raise AssertionError("descent move does not match twisted conjugation")
    return result


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
