"""Involutions attached to orthogonal sets of real affine roots.

An orthogonal set S of real roots determines the involution given by the
product of its (commuting) reflections.  This module computes those
involutions, their length-like invariant ``(coxeter length + rank of
id - sigma) / 2``, the twisted conjugation ``s . sigma`` by a simple
reflection, the classification of descents of admissible pairs into
real/complex and finite/affine kinds, and the four-case descent move that
lowers an admissible pair along a descent.

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

from typing import Iterable, Optional

from .affine import AffineRoot, AffineWeylElement, AffineWeylGroup
from .minuscule import MinusculeElement, weak_order_leq
from .roots import RootSystem, _Value, _bits

__all__ = [
    "Report",
    "OrthogonalSet",
    "Involution",
    "AdmissiblePair",
    "DescentClassification",
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


class OrthogonalSet(_Value):
    """A canonically ordered set of pairwise orthogonal real affine roots."""

    __slots__ = ("roots",)

    def __init__(self, roots: tuple[AffineRoot, ...]):
        self.roots = roots

    # the value methods on the one field, spelled out for speed: the group
    # keeps each set's involution in a dict keyed on the set
    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.roots == other.roots

    def __hash__(self) -> int:
        return hash((self.roots,))

    @property
    def size(self) -> int:
        return len(self.roots)

    def __str__(self) -> str:
        return "{" + ",".join(str(a) for a in self.roots) + "}"


def make_orthogonal_set(rs: RootSystem, roots: Iterable[AffineRoot]) -> OrthogonalSet:
    rset = sorted(set(roots), key=lambda a: a.sort_key)
    for i, a in enumerate(rset):
        for b in rset[i + 1 :]:
            if rs.pairing(a.finite, b.finite) != 0:
                raise ValueError(f"{a} and {b} are not orthogonal")
    return OrthogonalSet(tuple(rset))


def orthogonal_subsets(rs: RootSystem, roots: Iterable[AffineRoot]) -> list[OrthogonalSet]:
    """All pairwise orthogonal subsets in canonical order (size, then
    lexicographic positions in the sorted pool), one size at a time: each
    clique, in order, grows by each later root orthogonal to all of it.
    Orthogonality is read from `rs.orthogonal_masks` at the positive root of
    each finite part, into bitmasks over the pool."""
    pool = sorted(set(roots), key=lambda a: a.sort_key)
    index, ortho = rs._pos_index, rs.orthogonal_masks
    keys = [index[a.finite] if a.finite.is_positive else index[-a.finite] for a in pool]
    # bit q of later[p]: pool[q] comes after pool[p] and is orthogonal to it
    later = [
        sum(1 << q for q in range(p + 1, len(keys)) if ortho[k] >> keys[q] & 1) for p, k in enumerate(keys)
    ]
    out: list[OrthogonalSet] = []
    level = [((), (1 << len(pool)) - 1)]
    while level:
        out += [OrthogonalSet(chosen) for chosen, _ in level]
        level = [(chosen + (pool[j],), free & later[j]) for chosen, free in level for j in _bits(free)]
    return out


class Involution(_Value):
    """An involutive affine Weyl element, with its orthogonal support when it
    was built as a product of commuting reflections."""

    __slots__ = ("element", "support", "__weakref__")

    def __init__(self, element: AffineWeylElement, support: Optional[OrthogonalSet] = None):
        self.element, self.support = element, support


def reflection_product(group: AffineWeylGroup, s: OrthogonalSet) -> Involution:
    """The product of the reflections of an orthogonal set (the order does
    not matter; the result is checked to square to the identity).  The group
    keeps each set's product, so it is built and checked once."""
    inv = group._sigmas.get(s)
    if inv is None:
        el = group.identity
        for a in s.roots:
            el = group.multiply(el, group.reflection(a))
        if group.multiply(el, el) != group.identity:
            raise AssertionError("reflection product is not an involution")
        inv = group._sigmas[s] = Involution(el, s)
    return inv


def rank_id_minus(group: AffineWeylGroup, x: AffineWeylElement) -> int:
    """Rank of id - x on the affine root lattice (simple roots plus delta).
    The delta direction is fixed by every element, so only the simple-root
    rows can contribute: x(alpha_j) = w(alpha_j) - drop * delta.  The group
    keeps (rank, length) by element, so the elimination runs once per element."""
    entry = group._ranks.get(x)
    if entry is None:
        rows = []
        for j in range(group.rank):
            image = group.act(x, group.simple_affine_root(j + 1))
            g = image.finite.coeffs
            row = [(1 if i == j else 0) - g[i] for i in range(group.rank)]
            row.append(-image.level)
            rows.append(row)
        entry = group._ranks[x] = (_int_matrix_rank(rows), group.length(x))
    return entry[0]


def _int_matrix_rank(rows: list[list[int]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((k for k in range(rank, len(m)) if m[k][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for k in range(len(m)):
            if k != rank and m[k][col] != 0:
                a, b = m[rank][col], m[k][col]
                m[k] = [x * a - y * b for x, y in zip(m[k], m[rank])]
        rank += 1
    return rank


def involution_length(group: AffineWeylGroup, inv: Involution) -> int:
    """(coxeter length + rank of id - sigma) / 2; an integer because the two
    terms have equal parity.  When the support is known its size must agree
    with the matrix rank; both facts are asserted on every call, against the
    rank and length the group keeps."""
    rk = rank_id_minus(group, inv.element)
    ell = group._ranks[inv.element][1]
    if inv.support is not None and rk != inv.support.size:
        raise AssertionError("rank of id - sigma differs from the support size")
    if (ell + rk) % 2:
        raise AssertionError("length and rank of id - sigma have different parity")
    return (ell + rk) // 2


def twisted_conjugate(group: AffineWeylGroup, i: int, inv: Involution) -> Involution:
    """s_i . sigma: s_i sigma when the two commute, s_i sigma s_i otherwise.
    Self-inverse on involutions."""
    s = group.simple_reflection(i)
    left = group.multiply(s, inv.element)
    if left == group.multiply(inv.element, s):
        return Involution(left)
    return Involution(group.multiply(left, s))


def descent_classify(group: AffineWeylGroup, inv: Involution, i: int) -> str:
    """'none' if sigma(alpha_i) is positive, 'real' if it equals -alpha_i,
    'complex' otherwise."""
    alpha = group.simple_affine_root(i)
    image = group.act(inv.element, alpha)
    if image.is_positive:
        return "none"
    if image == -alpha:
        return "real"
    return "complex"


class AdmissiblePair(_Value):
    """A minuscule v together with an orthogonal S inside the inversion gap
    to a witness minuscule element above v.  The pair carries its involution
    sigma, the product of the reflections in v(S), built once by
    `make_admissible_pair`; equality and hashing stay on (v, S, witness)."""

    __slots__ = ("v", "s", "witness", "sigma")

    def __init__(
        self, v: MinusculeElement, s: OrthogonalSet, witness: MinusculeElement, sigma: Involution
    ):
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
    support = group.shifted_mask(s.roots)
    if support is None or support & (v._mask | ~witness._mask):
        raise ValueError("invalid pair: S is not inside the inversion gap")
    sigma = reflection_product(group, transform_set(group, v.element, s))
    return AdmissiblePair(v, s, witness, sigma)


def transform_set(group: AffineWeylGroup, x: AffineWeylElement, s: OrthogonalSet) -> OrthogonalSet:
    """x(S), canonically ordered.  x preserves the pairing and is injective,
    so the images are distinct and pairwise orthogonal and are not checked
    again; `make_orthogonal_set` is for outside input."""
    images = sorted((group.act(x, a) for a in s.roots), key=lambda a: a.sort_key)
    return OrthogonalSet(tuple(images))


def sigma_of_pair(group: AffineWeylGroup, pair: AdmissiblePair) -> Involution:
    """The stored involution of the pair.  Nothing in the package calls it;
    the name stays because the benchmark tracer (perfbench/tracer.py) spans
    it and fails to install without it."""
    return pair.sigma


class DescentClassification(_Value):
    __slots__ = ("kind", "locus")

    def __init__(self, kind: str, locus: Optional[str] = None):
        self.kind = kind    # none | real | complex
        self.locus = locus  # finite | affine, present iff kind != none


def pair_descents(group: AffineWeylGroup, pair: AdmissiblePair) -> dict[int, DescentClassification]:
    """Classify every simple index against the involution of the pair.

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
) -> dict[int, tuple[DescentClassification, AffineRoot]]:
    """The body of `pair_descents` for the given indices; each classification
    comes with its pulled-back root beta = v^{-1}(alpha_i).  The witness's
    inversions and S are read as masks: -beta is in them when its bit k is."""
    sigma = pair.sigma
    witness, support = pair.witness._mask, group.shifted_mask(pair.s.roots)
    ortho = group.rs.orthogonal_masks
    sigma_s = None
    out: dict[int, tuple[DescentClassification, AffineRoot]] = {}
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
            out[i] = (DescentClassification("none"), beta)
            continue
        if not beta.is_positive:
            raise AssertionError("descent pulled back to a negative root")
        if beta.level == 0 and beta.finite.height == 1:
            if sigma_s is None:
                sigma_s = reflection_product(group, pair.s)
            if descent_classify(group, sigma_s, group.simple_index(beta)) == "none":
                raise AssertionError("finite descent does not descend the support involution")
            if (group.act(sigma_s.element, beta) == -beta) != (kind == "real"):
                raise AssertionError("real finite descent criterion mismatch")
            out[i] = (DescentClassification(kind, "finite"), beta)
        elif affine:
            out[i] = (DescentClassification(kind, "affine"), beta)
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
    cls, beta = _classify_descents(group, pair, (i,))[i]
    if cls.kind == "none":
        raise ValueError(f"index {i} is not a descent for the pair")
    rs = group.rs
    if cls.locus == "affine":
        k = group.minuscule_ids.get(group.multiply(s_i, pair.v.element))
        if k is None:
            raise ValueError("element is not minuscule")
        if cls.kind == "complex":
            new_s = pair.s
        else:
            # dropping -beta from a canonical tuple keeps it canonical
            gone = -beta
            new_s = OrthogonalSet(tuple(a for a in pair.s.roots if a != gone))
        result = make_admissible_pair(group, group.minuscule[k], new_s, pair.witness)
    else:
        if cls.kind == "complex":
            reflected = [
                AffineRoot(rs.reflect(beta.finite, a.finite), a.level)
                for a in pair.s.roots
            ]
            new_s = make_orthogonal_set(rs, reflected)
        else:
            new_s = _real_finite_replacement(rs, pair.s, beta)
        result = make_admissible_pair(group, pair.v, new_s, pair.witness)
    if result.sigma.element != twisted_conjugate(group, i, pair.sigma).element:
        raise AssertionError("descent move does not match twisted conjugation")
    return result


def _real_finite_replacement(rs: RootSystem, s: OrthogonalSet, beta: AffineRoot) -> OrthogonalSet:
    """S with the pair gamma1 = gamma2 + 2 beta replaced by beta + gamma2.
    All decompositions must give the same replacement; anything else is
    surfaced rather than silently picked."""
    twice = tuple(2 * c for c in beta.finite.coeffs)
    candidates = [
        (g1, g2)
        for g1 in s.roots
        for g2 in s.roots
        if g1 != g2 and g1.level == g2.level and (g1.finite - g2.finite).coeffs == twice
    ]
    if not candidates:
        raise AssertionError("real finite descent without a half-difference pair")
    results = set()
    for g1, g2 in candidates:
        kept = [a for a in s.roots if a not in (g1, g2)]
        results.add(make_orthogonal_set(rs, kept + [AffineRoot(beta.finite + g2.finite, g2.level)]))
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
        support = group.shifted_mask(s.roots)
        if support is None or support & ~inside._mask:
            raise ValueError("S is not inside the inversion set of the given element")
    sigma = reflection_product(group, s)
    # each doubled root (sb*b + sbp*b') mapped to all its sign pairs (sb, sbp)
    halves: dict[tuple, set[tuple[int, int]]] = {}
    for b in s.roots:
        for bp in s.roots:
            for sb in (1, -1):
                for sbp in (1, -1):
                    fin = tuple(
                        sb * x + sbp * y
                        for x, y in zip(b.finite.coeffs, bp.finite.coeffs)
                    )
                    lev = sb * b.level + sbp * bp.level
                    halves.setdefault((fin, lev), set()).add((sb, sbp))
    checks = 0
    violations = []
    for a in group.negated_roots(sigma.element):
        checks += 1
        gamma, n = a.finite, a.level
        key = (tuple(2 * c for c in gamma.coeffs), 2 * n)
        if key not in halves:
            violations.append(f"{a} is negated but is not a half sum of support roots")
            continue
        if n == -1 and gamma.is_positive and (1, 1) not in halves[key]:
            violations.append(f"{a} is negated but not a plus-plus half sum")
        if n == 0 and (1, -1) not in halves[key]:
            violations.append(f"{a} is negated but not a plus-minus half sum")
    return Report("negated-roots-halfsum", checks, tuple(violations))


def support_injectivity_check(group: AffineWeylGroup, m: MinusculeElement) -> bool:
    """Within the inversion set of a minuscule element, the involution
    determines the orthogonal subset: no other orthogonal subset of
    Phi^+ - delta shares its involution."""
    buckets = group.shifted_orthogonal_index
    for sub in orthogonal_subsets(group.rs, m.inversions):
        el = reflection_product(group, sub).element
        mates = buckets.get(el, [])
        if len(mates) != 1 or mates[0] != sub:
            return False
    return True
