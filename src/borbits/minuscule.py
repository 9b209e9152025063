"""Abelian ideals of the positive roots and their minuscule elements.

A combinatorial abelian ideal is a subset of the positive roots that is
upward closed in the dominance order and sum-free (the sum of two members is
never a root).  These sets biject with the minuscule elements of the affine
Weyl group: the elements whose inversion set, read on the negative side,
sits inside ``Phi^+ - delta``.  The ideal attached to a minuscule element is
its inversion set shifted back by delta.

Both sides of the bijection are enumerated independently here: ideals by a
depth-first walk over upward-closed subsets with sum-freeness pruning, and
minuscule elements by a breadth-first walk over the weak order in which each
step adds exactly one inversion.  The test suite checks that the two
enumerations agree, which is the point of keeping them separate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .affine import AffineRoot, AffineWeylElement, AffineWeylGroup
from .roots import Root, RootSystem

__all__ = [
    "AbelianIdeal",
    "MinusculeElement",
    "enumerate_abelian_ideals",
    "enumerate_minuscule",
    "ideal_to_element",
    "ideal_from_json_dict",
    "is_minuscule",
    "make_abelian_ideal",
    "minuscule_from_element",
    "normalizer_simple_roots",
    "normalizer_by_ideal_stability",
    "weak_order_leq",
    "is_minimal_coset_rep",
    "inversion_shift",
    "up_steps",
]


@dataclass(frozen=True)
class AbelianIdeal:
    """An upward-closed, sum-free subset of the positive roots, canonically
    ordered."""

    roots: tuple[Root, ...]

    @property
    def size(self) -> int:
        return len(self.roots)

    def root_set(self) -> frozenset[Root]:
        return frozenset(self.roots)

    def to_json_dict(self) -> dict:
        return {"roots": [str(r) for r in self.roots]}


def make_abelian_ideal(rs: RootSystem, roots) -> AbelianIdeal:
    """Validate and canonically order an abelian ideal."""
    rset = set(roots)
    for r in rset:
        if not r.is_positive or not rs.is_root(r.coeffs):
            raise ValueError(f"{r} is not a positive root")
    for r in rset:
        for q in rs.positive_roots:
            if rs.dominance_leq(r, q) and q not in rset:
                raise ValueError("ideal is not upward closed")
    for a in rset:
        for b in rset:
            if rs.is_root((a + b).coeffs):
                raise ValueError("ideal is not sum-free")
    return AbelianIdeal(tuple(sorted(rset, key=lambda r: r.sort_key)))


def ideal_from_json_dict(rs: RootSystem, data: dict) -> AbelianIdeal:
    return make_abelian_ideal(rs, [rs.parse_root(t) for t in data["roots"]])


def enumerate_abelian_ideals(rs: RootSystem) -> list[AbelianIdeal]:
    """All abelian ideals, in order (size, lexicographic root indices).

    The walk goes through the positive roots by decreasing height, so the
    dominance-uppers of a root are always decided first: a root may join only
    if all its uppers are in, and only if no sum with a chosen root is again
    a root.

    >>> from .roots import build_root_system
    >>> [[str(r) for r in I.roots] for I in enumerate_abelian_ideals(build_root_system("A", 2))]
    [[], ['1,1'], ['0,1', '1,1'], ['1,0', '1,1']]
    """
    order = sorted(rs.positive_roots, key=lambda r: r.sort_key, reverse=True)
    uppers = {
        r: [q for q in rs.positive_roots if q != r and rs.dominance_leq(r, q)]
        for r in rs.positive_roots
    }
    found: list[frozenset[Root]] = []

    def walk(k: int, chosen: set[Root]) -> None:
        if k == len(order):
            found.append(frozenset(chosen))
            return
        beta = order[k]
        walk(k + 1, chosen)
        if all(u in chosen for u in uppers[beta]) and not any(
            rs.is_root((beta + g).coeffs) for g in chosen
        ):
            chosen.add(beta)
            walk(k + 1, chosen)
            chosen.remove(beta)

    walk(0, set())
    ideals = [
        AbelianIdeal(tuple(sorted(s, key=lambda r: r.sort_key))) for s in found
    ]
    ideals.sort(key=_ideal_key(rs))
    return ideals


def _ideal_key(rs: RootSystem):
    def key(ideal: AbelianIdeal):
        return (ideal.size, tuple(rs.positive_index(r) for r in ideal.roots))

    return key


@dataclass(frozen=True)
class MinusculeElement:
    """A minuscule affine Weyl element with its inversion set and ideal."""

    element: AffineWeylElement
    inversions: tuple[AffineRoot, ...]
    ideal: AbelianIdeal

    @property
    def length(self) -> int:
        return len(self.inversions)

    def inversion_set(self) -> frozenset[AffineRoot]:
        return self._inversion_set

    @cached_property
    def _inversion_set(self) -> frozenset[AffineRoot]:
        # built on first use; equality and hashing stay on `inversions`
        return frozenset(self.inversions)


def inversion_shift(rs: RootSystem, ideal: AbelianIdeal) -> tuple[AffineRoot, ...]:
    """The ideal translated to level -1, i.e. the expected inversion set."""
    return tuple(AffineRoot(r, -1) for r in ideal.roots)


def minuscule_from_element(group: AffineWeylGroup, x: AffineWeylElement) -> MinusculeElement:
    """Wrap an element, computing and validating its inversion data."""
    inv = group.inversions_from_negative(x)
    for a in inv:
        if a.level != -1 or not a.finite.is_positive:
            raise ValueError("element is not minuscule")
    inv.sort(key=lambda a: a.sort_key)
    ideal = make_abelian_ideal(group.rs, [a.finite for a in inv])
    return MinusculeElement(x, tuple(inv), ideal)


def is_minuscule(group: AffineWeylGroup, x: AffineWeylElement) -> bool:
    """Inversion criterion: every negative root made positive lies in
    Phi^+ - delta."""
    return all(
        a.level == -1 and a.finite.is_positive
        for a in group.inversions_from_negative(x)
    )


def up_steps(group: AffineWeylGroup, w: AffineWeylElement) -> Iterator[tuple[int, AffineRoot]]:
    """The pairs (i, beta) where s_i w adds the inversion
    beta = -w^{-1}(a_i) and beta lies in Phi^+ - delta.  Such a beta has
    level -1, so s_i w is longer than w."""
    for i in group.simple_indices:
        pulled = group.pull_back(w, i)
        if pulled.level == 1 and not pulled.finite.is_positive:
            yield i, -pulled


def enumerate_minuscule(group: AffineWeylGroup) -> list[MinusculeElement]:
    """Breadth-first walk over the weak order along `up_steps`.  Each cover
    adds exactly one inversion, so everything reached is minuscule, and every
    minuscule element is reached because removing a minimal inversion is
    again minuscule."""
    rs = group.rs
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        new = []
        for w in frontier:
            for i, _ in up_steps(group, w):
                nxt = group.multiply(group.simple_reflection(i), w)
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    out = [minuscule_from_element(group, x) for x in seen]
    out.sort(
        key=lambda m: (
            m.length,
            tuple(rs.positive_index(a.finite) for a in m.inversions),
        )
    )
    return out


def ideal_to_element(group: AffineWeylGroup, ideal: AbelianIdeal) -> MinusculeElement:
    """Constructive inverse of the bijection: repeatedly pick a dominance
    maximal missing inversion beta; its image under the current element is
    the negative of a simple root, and that reflection extends the element."""
    rs = group.rs
    target = set(inversion_shift(rs, ideal))
    cur = group.identity
    have: set[AffineRoot] = set()
    while have != target:
        missing = sorted(target - have, key=lambda a: a.sort_key)
        best = [
            a
            for a in missing
            if not any(
                b != a and rs.dominance_leq(a.finite, b.finite) for b in missing
            )
        ]
        beta = min(best, key=lambda a: a.sort_key)
        alpha = -group.act(cur, beta)
        if not group.is_simple_affine(alpha):
            raise AssertionError("non-simple lift while building a minuscule element")
        cur = group.multiply(group.simple_reflection(group.simple_index(alpha)), cur)
        have.add(beta)
    out = minuscule_from_element(group, cur)
    if out.ideal.root_set() != ideal.root_set():
        raise AssertionError("ideal round trip failed")
    return out


def weak_order_leq(m1: MinusculeElement, m2: MinusculeElement) -> bool:
    """Inclusion of inversion sets; on minuscule elements this coincides with
    the Bruhat order (asserted exhaustively by the test suite)."""
    return m1.inversion_set() <= m2.inversion_set()


def normalizer_simple_roots(group: AffineWeylGroup, m: MinusculeElement) -> tuple[Root, ...]:
    """Finite simple roots alpha with w(alpha) again a simple affine root;
    these generate the normalizer of the ideal."""
    out = []
    for i in range(1, group.rank + 1):
        image = group.act(m.element, group.simple_affine_root(i))
        if group.is_simple_affine(image):
            out.append(group.rs.simple_root(i))
    return tuple(out)


def normalizer_by_ideal_stability(rs: RootSystem, ideal: AbelianIdeal) -> tuple[Root, ...]:
    """Independent criterion: alpha qualifies iff lowering any ideal member
    by alpha stays inside the ideal.  Lowering alpha itself lands in the
    Cartan part, so a simple root lying in the ideal never qualifies; a
    simple root is not a sum of two positive roots, so no lowering can land
    in a negative root space and these are the only cases."""
    members = ideal.root_set()
    out = []
    for i in range(1, rs.rank + 1):
        alpha = rs.simple_root(i)
        if alpha in members:
            continue
        ok = True
        for gamma in members:
            down = gamma - alpha
            if rs.is_root(down.coeffs) and Root(down.coeffs) not in members:
                ok = False
                break
        if ok:
            out.append(alpha)
    return tuple(out)


def is_minimal_coset_rep(group: AffineWeylGroup, x: AffineWeylElement) -> bool:
    """Minimal length in its coset modulo the finite Weyl group: all finite
    simple roots are kept positive, so only s_0 can be a right descent."""
    return group.descents(x) <= {0}
