"""Abelian ideals of the positive roots and their minuscule elements.

A combinatorial abelian ideal is a subset of the positive roots that is
upward closed in the dominance order and sum-free (the sum of two members is
never a root); it is held as the tuple of its roots in positive-index
order, the canonical order.  These sets biject with the minuscule elements
of the affine Weyl group: the elements whose inversion set, read on the
negative side, sits inside ``Phi^+ - delta``.  The ideal attached to a
minuscule element is its inversion set shifted back by delta.  There are
2^rank of them, and a walk past `MINUSCULE_CAP` is refused.

Both sides of the bijection are enumerated independently here: ideals by a
depth-first walk over upward-closed subsets with sum-freeness pruning, and
minuscule elements by a breadth-first walk over the weak order in which each
step adds exactly one inversion.  The test suite checks that the two
enumerations agree, which is the point of keeping them separate.

The walk reads each element's inversion set off its root tables as a
bitmask over the positive roots (`AffineWeylGroup.inversion_mask`) and
checks it against the root system's `ideal_masks`.  A `MinusculeElement`
is that element and that mask: its ideal is `ideal_from_mask` of the mask,
its inversions ``r - delta`` are `AffineWeylGroup.shifted_roots` of it, and
the weak order is mask inclusion; the other modules read gaps and supports
as masks over the same positive roots.  The tests keep
`inversions_from_negative` with a root-list `make_abelian_ideal` as its
oracle; the ideal walk keeps its own dominance-upper lists, so it stays an
oracle too.
"""

from __future__ import annotations

from operator import add, sub

from .affine import AffineWeylElement, AffineWeylGroup, negate
from .roots import Root, RootSystem, _Value, _bits

__all__ = [
    "MINUSCULE_CAP",
    "MinusculeElement",
    "enumerate_abelian_ideals",
    "enumerate_minuscule",
    "ideal_to_element",
    "ideal_from_mask",
    "is_minuscule",
    "minuscule_from_element",
    "normalizer_simple_roots",
    "normalizer_by_ideal_stability",
    "weak_order_leq",
]

# the most minuscule elements the walk may visit; there are 2^rank of them
MINUSCULE_CAP = 2**18


def _check_cap(rank: int) -> None:
    """Refuse a rank whose 2^rank minuscule elements exceed `MINUSCULE_CAP`."""
    if rank >= MINUSCULE_CAP.bit_length():
        raise ValueError(f"2^{rank} minuscule elements exceed the enumeration cap")


def ideal_from_mask(rs: RootSystem, mask: int) -> tuple[Root, ...]:
    """The abelian ideal {r_i : bit i of mask set}, validated against
    `rs.ideal_masks`: no member may have a dominance-upper outside the set
    or a sum partner inside it.  The members come out in index order, which
    is the canonical order."""
    members = _bits(mask)
    above, partners = rs.ideal_masks
    if any(above[i] & ~mask for i in members):
        raise ValueError("ideal is not upward closed")
    if any(partners[i] & mask for i in members):
        raise ValueError("ideal is not sum-free")
    pos = rs.positive_roots
    return tuple(pos[i] for i in members)


def enumerate_abelian_ideals(rs: RootSystem) -> list[tuple[Root, ...]]:
    """All abelian ideals as canonical root tuples, in order (size,
    lexicographic positive indices).

    The walk goes through the positive roots by decreasing height, so the
    dominance-uppers of a root are always decided first: a root may join only
    if all its uppers are in, and only if no sum with a chosen root is again
    a root.

    >>> from .roots import build_root_system, root_text
    >>> [[root_text(r) for r in I] for I in enumerate_abelian_ideals(build_root_system("A", 2))]
    [[], ['1,1'], ['0,1', '1,1'], ['1,0', '1,1']]
    """
    order = rs.positive_roots[::-1]
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
            rs.is_root(tuple(map(add, beta, g))) for g in chosen
        ):
            chosen.add(beta)
            walk(k + 1, chosen)
            chosen.remove(beta)

    walk(0, set())
    keyed = sorted((len(s), sorted(map(rs.positive_index, s))) for s in found)
    pos = rs.positive_roots
    return [tuple(pos[i] for i in indices) for _, indices in keyed]


class MinusculeElement(_Value):
    """A minuscule affine Weyl element and its inversion set as a bitmask
    over the positive roots, bit j for r_j - delta; both are the value."""

    __slots__ = ("element", "mask")

    def __init__(self, element: AffineWeylElement, mask: int):
        self.element, self.mask = element, mask

    @property
    def length(self) -> int:
        return self.mask.bit_count()


def minuscule_from_element(group: AffineWeylGroup, x: AffineWeylElement) -> MinusculeElement:
    """Wrap an element with its inversion mask, read off the tables and
    validated as an abelian ideal."""
    mask = group.inversion_mask(x)
    if mask is None:
        raise ValueError("element is not minuscule")
    ideal_from_mask(group.rs, mask)
    return MinusculeElement(x, mask)


def is_minuscule(group: AffineWeylGroup, x: AffineWeylElement) -> bool:
    """Inversion criterion: every negative root made positive lies in
    Phi^+ - delta (see `AffineWeylGroup.inversion_mask`)."""
    return group.inversion_mask(x) is not None


def enumerate_minuscule(group: AffineWeylGroup) -> list[MinusculeElement]:
    """Breadth-first walk over the weak order along
    `AffineWeylGroup.up_steps`.  Each cover
    adds exactly one inversion, so everything reached is minuscule, and every
    minuscule element is reached because removing a minimal inversion is
    again minuscule.

    The walk also sets each element's reduced word on it.  Every
    left descent i of a minuscule x leads to the minuscule s_i x one level
    down, whose up steps yield i, so the smallest i over the edges into x
    is its lowest left descent, and (i,) + word(s_i x) is the greedy word
    of `AffineWeylGroup.reduced_word`.

    A system with more than `MINUSCULE_CAP` minuscule elements is refused
    before the walk starts."""
    _check_cap(group.rank)
    group.identity._word = ()
    seen = [group.identity]
    frontier = [group.identity]
    while frontier:
        # each element of the next level, with the word along its lowest edge
        new: dict[AffineWeylElement, tuple[int, ...]] = {}
        for w in frontier:
            for i, _ in group.up_steps(w):
                nxt = group.multiply(group.simple_reflection(i), w)
                word = new.get(nxt)
                if word is None or i < word[0]:
                    new[nxt] = (i,) + w._word
        for x, word in new.items():
            x._word = word
        frontier = list(new)
        seen += frontier
    out = [minuscule_from_element(group, x) for x in seen]
    out.sort(key=lambda m: (m.length, _bits(m.mask)))
    return out


def ideal_to_element(group: AffineWeylGroup, ideal: tuple[Root, ...]) -> MinusculeElement:
    """Constructive inverse of the bijection: repeatedly pick the lowest
    dominance maximal missing inversion beta (nothing else missing lies
    above it in `ideal_masks`); its image under the current element is the
    negative of a simple root, and that reflection extends the element.
    The roots may come in any order; a set that is not an abelian ideal
    of positive roots raises ValueError."""
    target = group.shifted_mask((r, -1) for r in ideal)
    if target is None:
        raise ValueError("ideal has a member that is not a positive root")
    ideal_from_mask(group.rs, target)
    above = group.rs.ideal_masks[0]
    cur, have = group.identity, 0
    while have != target:
        missing = target & ~have
        j = next(j for j in _bits(missing) if above[j] & missing == 1 << j)
        alpha = negate(group.act(cur, group._shifted[j]))
        if not group.is_simple_affine(alpha):
            raise AssertionError("non-simple lift while building a minuscule element")
        cur = group.multiply(group.simple_reflection(group.simple_index(alpha)), cur)
        have |= 1 << j
    out = minuscule_from_element(group, cur)
    if out.mask != target:
        raise AssertionError("ideal round trip failed")
    return out


def weak_order_leq(m1: MinusculeElement, m2: MinusculeElement) -> bool:
    """Inclusion of inversion sets, as masks; on minuscule elements this
    coincides with the Bruhat order (asserted exhaustively by the test
    suite)."""
    return not m1.mask & ~m2.mask


def normalizer_simple_roots(group: AffineWeylGroup, m: MinusculeElement) -> tuple[Root, ...]:
    """Finite simple roots alpha with w(alpha) again a simple affine root;
    these generate the normalizer of the ideal."""
    simple = group.rs.simple_roots
    return tuple(simple[i - 1] for i in group.normalizer_indices(m.element))


def normalizer_by_ideal_stability(rs: RootSystem, ideal: tuple[Root, ...]) -> tuple[Root, ...]:
    """Independent criterion: alpha qualifies iff lowering any ideal member
    by alpha stays inside the ideal.  Lowering alpha itself lands in the
    Cartan part, so a simple root lying in the ideal never qualifies; a
    simple root is not a sum of two positive roots, so no lowering can land
    in a negative root space and these are the only cases."""
    members = set(ideal)
    out = []
    for alpha in map(rs.simple_root, range(1, rs.rank + 1)):
        lowered = (tuple(map(sub, gamma, alpha)) for gamma in members)
        if alpha not in members and all(down in members or not rs.is_root(down) for down in lowered):
            out.append(alpha)
    return tuple(out)
