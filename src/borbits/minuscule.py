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

The walk reads each element's inversion set off its root tables as a
bitmask over the positive roots (`AffineWeylGroup.inversion_mask`), checks
it against the root system's `ideal_masks` and builds the ideal from it;
the inversions are the group's shared ``r - delta``.  Each element keeps
that mask, and the weak order is mask inclusion; the other modules read
gaps and supports as masks over the same positive roots.  The tests keep
`inversions_from_negative` with a root-list `make_abelian_ideal` as its
oracle; the ideal walk keeps its own dominance-upper lists, so it stays an
oracle too.
"""

from __future__ import annotations

from .affine import AffineRoot, AffineWeylElement, AffineWeylGroup
from .roots import Root, RootSystem, _Value, _bits

__all__ = [
    "AbelianIdeal",
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


class AbelianIdeal(_Value):
    """An upward-closed, sum-free subset of the positive roots, canonically
    ordered."""

    __slots__ = ("roots",)

    def __init__(self, roots: tuple[Root, ...]):
        self.roots = roots

    @property
    def size(self) -> int:
        return len(self.roots)


def ideal_from_mask(rs: RootSystem, mask: int) -> AbelianIdeal:
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
    return AbelianIdeal(tuple(pos[i] for i in members))


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
    ideals.sort(key=lambda I: (I.size, tuple(rs.positive_index(r) for r in I.roots)))
    return ideals


class MinusculeElement(_Value):
    """A minuscule affine Weyl element with its inversion set and ideal.
    `minuscule_from_element` also keeps the inversion set as a bitmask over
    the positive roots, in the private slot ``_mask``, which stays out of
    the value."""

    __slots__ = ("element", "inversions", "ideal", "_mask")

    def __init__(
        self, element: AffineWeylElement, inversions: tuple[AffineRoot, ...], ideal: AbelianIdeal
    ):
        self.element, self.inversions, self.ideal = element, inversions, ideal

    @property
    def length(self) -> int:
        return len(self.inversions)


def minuscule_from_element(group: AffineWeylGroup, x: AffineWeylElement) -> MinusculeElement:
    """Wrap an element: its inversion mask, read off the tables, validated
    as an abelian ideal and kept.  The inversions are the group's shared
    r - delta."""
    mask = group.inversion_mask(x)
    if mask is None:
        raise ValueError("element is not minuscule")
    m = MinusculeElement(x, group.shifted_roots(mask), ideal_from_mask(group.rs, mask))
    m._mask = mask
    return m


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

    The walk also stores each element's reduced word in the group.  Every
    left descent i of a minuscule x leads to the minuscule s_i x one level
    down, whose up steps yield i, so the smallest i over the edges into x
    is its lowest left descent, and (i,) + word(s_i x) is the greedy word
    of `AffineWeylGroup.reduced_word`."""
    words = group._words
    words[group.identity] = ()
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
                    new[nxt] = (i,) + words[w]
        words.update(new)
        frontier = list(new)
        seen += frontier
    out = [minuscule_from_element(group, x) for x in seen]
    # root indices order the positive roots as positive indices do
    index = group._index
    out.sort(key=lambda m: (m.length, tuple([index[r.coeffs] for r in m.ideal.roots])))
    return out


def ideal_to_element(group: AffineWeylGroup, ideal: AbelianIdeal) -> MinusculeElement:
    """Constructive inverse of the bijection: repeatedly pick the lowest
    dominance maximal missing inversion beta (nothing else missing lies
    above it in `ideal_masks`); its image under the current element is the
    negative of a simple root, and that reflection extends the element."""
    above = group.rs.ideal_masks[0]
    target = sum(1 << group.rs.positive_index(r) for r in ideal.roots)
    cur, have = group.identity, 0
    while have != target:
        missing = target & ~have
        j = next(j for j in _bits(missing) if above[j] & missing == 1 << j)
        alpha = -group.act(cur, group._shifted[j])
        if not group.is_simple_affine(alpha):
            raise AssertionError("non-simple lift while building a minuscule element")
        cur = group.multiply(group.simple_reflection(group.simple_index(alpha)), cur)
        have |= 1 << j
    out = minuscule_from_element(group, cur)
    if out.ideal != ideal:
        raise AssertionError("ideal round trip failed")
    return out


def weak_order_leq(m1: MinusculeElement, m2: MinusculeElement) -> bool:
    """Inclusion of inversion sets, as masks; on minuscule elements this
    coincides with the Bruhat order (asserted exhaustively by the test
    suite)."""
    return not m1._mask & ~m2._mask


def normalizer_simple_roots(group: AffineWeylGroup, m: MinusculeElement) -> tuple[Root, ...]:
    """Finite simple roots alpha with w(alpha) again a simple affine root;
    these generate the normalizer of the ideal."""
    simple = group.rs.simple_roots
    return tuple(simple[i - 1] for i in group.normalizer_indices(m.element))


def normalizer_by_ideal_stability(rs: RootSystem, ideal: AbelianIdeal) -> tuple[Root, ...]:
    """Independent criterion: alpha qualifies iff lowering any ideal member
    by alpha stays inside the ideal.  Lowering alpha itself lands in the
    Cartan part, so a simple root lying in the ideal never qualifies; a
    simple root is not a sum of two positive roots, so no lowering can land
    in a negative root space and these are the only cases."""
    members = set(ideal.roots)
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
