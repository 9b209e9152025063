"""A minuscule element is its group element and its inversion set as a
bitmask over the positive roots, bit j for r_j - delta.  The mask is exactly
the inversion set, it is part of the element's value, weak order is mask
inclusion, and an element built by hand from the pair works wherever the
walk's element does."""

from borbits.affine import AffineWeylGroup
from borbits.involutions import make_admissible_pair, orthogonal_subsets
from borbits.minuscule import MinusculeElement, ideal_from_mask, weak_order_leq
from borbits.orbits import build_orbit_poset
from borbits.roots import build_root_system


def test_mask_holds_the_inversion_set():
    group = AffineWeylGroup(build_root_system("B", 3))
    for m in group.minuscule:
        assert m.mask == group.inversion_mask(m.element)
        assert m.mask == group.shifted_mask(group.inversions_from_negative(m.element))
        assert [g for g, _ in group.shifted_roots(m.mask)] == list(ideal_from_mask(group.rs, m.mask))
        assert bin(m.mask).count("1") == m.length == group.length(m.element)


def test_mask_is_part_of_the_value():
    group = AffineWeylGroup(build_root_system("C", 3))
    m = group.minuscule[-1]
    twin = MinusculeElement(m.element, m.mask)
    assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
    assert f"mask={m.mask!r}" in repr(m)
    wrong = MinusculeElement(m.element, 0)
    assert wrong != m and repr(wrong) != repr(m)
    # the order reads the mask alone: a wrong one gives a wrong answer
    assert weak_order_leq(wrong, group.minuscule[0])
    assert not weak_order_leq(m, group.minuscule[0])


def test_hand_built_elements_work_everywhere():
    """For every minuscule element of B3, the element rebuilt from its two
    fields equals it, hashes equal, and gives the same weak order answers,
    orbit posets and admissible pairs."""
    group = AffineWeylGroup(build_root_system("B", 3))
    mins = group.minuscule
    built = [MinusculeElement(m.element, m.mask) for m in mins]
    for m, b in zip(mins, built):
        assert b == m and hash(b) == hash(m)
        assert [weak_order_leq(b, x) for x in built] == [weak_order_leq(m, x) for x in mins]
        assert [weak_order_leq(x, b) for x in built] == [weak_order_leq(x, m) for x in mins]
    for w, bw in zip(mins, built):
        assert build_orbit_poset(group, bw, built[0]) == build_orbit_poset(group, w, mins[0])
        for v, bv in zip(mins, built):
            if not weak_order_leq(v, w):
                continue
            for s in orthogonal_subsets(group.rs, group.shifted_roots(w.mask & ~v.mask)):
                ours, theirs = make_admissible_pair(group, bv, s, bw), make_admissible_pair(group, v, s, w)
                assert ours == theirs and ours.sigma == theirs.sigma
