"""A minuscule element keeps its inversion set as a bitmask over the positive
roots, bit j for r_j - delta.  The mask is exactly the inversion set, weak
order is mask inclusion, and the mask is not part of the element's value."""

from borbits.affine import AffineWeylGroup
from borbits.minuscule import MinusculeElement, weak_order_leq
from borbits.roots import build_root_system


def test_mask_holds_the_inversion_set():
    group = AffineWeylGroup(build_root_system("B", 3))
    for m in group.minuscule:
        assert m._mask == group.inversion_mask(m.element)
        assert m._mask == group.shifted_mask(m.inversions)
        assert group.shifted_roots(m._mask) == m.inversions
        assert bin(m._mask).count("1") == m.length


def test_mask_leaves_equality_and_hash_alone():
    group = AffineWeylGroup(build_root_system("C", 3))
    m = group.minuscule[-1]
    copy = MinusculeElement(m.element, m.inversions, m.ideal)
    copy._mask = 0
    assert copy == m and hash(copy) == hash(m)
    assert repr(copy) == repr(m) and "_mask" not in repr(m)
    # the order reads the mask alone: a wrong one gives a wrong answer
    assert weak_order_leq(copy, group.minuscule[0])
    assert not weak_order_leq(m, group.minuscule[0])
