"""A minuscule element builds its inversion frozenset once, and the set is
not part of the element's value."""

from borbits.affine import AffineWeylGroup
from borbits.minuscule import MinusculeElement
from borbits.roots import build_root_system


def test_inversion_set_is_built_once():
    group = AffineWeylGroup(build_root_system("B", 3))
    for m in group.minuscule:
        first = m.inversion_set()
        assert first == frozenset(m.inversions)
        assert m.inversion_set() is first


def test_cached_set_leaves_equality_and_hash_alone():
    group = AffineWeylGroup(build_root_system("C", 3))
    m = group.minuscule[-1]
    m.inversion_set()
    copy = MinusculeElement(m.element, m.inversions, m.ideal)
    assert copy == m and hash(copy) == hash(m)
    assert repr(copy) == repr(m)
