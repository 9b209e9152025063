"""The value classes keep the value semantics of the frozen dataclasses they
replaced: the same fields, equality, hash and repr.

`MinusculeElement` (an element and its inversion mask), `Report`,
`AdmissiblePair`, `OrbitNode`, `PosetContext`, `OrbitPoset`,
`MatrixIdealContext` and `OrbitPartition` are `__slots__` classes whose
slots are their fields; a root is the plain tuple of its coefficients, an
affine root the pair (finite root, level) and an orthogonal set a plain
tuple of affine roots.  A frozen
dataclass compares its fields as a tuple when the classes match, hashes that
tuple and prints ``Name(field=value, ...)``; the references below are such
dataclasses with the same fields, and every instance is checked against its
reference.  The hash matters beyond equality: it fixes the iteration order
of sets of roots.
"""

from dataclasses import field, make_dataclass

import pytest

from borbits.involutions import (
    AdmissiblePair,
    orthogonal_subsets,
    pair_descents,
    rank_id_minus,
    reflection_product,
)
from borbits.minuscule import MinusculeElement
from borbits.orbits import build_orbit_poset
from borbits.roots import build_root_system
from borbits.suites import Report, _admissible_sweep
from borbits.typea import enumerate_orbits, ideal_positions, make_context

from conftest import get_system

SYSTEMS = [("A", 3), ("B", 3), ("G", 2)]


def _reference(value, names, blind=()):
    """A frozen dataclass with the class name and fields of value; the
    fields in blind are left out of equality and hashing."""
    specs = [(n, object, field(compare=False)) if n in blind else n for n in names]
    cls = make_dataclass(type(value).__name__, specs, frozen=True)
    return cls(*(getattr(value, n) for n in names))


def _check(value, names, blind=()):
    ref = _reference(value, names, blind)
    assert repr(value) == repr(ref)
    assert hash(value) == hash(ref)
    twin = type(value)(*(getattr(value, n) for n in names))
    assert twin == value and hash(twin) == hash(value)
    assert twin is not value
    assert value != ref  # another class never compares equal
    assert value.__slots__[: len(names)] == tuple(names)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("letter,rank", SYSTEMS)
def test_values_match_their_dataclass_references(letter, rank):
    rs, group = get_system(letter, rank)
    assert all(type(r) is tuple for r in rs.roots)
    for m in group.minuscule:
        _check(m, ["element", "mask"])
        assert m.__slots__ == ("element", "mask")
        inversions = group.shifted_roots(m.mask)
        assert all(type(a) is tuple and len(a) == 2 for a in inversions)
        assert all(type(s) is tuple for s in orthogonal_subsets(rs, inversions))
    for pair in _admissible_sweep(group):
        _check(pair, ["v", "s", "witness", "sigma"], blind=("sigma",))
        for kind, locus in pair_descents(group, pair).values():
            assert (locus is None) == (kind == "none")
    poset = build_orbit_poset(group, group.minuscule[-1], group.minuscule[0])
    _check(poset, ["context", "nodes", "leq", "hasse"])
    _check(poset.context, ["type_letter", "rank", "ideal_id", "v_word"])
    for node in poset.nodes:
        _check(node, ["s", "sigma", "sigma_word", "length", "big_l", "dim"])


def test_reports_and_typea_values_match_their_dataclass_references():
    _check(Report("poset", 3, ("a", "b")), ["name", "checks", "violations", "failures"])
    _check(Report("phi", 0), ["name", "checks", "violations", "failures"])
    for q in (2, 3):
        ctx = make_context(4, q, ideal_positions(4, 5))
        _check(ctx, ["n", "q", "positions"])
        _check(enumerate_orbits(ctx), ["context", "classes", "sizes", "representatives"])


def test_admissible_pairs_ignore_sigma():
    """Equality and hashing stay on (v, S, witness); the repr prints sigma."""
    _, group = get_system("B", 3)
    pairs = list(_admissible_sweep(group))
    pair = pairs[-1]
    other = next(p for p in pairs if p.sigma != pair.sigma)
    swapped = AdmissiblePair(pair.v, pair.s, pair.witness, other.sigma)
    assert swapped == pair and hash(swapped) == hash(pair)
    assert repr(swapped) != repr(pair) and repr(other.sigma) in repr(swapped)
    changed = next(p.s for p in pairs if p.s != pair.s)
    assert AdmissiblePair(pair.v, changed, pair.witness, pair.sigma) != pair


def test_equality_reads_every_field():
    rs, group = get_system("A", 3)
    a, b = rs.simple_root(1), rs.simple_root(2)
    assert (a, b) == ((1, 0, 0), (0, 1, 0))
    m, n = group.minuscule[1], group.minuscule[2]
    assert MinusculeElement(m.element, n.mask) != m
    assert MinusculeElement(n.element, m.mask) != m


def test_caches_stay_out_of_the_value():
    rs, group = get_system("B", 3)
    m = group.minuscule[-1]
    # a minuscule element keeps nothing beside its two fields, so one built
    # by hand from them is the walk's element
    fresh = MinusculeElement(m.element, m.mask)
    assert fresh == m and hash(fresh) == hash(m) and repr(fresh) == repr(m)
    # the only caches left on a value are an affine element's hash, length,
    # reduced word and support mask: a copy of the walk's element with none
    # of them taken equals it, hashes like it and prints like it
    hash(m.element)
    group.length(m.element)
    group.reduced_word(m.element)
    group.bruhat_leq(group.simple_reflection(0), m.element)
    element = type(m.element)(m.element.perm, m.element.shift)
    cached = ("_hash", "_length", "_word", "_support")
    assert all(getattr(m.element, name) is not None for name in cached)
    assert all(getattr(element, name) is None for name in cached)
    assert element == m.element and hash(element) == hash(m.element) and repr(element) == repr(m.element)
    assert MinusculeElement(element, m.mask) == m
    # an involution also keeps the rank of id - sigma once it is asked for
    s = next(s for s in orthogonal_subsets(rs, group.shifted_roots(m.mask)) if s)
    sigma = reflection_product(group, s)
    rank = rank_id_minus(group, sigma)
    copy = type(sigma)(sigma.perm, sigma.shift)
    assert sigma._rank == rank == len(s) and copy._rank is None
    assert copy == sigma and hash(copy) == hash(sigma) and repr(copy) == repr(sigma)


def test_cartan_datum_still_validates():
    """A root system is its type and rank; the Cartan matrix is read off the
    Bourbaki simple-root vectors, never passed in."""
    assert build_root_system("A", 2).cartan == ((2, -1), (-1, 2))
    with pytest.raises(ValueError, match="unknown type letter"):
        build_root_system("H", 2)
    with pytest.raises(ValueError, match="does not admit rank 9"):
        build_root_system("E", 9)


def test_simple_roots_are_built_once():
    """`simple_roots` and `simple_root(i)` hand out the system's own positive
    roots: the unit vectors, the same objects on every call."""
    for letter, rank in [("A", 1), ("A", 5), ("C", 4), ("D", 5), ("E", 8), ("F", 4), ("G", 2)]:
        rs, _ = get_system(letter, rank)
        assert list(rs.simple_roots) == [
            tuple(int(j == i) for j in range(rank)) for i in range(rank)
        ]
        for i, r in enumerate(rs.simple_roots, 1):
            assert rs.simple_root(i) is r is rs.simple_root(i)
            assert rs.positive_roots[rs.positive_index(r)] is r
        assert rs.simple_roots is rs.simple_roots
