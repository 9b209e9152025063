import pytest

from borbits.affine import AffineWeylGroup, is_positive
from borbits.roots import build_root_system

_CACHE: dict = {}


def get_system(letter: str, rank: int):
    """Shared (RootSystem, AffineWeylGroup) pairs; the group object carries
    memoized involutions and minuscule elements, whose elements keep their
    lengths and reduced words, so sharing it across tests keeps the
    exhaustive sweeps fast.

    The group's tables and its elements' caches outlive the test that filled
    them.  A sabotage test that corrupts a memoised value must build its own
    group."""
    key = (letter, rank)
    if key not in _CACHE:
        rs = build_root_system(letter, rank)
        _CACHE[key] = (rs, AffineWeylGroup(rs))
    return _CACHE[key]


@pytest.fixture
def system():
    return get_system


def count_inversions(group, x) -> int:
    """|{a < 0 : x(a) > 0}| by brute force: act on every root of every level
    in the window -(M+1)..0, M = max|<gamma, lambda>|, which provably holds
    them all.  The oracle for `length` and `inversions_from_negative`."""
    roots = group.rs.roots
    bound = 1 + max(abs(level) for _, level in (group.act(x, (g, 0)) for g in roots))
    return sum(
        1
        for gamma in roots
        for n in range(-bound, 0 if max(gamma) > 0 else 1)
        if is_positive(group.act(x, (gamma, n)))
    )
