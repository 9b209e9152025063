import pytest

from borbits.affine import AffineWeylGroup
from borbits.roots import build_root_system

_CACHE: dict = {}


def get_system(letter: str, rank: int):
    """Shared (RootSystem, AffineWeylGroup) pairs; the group object carries
    memoized lengths and Bruhat comparisons, so sharing it across tests
    keeps the exhaustive sweeps fast.

    The group's tables (involutions, ranks, reduced words, Bruhat answers)
    outlive the test that filled them.  A sabotage test that corrupts a
    memoised value must build its own group."""
    key = (letter, rank)
    if key not in _CACHE:
        rs = build_root_system(letter, rank)
        _CACHE[key] = (rs, AffineWeylGroup(rs))
    return _CACHE[key]


@pytest.fixture
def system():
    return get_system
