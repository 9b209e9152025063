"""A root system is its type and rank; the rest is read off the Bourbaki
simple-root vectors.

The symmetrizers are the squared norms of those vectors over their gcd, and
epsilon coordinates are turned back into roots by lookup.  The derivations
they replaced are the oracles in `oracles.py`: a walk over the Dynkin graph
for the symmetrizers and an exact rational solve for the epsilon map.  Both
must agree everywhere below, and the lookup must refuse exactly the vectors
that the solve refuses.
"""

from itertools import product

import pytest

import borbits.roots as roots
from borbits.roots import build_root_system

from oracles import epsilon_to_root_oracle, symmetrizers_oracle

SYMMETRIZER_SYSTEMS = (
    [("A", r) for r in range(1, 21)]
    + [(t, r) for t in "BC" for r in range(2, 21)]
    + [("D", r) for r in range(3, 21)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)
EPSILON_SYSTEMS = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("D", 5),
]


def test_symmetrizers_match_the_dynkin_walk():
    """Every type at every rank up to 20."""
    for letter, rank in SYMMETRIZER_SYSTEMS:
        rs = build_root_system(letter, rank)
        d, c = rs.symmetrizers, rs.cartan
        assert d == symmetrizers_oracle(c), (letter, rank)
        assert all(d[i] * c[i][j] == d[j] * c[j][i] for i in range(rank) for j in range(rank))


def _outcome(parse, rs, vec):
    try:
        return parse(rs, vec)
    except ValueError:
        return "ValueError"


def test_epsilon_lookup_matches_the_exact_solve():
    """Every integer vector in [-2, 2]^dim: the same root, or ValueError on
    both sides.  Every root has its epsilon coordinates in that box, so
    each one is found."""
    lookup = lambda rs, vec: rs.epsilon_to_root(vec)
    cases = 0
    for letter, rank in EPSILON_SYSTEMS:
        rs = build_root_system(letter, rank)
        dim = len(rs.root_to_epsilon(rs.highest_root))
        found = 0
        for vec in product(range(-2, 3), repeat=dim):
            expected = _outcome(epsilon_to_root_oracle, rs, vec)
            assert _outcome(lookup, rs, vec) == expected, (letter, rank, vec)
            found += expected != "ValueError"
            cases += 1
        assert found == len(rs.roots), (letter, rank)
    assert cases == 9175


def test_epsilon_table_is_built_on_first_use():
    rs = build_root_system("B", 3)
    assert "_root_of_epsilon" not in vars(rs)
    assert rs.epsilon_to_root("e1+e2") == rs.highest_root
    assert len(vars(rs)["_root_of_epsilon"]) == len(rs.roots)


def test_a_positive_off_diagonal_entry_is_caught(monkeypatch):
    """Sabotage: a simple-root vector with its sign flipped makes an obtuse
    pair acute, and the Cartan check refuses the system."""
    honest = roots._doubled_simple_vectors

    def flipped(letter, rank):
        vecs = honest(letter, rank)
        return vecs[:-1] + [tuple(-x for x in vecs[-1])]

    monkeypatch.setattr(roots, "_doubled_simple_vectors", flipped)
    with pytest.raises(AssertionError, match="off-diagonal"):
        build_root_system("A", 3)
