"""Root system construction against an independent string-property oracle."""

import pytest

from borbits.roots import Root, build_root_system

TEST_MATRIX = [
    ("A", 1, 1),
    ("A", 2, 3),
    ("A", 3, 6),
    ("A", 4, 10),
    ("B", 2, 4),
    ("B", 3, 9),
    ("B", 4, 16),
    ("C", 3, 9),
    ("D", 4, 12),
    ("G", 2, 6),
    ("F", 4, 24),
    ("E", 6, 36),
    ("E", 7, 63),
    ("E", 8, 120),
]


def positive_roots_by_strings(cartan):
    """Independent oracle: build the positive roots by height induction.

    beta + alpha_i is accepted as a root exactly when the alpha_i-string
    through beta descends deeper than the pairing, i.e. when
    p - <beta, alpha_i^vee> >= 1 with p the largest k such that
    beta - k alpha_i was already built.  Only the Cartan matrix is used;
    no reflections.
    """
    rank = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    known = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(rank):
                if beta == simples[i]:
                    continue
                pairing = sum(beta[j] * cartan[i][j] for j in range(rank))
                p = 0
                cur = tuple(b - (1 if j == i else 0) for j, b in enumerate(beta))
                while cur in known:
                    p += 1
                    cur = tuple(b - (1 if j == i else 0) for j, b in enumerate(cur))
                if p - pairing >= 1:
                    up = tuple(b + (1 if j == i else 0) for j, b in enumerate(beta))
                    if up not in known:
                        known.add(up)
                        new.append(up)
        frontier = new
    return known


@pytest.mark.parametrize("letter,rank,count", TEST_MATRIX)
def test_positive_root_counts_and_sets(letter, rank, count):
    rs = build_root_system(letter, rank)
    assert len(rs.positive_roots) == count
    assert len(rs.roots) == 2 * count
    oracle = positive_roots_by_strings(rs.cartan)
    assert {r.coeffs for r in rs.positive_roots} == oracle


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2), ("G", 2), ("D", 4)])
def test_sum_closure(letter, rank):
    rs = build_root_system(letter, rank)
    members = {r.coeffs for r in rs.roots}
    for b in rs.roots:
        for g in rs.roots:
            s = tuple(x + y for x, y in zip(b.coeffs, g.coeffs))
            if s in members:
                assert rs.is_root(s)


def test_a2_and_a3_highest_roots():
    a2 = build_root_system("A", 2)
    assert a2.highest_root == Root((1, 1))
    a3 = build_root_system("A", 3)
    assert a3.highest_root == Root((1, 1, 1))
    assert len(build_root_system("G", 2).roots) == 12


def test_a2_pairing_examples():
    rs = build_root_system("A", 2)
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    assert rs.pairing(a1, a1) == 2
    assert rs.pairing(a1, a2) == -1
    assert rs.pairing(rs.highest_root, a1) == 1


def test_pairing_bilinear_and_errors():
    rs = build_root_system("B", 2)
    for b in rs.roots:
        assert rs.pairing(b, b) == 2
    with pytest.raises(ValueError):
        rs.pairing(Root((3, 3)), rs.simple_root(1))


def test_reflection_examples():
    rs = build_root_system("A", 2)
    a1, a2, th = rs.simple_root(1), rs.simple_root(2), rs.highest_root
    assert rs.reflect(a1, a1) == -a1
    assert rs.reflect(a2, a1) == a1 + a2
    assert rs.reflect(a1, th) == a2


@pytest.mark.parametrize("letter,rank", [("A", 3), ("C", 3), ("G", 2)])
def test_reflection_involutive_and_permutes(letter, rank):
    rs = build_root_system(letter, rank)
    for g in rs.positive_roots:
        image = {rs.reflect(g, b).coeffs for b in rs.roots}
        assert image == {r.coeffs for r in rs.roots}
        for b in rs.roots:
            assert rs.reflect(g, rs.reflect(g, b)) == b


def test_dominance():
    rs = build_root_system("A", 2)
    a1, a2, th = rs.simple_root(1), rs.simple_root(2), rs.highest_root
    assert rs.dominance_leq(a1, th)
    assert not rs.dominance_leq(a1, a2)
    assert rs.dominance_leq(th, th)


def test_highest_root_is_dominance_maximum():
    for letter, rank, _ in TEST_MATRIX:
        rs = build_root_system(letter, rank)
        assert all(rs.dominance_leq(p, rs.highest_root) for p in rs.positive_roots)
        assert rs.marks == rs.highest_root.coeffs


def test_orthogonality_is_symmetric():
    rs = build_root_system("C", 3)
    for b in rs.roots:
        for g in rs.roots:
            assert (rs.pairing(b, g) == 0) == (rs.pairing(g, b) == 0)


def test_invalid_types():
    for letter, rank in [("H", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("B", 1), ("D", 2), ("A", 0)]:
        with pytest.raises(ValueError):
            build_root_system(letter, rank)


def test_root_text_round_trip():
    rs = build_root_system("D", 4)
    for r in rs.roots:
        assert rs.root(tuple(int(c) for c in str(r).split(","))) == r


def test_epsilon_conversion_d4():
    rs = build_root_system("D", 4)
    r = rs.epsilon_to_root("e1+e3")
    assert r == rs.root((1, 1, 1, 1))
    assert rs.root_to_epsilon(r) == (1, 0, 1, 0)
    assert rs.epsilon_to_root("e2-e4") == rs.root((0, 1, 1, 0))
    for bad in ("e1", "e5", "e0+e1", (1, 1, 0), (1, 1, 0, 0, 0)):
        with pytest.raises(ValueError):  # not a root, or not a D4 vector
            rs.epsilon_to_root(bad)
    for r in rs.roots:
        assert rs.epsilon_to_root(rs.root_to_epsilon(r)) == r


def test_epsilon_conversion_classical_only():
    rs = build_root_system("B", 3)
    assert rs.epsilon_to_root("e1") == rs.root((1, 1, 1))
    assert rs.epsilon_to_root("e1+e2") == rs.highest_root
    c3 = build_root_system("C", 3)
    assert c3.epsilon_to_root("2e1") == c3.highest_root
    a2 = build_root_system("A", 2)
    assert a2.epsilon_to_root("e1-e3") == a2.highest_root
    g2 = build_root_system("G", 2)
    with pytest.raises(ValueError):
        g2.root_to_epsilon(g2.highest_root)
    with pytest.raises(ValueError, match="classical types"):
        g2.epsilon_to_root("e1-e2")


def test_coroot_coords_integral():
    for letter, rank in [("B", 4), ("C", 3), ("G", 2), ("F", 4)]:
        rs = build_root_system(letter, rank)
        for g in rs.roots:
            cc = rs.coroot_coords(g)
            assert all(isinstance(c, int) for c in cc)
            assert sum(
                c * rs.pairing_with_simple_coroot(g.coeffs, k + 1)
                for k, c in enumerate(cc)
            ) == 2
