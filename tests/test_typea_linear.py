"""The type-A oracle applies each Borel generator as a permutation of the
points, built from its images of the slot basis.  The old path, whole-matrix
conjugation of every point, is kept here as the oracle it must agree with."""

from itertools import product

import pytest

import borbits.typea as typea
from borbits.orbits import _UnionFind
from borbits.typea import (
    enumerate_orbits,
    ideal_positions,
    make_context,
    oracle_report,
)

GRID = [(n, q) for n in (2, 3) for q in (2, 3, 5, 7)] + [(4, 2), (4, 3)]


def _mat_mul(a, b, n, q):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q for j in range(n))
        for i in range(n)
    )


def _conjugate_points(ctx):
    """Partition by conjugating every point with every generator as a whole
    n x n matrix, checking that each image stays in the ideal."""
    n, q = ctx.n, ctx.q
    vectors = list(product(range(q), repeat=len(ctx.positions)))
    index = {v: k for k, v in enumerate(vectors)}
    support = {(i - 1, j - 1) for i, j in ctx.positions}
    uf = _UnionFind(len(vectors))
    for vec in vectors:
        x = [[0] * n for _ in range(n)]
        for (i, j), val in zip(ctx.positions, vec):
            x[i - 1][j - 1] = val
        for g, gi in typea._borel_generators(n, q):
            y = _mat_mul(_mat_mul(g, x, n, q), gi, n, q)
            for a in range(n):
                for b in range(n):
                    if (a, b) not in support and y[a][b]:
                        raise AssertionError("conjugation left the ideal")
            image = tuple(y[i - 1][j - 1] for i, j in ctx.positions)
            uf.union(index[vec], index[image])
    grouped = {}
    for vec in vectors:
        grouped.setdefault(uf.find(index[vec]), []).append(vec)
    classes = tuple(
        tuple(sorted(cls)) for cls in sorted(grouped.values(), key=min)
    )
    return classes, tuple(len(c) for c in classes), tuple(c[0] for c in classes)


@pytest.mark.parametrize("n,q", GRID)
def test_partition_matches_whole_matrix_conjugation(n, q):
    for ideal_id in range(2 ** (n - 1)):
        ctx = make_context(n, q, ideal_positions(n, ideal_id))
        part = enumerate_orbits(ctx)
        expected = _conjugate_points(ctx)
        assert (part.classes, part.sizes, part.representatives) == expected, (
            n,
            q,
            ideal_id,
        )


def test_lower_triangular_generator_leaves_the_ideal(monkeypatch):
    real = typea._borel_generators

    def with_lower(n, q):
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        g = [row[:] for row in ident]
        gi = [row[:] for row in ident]
        g[n - 1][0], gi[n - 1][0] = 1, q - 1
        return real(n, q) + [(g, gi)]

    monkeypatch.setattr(typea, "_borel_generators", with_lower)
    ctx = make_context(3, 3, ideal_positions(3, 1))
    with pytest.raises(AssertionError, match="conjugation left the ideal"):
        _conjugate_points(ctx)
    with pytest.raises(AssertionError, match="conjugation left the ideal"):
        enumerate_orbits(ctx)


def test_oracle_report_partitions_each_prime_once(monkeypatch):
    calls = 0

    def counted(ctx):
        nonlocal calls
        calls += 1
        return enumerate_orbits(ctx)

    monkeypatch.setattr(typea, "enumerate_orbits", counted)
    oracle_report(4, 4, (2, 3, 5))
    assert calls == 3
