"""Finite-field cross-check for type A orbit combinatorics.

An abelian ideal of strictly upper triangular matrices is a set of slots
(i, j) above the diagonal, upward closed for interval containment and with
no two slots chaining as (i, j), (j, k).  Over a small prime field the
Borel conjugation orbits on the ideal can be enumerated outright by walking
along the generators; conjugation factors through the adjoint group, so the
torus generators are single-slot diagonals rather than determinant-one ones.
Conjugation is linear, so each generator acts on the points of the ideal as
a permutation of their indices, built from its images of the slot basis;
each prime is partitioned once per report.

The combinatorial side predicts one orbit per orthogonal subset S of the
ideal roots, with 0/1 representative matrices, and an orbit dimension given
by the involution invariant L of the shifted set.  Rational point counts
can only be compared heuristically: class counts over F_q may exceed the
geometric orbit count when stabilizers are disconnected, so equality of
counts and the log-fit dimension estimates are reported, while the
assertions are the two unconditional facts (representatives land in
pairwise distinct classes, and the F_q class count is at least the
combinatorial one).
"""

from __future__ import annotations

import math
from itertools import product
from operator import index, mul

from .affine import AffineWeylGroup
from .involutions import involution_length, orthogonal_subsets, rank_id_minus, reflection_product
from .minuscule import enumerate_abelian_ideals
from .roots import Root, RootSystem, _Value, build_root_system, root_text

__all__ = [
    "MatrixIdealContext",
    "OrbitPartition",
    "make_context",
    "ideal_positions",
    "enumerate_orbits",
    "oracle_report",
    "ELEMENT_CAP",
]

ALLOWED_PRIMES = (2, 3, 5, 7)
ELEMENT_CAP = 10**7

Position = tuple[int, int]


class MatrixIdealContext(_Value):
    """Slots of an abelian ideal of strictly upper triangular n x n matrices
    over F_q."""

    __slots__ = ("n", "q", "positions")

    def __init__(self, n: int, q: int, positions: tuple[Position, ...]):
        self.n, self.q, self.positions = n, q, positions

    @property
    def element_count(self) -> int:
        return self.q ** len(self.positions)


def make_context(n: int, q: int, positions) -> MatrixIdealContext:
    if not 2 <= n <= 4:
        raise ValueError("n must be between 2 and 4")
    if q not in ALLOWED_PRIMES:
        raise ValueError(f"q must be one of {ALLOWED_PRIMES}")
    try:
        pos = tuple(sorted((index(i), index(j)) for i, j in positions))
    except TypeError:
        raise ValueError("slots must be pairs of integers") from None
    pset = set(pos)
    if len(pset) != len(pos):
        raise ValueError("repeated slot")
    for i, j in pos:
        if not 1 <= i < j <= n:
            raise ValueError(f"bad slot {(i, j)}")
    for i, j in pos:
        for k, l in product(range(1, n + 1), repeat=2):
            if k < l and k <= i and j <= l and (k, l) not in pset:
                raise ValueError("slots are not upward closed")
    for i, j in pos:
        for k, l in pos:
            if j == k:
                raise ValueError("slots are not sum-free")
    ctx = MatrixIdealContext(n, q, pos)
    if ctx.element_count > ELEMENT_CAP:
        raise ValueError("element count exceeds the enumeration cap")
    return ctx


def _typea_system(n: int) -> RootSystem:
    return build_root_system("A", n - 1)


def root_to_position(root: Root) -> Position:
    """The root with consecutive coordinate ones from i to j-1 sits in
    matrix slot (i, j)."""
    ones = [k for k, c in enumerate(root) if c == 1]
    if not ones or any(c not in (0, 1) for c in root):
        raise ValueError(f"{root_text(root)} is not a type A positive root")
    if ones != list(range(ones[0], ones[-1] + 1)):
        raise ValueError(f"{root_text(root)} is not an interval root")
    return (ones[0] + 1, ones[-1] + 2)


def position_to_root(rs: RootSystem, pos: Position) -> Root:
    i, j = pos
    return rs.root(tuple(1 if i - 1 <= k <= j - 2 else 0 for k in range(rs.rank)))


def ideal_positions(n: int, ideal_id: int) -> tuple[Position, ...]:
    """Slots of the ideal with the given id in the canonical enumeration of
    abelian ideals of A_{n-1}."""
    ideals = enumerate_abelian_ideals(_typea_system(n))
    if not 0 <= ideal_id < len(ideals):
        raise ValueError(f"ideal id {ideal_id} out of range (0..{len(ideals) - 1})")
    return tuple(sorted(root_to_position(r) for r in ideals[ideal_id]))


class OrbitPartition(_Value):
    """Conjugation classes of the ideal under the Borel group of SL_n(F_q)."""

    __slots__ = ("context", "classes", "sizes", "representatives")

    def __init__(self, context: MatrixIdealContext, classes: tuple[tuple[tuple[int, ...], ...], ...],
                 sizes: tuple[int, ...], representatives: tuple[tuple[int, ...], ...]):
        self.context, self.classes = context, classes
        self.sizes, self.representatives = sizes, representatives

    def class_of(self, vec: tuple[int, ...]) -> int:
        for k, cls in enumerate(self.classes):
            if vec in cls:
                return k
        raise KeyError(vec)


def _borel_generators(n: int, q: int):
    """Pairs (g, g inverse): single-slot diagonal tori and all elementary
    unipotents, every nonidentity field value.  Conjugation by the center is
    trivial, so this realizes the adjoint Borel action on the ideal; the
    determinant-one torus would be strictly smaller on rational points (for
    SL_2 it only scales by squares)."""

    def one_slot(i: int, j: int, t: int, t_inv: int):
        """The identity with slot (i, j) set to t, and the same with t_inv."""
        g, gi = ([[int(r == c) for c in range(n)] for r in range(n)] for _ in range(2))
        g[i][j], gi[i][j] = t, t_inv
        return tuple(map(tuple, g)), tuple(map(tuple, gi))

    tori = [one_slot(k, k, t, pow(t, q - 2, q)) for k in range(n) for t in range(2, q)]
    return tori + [one_slot(i, j, t, q - t) for i in range(n) for j in range(i + 1, n) for t in range(1, q)]


def _generator_perms(ctx: MatrixIdealContext) -> list[list[int]]:
    """One list per Borel generator: perm[k] is the index of the conjugate of
    point k, points indexed in `product` order.  Conjugation is linear, so a
    generator is fixed by its images of the slot basis E_p; every point stays
    in the ideal exactly when every basis image does.  The image g E_ab g^-1
    is the outer product of column a of g and row b of g^-1."""
    n, q = ctx.n, ctx.q
    slots = [(i - 1, j - 1) for i, j in ctx.positions]
    outside = [(a, b) for a in range(n) for b in range(n) if (a, b) not in slots]
    weights = [q ** e for e in reversed(range(len(slots)))]
    perms = []
    for g, gi in _borel_generators(n, q):
        columns = []
        for a, b in slots:
            column, row = [h[a] for h in g], gi[b]
            if any(column[r] * row[c] % q for r, c in outside):
                raise AssertionError("conjugation left the ideal")
            columns.append([column[r] * row[c] % q for r, c in slots])
        # images of the points in `product` order, one coordinate at a time
        images = [(0,) * len(slots)]
        for col in columns:
            images = [
                tuple((x + t * c) % q for x, c in zip(image, col))
                for image in images
                for t in range(q)
            ]
        perms.append([sum(map(mul, image, weights)) for image in images])
    return perms


def enumerate_orbits(ctx: MatrixIdealContext) -> OrbitPartition:
    """Partition all F_q points of the ideal under conjugation by the Borel
    generators, then re-check that every generator keeps each class inside
    itself."""
    if ctx.element_count > ELEMENT_CAP:
        raise ValueError("element count exceeds the enumeration cap")
    vectors = list(product(range(ctx.q), repeat=len(ctx.positions)))
    perms = _generator_perms(ctx)
    # Every generator has finite order, so its inverse is one of its powers
    # and walking forward along the generators reaches the whole class.
    # Points are in lexicographic order and a class is numbered at its least
    # point, so the classes come out ordered by their least point.
    class_of = [-1] * len(vectors)
    count = 0
    for start in range(len(vectors)):
        if class_of[start] >= 0:
            continue
        class_of[start] = count
        stack = [start]
        while stack:
            k = stack.pop()
            for perm in perms:
                image = perm[k]
                if class_of[image] < 0:
                    class_of[image] = count
                    stack.append(image)
        count += 1
    members: list[list[int]] = [[] for _ in range(count)]
    for k, c in enumerate(class_of):
        members[c].append(k)
    for perm in perms:
        for k, image in enumerate(perm):
            if class_of[image] != class_of[k]:
                raise AssertionError("orbit partition is not generator closed")
    classes = tuple(tuple(vectors[k] for k in ks) for ks in members)
    return OrbitPartition(
        ctx,
        classes,
        tuple(len(c) for c in classes),
        tuple(c[0] for c in classes),
    )


def _subset_key(positions: tuple[Position, ...]) -> str:
    return "{" + ",".join(f"({i},{j})" for i, j in sorted(positions)) + "}"


def _ideal_subsets(n: int, positions: tuple[Position, ...]):
    """Orthogonal subsets of the ideal as position tuples, with their
    combinatorial dimension L; two interval roots are orthogonal exactly
    when their index pairs are disjoint."""
    rs = _typea_system(n)
    group = AffineWeylGroup(rs)
    roots = [position_to_root(rs, p) for p in positions]
    subsets = orthogonal_subsets(rs, [(r, -1) for r in roots])
    out = []
    for s in subsets:
        pos = tuple(sorted(root_to_position(g) for g, _ in s))
        sigma = reflection_product(group, s)
        if rank_id_minus(group, sigma) != len(s):
            raise AssertionError("rank of id - sigma differs from the support size")
        out.append((pos, involution_length(group, sigma)))
    return out


def _e_s_vector(ctx: MatrixIdealContext, subset: tuple[Position, ...]) -> tuple[int, ...]:
    chosen = set(subset)
    return tuple(1 if p in chosen else 0 for p in ctx.positions)


def _estimates(partitions: dict, q_list: tuple[int, ...], subsets) -> dict:
    """The log-ratio dimension estimate of every orthogonal subset,
    round(log(size2/size1) / log(q2/q1)) over the last two primes in the
    order given, whatever their size; larger primes are less biased by the
    (q - 1) factors that orbit sizes carry at small primes, so list them
    last."""
    q1, q2 = q_list[-2:]
    out = {}
    for subset, _ in subsets:
        size1, size2 = (
            part.sizes[part.class_of(_e_s_vector(part.context, subset))]
            for part in (partitions[q1], partitions[q2])
        )
        out[_subset_key(subset)] = round(math.log(size2 / size1) / math.log(q2 / q1))
    return out


def oracle_report(n: int, ideal_id: int, q_list) -> list[dict]:
    """One flat report object per prime: class counts against the
    combinatorial orbit count, with the two hard assertions built in, plus
    the dimension estimates when at least two primes were given.  Each
    prime is partitioned once."""
    q_list = tuple(q_list)
    if len(set(q_list)) != len(q_list):
        raise ValueError("the primes in q must be distinct")
    positions = ideal_positions(n, ideal_id)
    subsets = _ideal_subsets(n, positions)
    combinatorial = len(subsets)
    partitions = {
        q: enumerate_orbits(make_context(n, q, positions)) for q in q_list
    }
    dims = _estimates(partitions, q_list, subsets) if len(q_list) >= 2 else None
    expected = {_subset_key(pos): big_l for pos, big_l in subsets}
    reports = []
    for q in q_list:
        part = partitions[q]
        rep_classes = set()
        for subset, _ in subsets:
            rep_classes.add(part.class_of(_e_s_vector(part.context, subset)))
        if len(rep_classes) != combinatorial:
            raise AssertionError("representatives are not pairwise inequivalent")
        if len(part.classes) < combinatorial:
            raise AssertionError("fewer classes than orthogonal subsets")
        reports.append(
            {
                "n": n,
                "q": q,
                "ideal": [list(p) for p in positions],
                "classes": len(part.classes),
                "combinatorial": combinatorial,
                "dims": dims,
                "expected_L": expected,
            }
        )
    return reports
