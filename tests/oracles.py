"""Brute-force oracles that the package's fast paths are tested against.

Nothing in the package calls these.  They are the slow, direct forms of
what the package computes another way:

* ``bruhat_lower_interval_oracle`` and ``bruhat_leq_oracle`` search the
  subwords of one fixed reduced word (the subword property), against the
  walk down the greedy word of ``AffineWeylGroup.bruhat_leq``;
* ``orthogonal_subsets_oracle`` backtracks over a pairing matrix built
  with ``RootSystem.pairing``, against the clique extension on
  orthogonality masks of ``involutions.orthogonal_subsets``;
* ``make_abelian_ideal`` validates a list of roots through
  ``minuscule.ideal_from_mask``, against the minuscule walk, which builds
  each ideal straight from its inversion mask;
* ``symmetrizers_oracle`` walks the Dynkin graph of the Cartan matrix,
  against ``RootSystem.symmetrizers``, the squared norms of the Bourbaki
  simple-root vectors over their gcd;
* ``epsilon_to_root_oracle`` solves for the simple-root coefficients of an
  epsilon vector in exact rationals, against the lookup of
  ``RootSystem.epsilon_to_root``;
* ``rank_id_minus_oracle`` eliminates the rows of id - x on the simple
  roots plus delta (``int_matrix_rank``), against the trace formula of
  ``involutions.rank_id_minus``.
"""

from fractions import Fraction
from math import gcd

from borbits.affine import affine_key
from borbits.minuscule import ideal_from_mask
from borbits.roots import root_text


def bruhat_lower_interval_oracle(group, w):
    """Everything below w for the Bruhat order, by brute force over the
    subwords of one fixed reduced word of w.  Guarded to length <= 20."""
    word = group.reduced_word(w)
    if len(word) > 20:
        raise ValueError("the subword oracle is capped at length 20")
    reachable = {group.identity}
    for i in word:
        s = group.simple_reflection(i)
        reachable |= {group.multiply(x, s) for x in reachable}
    return frozenset(reachable)


def bruhat_leq_oracle(group, u, w):
    """Subword-property brute force: u <= w iff some subword of one fixed
    reduced word of w evaluates to u."""
    return u in bruhat_lower_interval_oracle(group, w)


def orthogonal_subsets_oracle(rs, roots):
    """All pairwise orthogonal subsets, by clique backtracking on the
    pairing matrix, in canonical order (size, then lexicographic positions
    in the sorted pool)."""
    pool = sorted(set(roots), key=affine_key)
    ortho = [[rs.pairing(g, h) == 0 for h, _ in pool] for g, _ in pool]
    out = []

    def extend(start, chosen):
        out.append(tuple(chosen))
        for j in range(start, len(pool)):
            if all(ortho[i][j] for i in chosen):
                chosen.append(j)
                extend(j + 1, chosen)
                chosen.pop()

    extend(0, [])
    out.sort(key=lambda idxs: (len(idxs), idxs))
    return [tuple(pool[i] for i in idxs) for idxs in out]


def make_abelian_ideal(rs, roots):
    """Validate and canonically order an abelian ideal given as roots."""
    mask = 0
    for r in set(roots):
        i = rs._pos_index.get(r)
        if i is None:
            raise ValueError(f"{root_text(r)} is not a positive root")
        mask |= 1 << i
    return ideal_from_mask(rs, mask)


def symmetrizers_oracle(cartan):
    """Minimal positive integers d with d_i C_ij = d_j C_ji (the matrix is
    irreducible, so a breadth-first walk over the Dynkin graph fixes all
    ratios).  Reaching j from i sets d_j = d_i * -C_ij and scales every
    earlier value by -C_ji, so all stay integers."""
    rank = len(cartan)
    d = [0] * rank
    d[0] = 1
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and not d[j]:
                dj = d[i] * -cartan[i][j]
                d = [x * -cartan[j][i] for x in d]
                d[j] = dj
                queue.append(j)
    if not all(d):
        raise AssertionError("Dynkin diagram is not connected")
    g = gcd(*d)
    return tuple(x // g for x in d)


def epsilon_to_root_oracle(rs, target):
    """The root with epsilon coordinates target, by Gauss-Jordan elimination
    in exact rationals on the simple-root vectors; ValueError when target is
    off the root lattice or not a root."""
    eps = rs._eps
    dim = len(eps[0])
    rows = [
        [Fraction(eps[i][p], 2) for i in range(rs.rank)] + [Fraction(target[p])]
        for p in range(dim)
    ]
    pivots = []
    r = 0
    for col in range(rs.rank):
        piv = next((k for k in range(r, dim) if rows[k][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for k in range(dim):
            if k != r and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
    sol = [Fraction(0)] * rs.rank
    for k, col in enumerate(pivots):
        sol[col] = rows[k][-1]
    for k in range(r, dim):
        if rows[k][-1] != 0:
            raise ValueError("epsilon vector is not in the root lattice")
    if any(x.denominator != 1 for x in sol):
        raise ValueError("epsilon vector is not in the root lattice")
    return rs.root(tuple(int(x) for x in sol))


def int_matrix_rank(rows):
    """The rank of an integer matrix, by fraction-free Gauss-Jordan
    elimination."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((k for k in range(rank, len(m)) if m[k][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for k in range(len(m)):
            if k != rank and m[k][col] != 0:
                a, b = m[rank][col], m[k][col]
                m[k] = [x * a - y * b for x, y in zip(m[k], m[rank])]
        rank += 1
    return rank


def rank_id_minus_oracle(group, x):
    """Rank of id - x on the affine root lattice (simple roots plus delta),
    for any element x.  Every element fixes delta, so only the simple-root
    rows alpha_j - x(alpha_j), with x(alpha_j) = w(alpha_j) - drop * delta,
    can contribute."""
    rows = []
    for j in range(group.rank):
        g, level = group.act(x, group.simple_affine_root(j + 1))
        rows.append([(1 if i == j else 0) - g[i] for i in range(group.rank)] + [-level])
    return int_matrix_rank(rows)
