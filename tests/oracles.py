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
  ``involutions.rank_id_minus``;
* ``admissible_pair_oracle``, ``pair_descents_oracle`` and
  ``descent_move_oracle`` rebuild every fact of an admissible pair for that
  pair alone, as the package did before it kept them per (v, S) in the
  group's pair table: sigma of v(S), each index's class, each move;
  ``twisted_conjugate_oracle`` tests commutation on the two products,
  against the root test of ``involutions.twisted_conjugate``;
* ``verify_fresh_groups_oracle`` runs each suite of ``verify`` on a fresh
  group, as the command did before it ran them all on one, against
  ``cli.main``.
"""

from fractions import Fraction
from math import gcd

from borbits import SUITE_NAMES
from borbits.affine import AffineWeylGroup, affine_key, is_positive, negate
from borbits.involutions import (
    AdmissiblePair, _product, _real_finite_replacement, descent_classify, make_orthogonal_set, rank_id_minus,
    transform_set,
)
from borbits.minuscule import ideal_from_mask, weak_order_leq
from borbits.roots import build_root_system, root_text
from borbits.suites import run_suite


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


def admissible_pair_oracle(group, v, s, witness):
    """The pair with its sigma built from v(S) for this pair alone."""
    if not weak_order_leq(v, witness):
        raise ValueError("invalid pair: v is not below the witness")
    support = group.shifted_mask(s)
    if support is None or support & (v.mask | ~witness.mask):
        raise ValueError("invalid pair: S is not inside the inversion gap")
    sigma = _product(group, transform_set(group, v.element, s))
    if rank_id_minus(group, sigma) != len(s):
        raise AssertionError("rank of id - sigma differs from the support size")
    return AdmissiblePair(v, s, witness, sigma)


def _classified(group, pair, i):
    """(kind, locus) of index i against the pair's own sigma, with beta."""
    witness, support = pair.witness.mask, group.shifted_mask(pair.s)
    ortho = group.rs.orthogonal_masks
    kind = descent_classify(group, pair.sigma, i)
    beta = group.pull_back(pair.v.element, i)
    k = group.negated_position(beta)
    affine = k is not None and witness >> k & 1
    if affine:
        if (kind != "none") != bool(support & ~ortho[k]):
            raise AssertionError("affine descent criterion mismatch")
        if (kind == "real") != bool(support >> k & 1):
            raise AssertionError("real affine descent criterion mismatch")
    if kind == "none":
        return ("none", None), beta
    if not is_positive(beta):
        raise AssertionError("descent pulled back to a negative root")
    finite, level = beta
    if level == 0 and sum(finite) == 1:
        sigma_s = _product(group, pair.s)
        if descent_classify(group, sigma_s, group.simple_index(beta)) == "none":
            raise AssertionError("finite descent does not descend the support involution")
        if (group.act(sigma_s, beta) == negate(beta)) != (kind == "real"):
            raise AssertionError("real finite descent criterion mismatch")
        return (kind, "finite"), beta
    if affine:
        return (kind, "affine"), beta
    raise AssertionError("descent is neither finite nor affine")


def pair_descents_oracle(group, pair):
    """Every index classified against the pair's own sigma and witness."""
    return {i: _classified(group, pair, i)[0] for i in group.simple_indices}


def descent_move_oracle(group, pair, i):
    """The move of the pair along descent i, its target built from scratch."""
    (kind, locus), beta = _classified(group, pair, i)
    if kind == "none":
        raise ValueError(f"index {i} is not a descent for the pair")
    rs = group.rs
    if locus == "affine":
        k = group.minuscule_ids.get(group.multiply(group.simple_reflection(i), pair.v.element))
        if k is None:
            raise ValueError("element is not minuscule")
        new_s = pair.s if kind == "complex" else tuple(a for a in pair.s if a != negate(beta))
        result = admissible_pair_oracle(group, group.minuscule[k], new_s, pair.witness)
    else:
        if kind == "complex":
            gamma, _ = beta
            new_s = make_orthogonal_set(rs, [(rs.reflect(gamma, g), level) for g, level in pair.s])
        else:
            new_s = _real_finite_replacement(rs, pair.s, beta)
        result = admissible_pair_oracle(group, pair.v, new_s, pair.witness)
    if result.sigma != twisted_conjugate_oracle(group, i, pair.sigma):
        raise AssertionError("descent move does not match twisted conjugation")
    return result


def twisted_conjugate_oracle(group, i, sigma):
    """s_i sigma if it equals sigma s_i, else s_i sigma s_i: the commutation
    tested on the products, against the root test of `twisted_conjugate`."""
    s = group.simple_reflection(i)
    left = group.multiply(s, sigma)
    return left if left == group.multiply(sigma, s) else group.multiply(left, s)


def verify_fresh_groups_oracle(letter, rank, suite):
    """What `verify --type letter --rank rank --suite suite` prints and
    returns, with every suite run on a fresh group, so that nothing one
    suite stored reaches the next: (stdout, exit code)."""
    rs = build_root_system(letter, rank)
    lines, failed = [], False
    for name in SUITE_NAMES if suite == "all" else (suite,):
        reports = run_suite(AffineWeylGroup(rs), name)
        ok = all(r.ok for r in reports)
        failed = failed or not ok
        lines += [f"  {r.name}: {v}" for r in reports for v in r.violations[:20]]
        lines.append(f"SUITE {name}: {'pass' if ok else 'FAIL'} ({sum(r.checks for r in reports)} checks)")
    return "".join(line + "\n" for line in lines), int(failed)
