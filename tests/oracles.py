"""Brute-force oracles that the package's fast paths are tested against.

Nothing in the package calls these.  They are the slow, direct forms of
what the package computes another way:

* ``bruhat_lower_interval_oracle`` and ``bruhat_leq_oracle`` search the
  subwords of one fixed reduced word (the subword property), against the
  walk down the greedy word of ``AffineWeylGroup.bruhat_leq``;
* ``orthogonal_subsets_oracle`` backtracks over a pairing matrix built
  with ``RootSystem.pairing``, against the clique extension on
  orthogonality masks of ``involutions.orthogonal_subsets``.
"""

from borbits.involutions import OrthogonalSet


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
    pool = sorted(set(roots), key=lambda a: a.sort_key)
    ortho = [[rs.pairing(a.finite, b.finite) == 0 for b in pool] for a in pool]
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
    return [OrthogonalSet(tuple(pool[i] for i in idxs)) for idxs in out]
