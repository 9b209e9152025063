"""The affine Weyl group acting on real affine roots, with exact arithmetic.

A real affine root ``gamma + n*delta`` is the pair ``(gamma, n)`` of a finite
root, the tuple of its simple-root coefficients, and an integer level;
`affine_text` prints it and `affine_key` orders it.  An affine Weyl group
element is written ``x = t_lambda * w`` with ``w`` a finite Weyl element and
``lambda`` an integer vector over the simple coroots, and acts by

    x(gamma + n*delta) = w(gamma) + (n - <w(gamma), lambda>) * delta.

The group indexes the finite roots once.  Every element it makes carries
two tables over those indices: ``perm[i]``, the index of ``w(gamma_i)``, and
``shift[i] = <w(gamma_i), lambda>``, the level drop.  Acting is two lookups,
multiplying composes the tables, inverting inverts the permutation, descents
are lookups, and the length is the Iwahori-Matsumoto closed count

    l(x) = sum over gamma in Phi of [d >= lo] * (d - lo + [w(gamma) < 0]),

with ``d = shift[gamma]`` and ``lo`` = 0 for gamma > 0 and 1 otherwise: the
affine roots ``gamma + n*delta``, ``n >= lo``, that x sends below zero.
The inversion set is read off the same way: the negative roots
``gamma + n*delta`` that x makes positive have their levels in the interval
``shift[gamma] + [w(gamma) < 0] <= n < [gamma < 0]``, and the pull-back
x^{-1}(a_i) of a simple root is read from the tables without inverting x.
For a minuscule x every such root is some ``r - delta`` with r > 0, so its
inversion set is a bitmask over the positive roots, read in one pass
(`inversion_mask`); `inversions_from_negative` lists the roots themselves
and stays as the oracle.  Past the minuscule walk that bitmask, bit j for
``r_j - delta``, is the one form of a subset of ``Phi^+ - delta``: inversion
sets, the gaps between them and the orthogonal supports inside a gap
(`shifted_mask`, `shifted_roots`).
An element is just its two tables, and they are faithful: ``perm`` fixes w,
which acts faithfully on the roots, and ``shift`` fixes ``lambda``, whose
pairings with the roots it lists.  Equality and hashing see the tables, and
words are derived views.  Left descents and left products s_i x act on one
more table, ``d[g] = 2*shift'[g] + [perm'[g] < 0]`` on the tables of x^{-1}:
greedy descent stripping gives each element's reduced word, and a Bruhat
comparison u <= w is one pass down w's greedy word, the lifting recursion
without its branches, carrying only that table of u.  Lengths and
comparisons have independent brute-force counterparts, which live in the
tests as oracles: a scan over a window of levels acting root by root, and
subword search.  An element keeps its length, reduced word and support
mask once they are asked for; the words of minuscule elements come from
the minuscule walk, which sets them, and the others are stripped on
demand.
The alcove containment test reads integer wall values at the alcove
vertices off the tables; there are no tolerances anywhere.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import add, itemgetter, mul, neg, or_
from typing import TYPE_CHECKING, Iterable, Iterator

from .roots import Root, RootSystem, _bits, root_text

if TYPE_CHECKING:
    from .involutions import OrthogonalSet, _PairFacts
    from .minuscule import MinusculeElement

__all__ = [
    "AffineRoot",
    "AffineWeylElement",
    "AffineWeylGroup",
    "ReducedWord",
    "affine_key",
    "affine_text",
    "is_positive",
    "negate",
    "word_to_text",
    "text_to_word",
]

# a (reduced) word is a sequence of simple reflection indices, 0 = s_{delta-theta}
ReducedWord = tuple[int, ...]
# a real affine root gamma + n*delta is the pair (gamma, n)
AffineRoot = tuple[Root, int]


def word_to_text(word: ReducedWord) -> str:
    return " ".join(str(i) for i in word)


def text_to_word(text: str) -> ReducedWord:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split())


def affine_key(a: AffineRoot) -> tuple:
    """The canonical order of affine roots: by level, then height, then finite root."""
    finite, level = a
    return (level, sum(finite), finite)


def is_positive(a: AffineRoot) -> bool:
    """gamma + n*delta > 0 iff n > 0, or n = 0 and gamma > 0."""
    finite, level = a
    return level > 0 if level else max(finite) > 0


def negate(a: AffineRoot) -> AffineRoot:
    """-(gamma + n*delta) = -gamma - n*delta."""
    finite, level = a
    return (tuple(map(neg, finite)), -level)


def affine_text(a: AffineRoot) -> str:
    """``finite + level*delta`` as the outputs print it, e.g. ``1,0-1d``."""
    finite, level = a
    if level == 0:
        return root_text(finite)
    return f"{root_text(finite)}{'+' if level > 0 else '-'}{abs(level)}d"


class AffineWeylElement:
    """``t_lambda * w`` as the root tables of the group that made it:
    ``perm[i]`` is the index of ``w(gamma_i)`` and ``shift[i]`` is
    ``<w(gamma_i), lambda>`` (see the module docstring).  Elements are
    immutable values, equal exactly when their tables are.  The hash, the
    length, the reduced word and the support (the letters of that word, as
    a bitmask) are cached on the element the first time they are asked
    for; they stay out of equality, hashing and repr."""

    __slots__ = ("perm", "shift", "_hash", "_length", "_word", "_support")

    def __init__(self, perm: tuple[int, ...], shift: tuple[int, ...]):
        self.perm = perm
        self.shift = shift
        self._hash = self._length = self._word = self._support = None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, AffineWeylElement):
            return NotImplemented
        return self.perm == other.perm and self.shift == other.shift

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.perm, self.shift))
        return h

    def __repr__(self) -> str:
        return f"AffineWeylElement(perm={self.perm!r}, shift={self.shift!r})"


class AffineWeylGroup:
    """Operations of the affine Weyl group of a finite root system.

    The group object owns everything derived from its root system, and all
    of it is freed with the group:

    * the root index, the tables of the simple reflections and the shared
      r - delta of each positive root;
    * the reflection cache;
    * the involution of each orthogonal set (``reflection_product``),
      computed and checked once;
    * ``minuscule``, the minuscule elements in canonical order (position k
      is ideal id k), enumerated on first use, ``minuscule_ids``, the map
      from each of their elements to its ideal id, and
      ``minuscule_pull_backs``, each one's v^{-1}(a_i) for every simple i;
    * the orthogonal subsets of each gap mask, walked once, each set held
      once however many gaps hold it (``gap_subsets``);
    * the admissible pair table: keyed on the integers (ideal id of v, mask
      of S), what a pair (v, S, w) owes to (v, S) alone, without its
      witness w: v(S) and its involution, the descent kind of each simple
      index and the target of each descent move, computed once for all
      the witnesses of (v, S) (``involutions._PairFacts``).

    It keeps no Bruhat answers: ``bruhat_leq`` is a walk, and the poset
    suite, the one caller that asks the same pairs again, memoizes it for
    its own run.  The walk keeps one thing between calls, the left table of
    the last u it was given (``_last_left``), since callers compare one u
    with a whole row.  It keeps no per-element results either: each
    element caches its own length, reduced word and support mask, so they
    go with the element.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.rank = rs.rank
        # Root index i is the position in rs.roots, which is sorted by height:
        # the negative roots come first, the positive ones from _pos_start on.
        self._roots: tuple[Root, ...] = rs.roots
        self._index = {g: i for i, g in enumerate(rs.roots)}
        self._negative = tuple(int(min(g) < 0) for g in rs.roots)
        self._negation = tuple(self._index[tuple(map(neg, g))] for g in rs.roots)
        self._coroots = tuple(rs.coroot_coords(g) for g in rs.roots)
        self._pos_start = len(rs.roots) - len(rs.positive_roots)
        if rs.roots[self._pos_start:] != rs.positive_roots:
            raise AssertionError("positive roots are not the tail of the root order")
        self._affine_simple = ((tuple(map(neg, rs.highest_root)), 1),) + tuple((g, 0) for g in rs.simple_roots)
        # r_j - delta for each positive root r_j, shared by every inversion
        # set of a minuscule element
        self._shifted = tuple((g, -1) for g in rs.positive_roots)
        self._shifted_bit = {a: 1 << j for j, a in enumerate(self._shifted)}
        # (root index, level) of the affine simple roots a_0 = delta - theta, a_i = alpha_i
        self._simple_at = tuple((self._index[g], level) for g, level in self._affine_simple)
        self._simple_index = {at: i for i, at in enumerate(self._simple_at)}
        # the root index g_j of each alpha_j, and per j the alpha_j coefficient
        # of every root: _coefficients[j][perm[g_j]] is the alpha_j coefficient
        # of w(alpha_j), a diagonal entry of w on the simple roots
        self._simple_roots_at = tuple(g for g, _ in self._simple_at[1:])
        self._coefficients = tuple(tuple(g[j] for g in rs.roots) for j in range(self.rank))
        # (root index, level) of the walls alpha_1..alpha_r and 2*delta - theta
        # of the doubled alcove, for alcove_image_check
        self._walls = self._simple_at[1:] + ((self._simple_at[0][0], 2),)
        n = len(rs.roots)
        # the shift table of every finite element the group builds (the
        # identity and each reflection at level 0), shared so that `multiply`
        # sees by identity that such a factor adds nothing to the shifts
        self._zero = (0,) * n
        self.identity = AffineWeylElement(tuple(range(n)), self._zero)
        self._simple = [self._reflection_at(g, level) for g, level in self._simple_at]
        # For the tables of _left_table: per simple index, (root index, twice
        # the level) of a_i, and the step from the table of x to that of s_i x,
        # which permutes by s_i and adds twice its level drops (s_0 only).
        self._descent_at = tuple((g, 2 * level) for g, level in self._simple_at)

        def left_step(s: AffineWeylElement):
            take = itemgetter(*s.perm)
            drops = tuple(2 * q for q in s.shift)
            return (lambda d: tuple(map(add, take(d), drops))) if any(drops) else take

        self._left_steps = tuple(map(left_step, self._simple))
        # (u, u's left table) of the last bruhat_leq call, see _left_of
        self._last_left: tuple[AffineWeylElement | None, list[int] | None] = (None, None)
        self._reflections: dict[AffineRoot, AffineWeylElement] = {}
        # filled by the involutions module: sigma by orthogonal set, the
        # orthogonal subsets by gap mask with one copy of each subset of
        # Phi^+ - delta, and the admissible pair table
        self._sigmas: dict[OrthogonalSet, AffineWeylElement] = {}
        self._gaps: dict[int, list[OrthogonalSet]] = {}
        self._sets: dict[OrthogonalSet, OrthogonalSet] = {}
        self._pairs: dict[tuple[int, int], _PairFacts] = {}

    # -- root tables ---------------------------------------------------------

    def _root_index(self, coeffs: tuple[int, ...]) -> int:
        i = self._index.get(coeffs)
        if i is None:
            raise ValueError(f"{root_text(coeffs)} is not a root")
        return i

    def _reflection_at(self, g: int, level: int) -> AffineWeylElement:
        """s_a for a = gamma + level*delta, gamma the root of index g, which is
        t_{-level * gamma^vee} s_gamma.  Root by root, s_gamma(beta) = beta -
        <beta, gamma^vee> gamma, and the level drops by
        <s_gamma(beta), -level * gamma^vee> = level * <beta, gamma^vee>."""
        rank = self.rank
        cart = self.rs.cartan
        gamma = self._roots[g]
        cov = self._coroots[g]
        # <alpha_j, gamma^vee> for every simple root alpha_j
        pair = tuple(sum(cov[k] * cart[k][j] for k in range(rank)) for j in range(rank))
        index = self._index
        perm = []
        shift = []
        for beta in self._roots:
            p = sum(map(mul, beta, pair))
            perm.append(index[tuple([b - p * c for b, c in zip(beta, gamma)])])
            shift.append(level * p)
        return AffineWeylElement(tuple(perm), tuple(shift) if level else self._zero)

    def _left_table(self, x: AffineWeylElement) -> list[int]:
        """d[g] = 2*shift'[g] + [perm'[g] < 0] on the tables (perm', shift')
        of x^{-1}, which sends gamma_{perm[j]} to gamma_j with level drop
        -shift[j].  So x^{-1}(a_i) < 0 iff 2*level_i < d[g_i], with
        a_i = gamma_{g_i} + level_i*delta.  As (s_i x)^{-1} = x^{-1} s_i, the
        table of s_i x is d permuted by s_i's permutation plus twice s_i's
        level drops.  Only the identity has d[g] = [gamma_g < 0] everywhere:
        its finite part keeps every root's sign, and its lambda pairs to zero
        with every root."""
        perm, shift = x.perm, x.shift
        negative = self._negative
        d = [0] * len(perm)
        for j, g in enumerate(perm):
            d[g] = negative[j] - 2 * shift[j]
        return d

    def _left_of(self, u: AffineWeylElement) -> list[int]:
        """`_left_table` of u, kept for the last u asked for: a caller that
        compares one u with a whole row builds it once.  The entry is keyed
        on the object u, whose tables never change, and nothing modifies the
        table: each step of a walk makes a new one."""
        last, d = self._last_left
        if last is not u:
            d = self._left_table(u)
            self._last_left = (u, d)
        return d

    def _table_descents(self, d) -> Iterator[int]:
        """The left descents of the element with left table d, lowest first."""
        return (i for i, (g, two_level) in enumerate(self._descent_at) if d[g] > two_level)

    # -- basic elements ----------------------------------------------------

    def simple_affine_root(self, i: int) -> AffineRoot:
        return self._affine_simple[i]

    @property
    def simple_indices(self) -> range:
        return range(self.rank + 1)

    def simple_reflection(self, i: int) -> AffineWeylElement:
        if not 0 <= i <= self.rank:
            raise ValueError(f"simple reflection index {i} out of range")
        return self._simple[i]

    def reflection(self, a: AffineRoot) -> AffineWeylElement:
        """The reflection s_a, as t_{-n * gamma^vee} s_gamma for a = gamma + n*delta."""
        cached = self._reflections.get(a)
        if cached is None:
            finite, level = a
            cached = self._reflections[a] = self._reflection_at(self._root_index(finite), level)
        return cached

    def simple_index(self, a: AffineRoot) -> int:
        """The index i with a = a_i, 0 for the affine node."""
        finite, level = a
        i = self._simple_index.get((self._index.get(finite), level))
        if i is None:
            raise ValueError(f"{affine_text(a)} is not a simple affine root")
        return i

    def is_simple_affine(self, a: AffineRoot) -> bool:
        finite, level = a
        return (self._index.get(finite), level) in self._simple_index

    # -- group operations ----------------------------------------------------

    def act(self, x: AffineWeylElement, a: AffineRoot) -> AffineRoot:
        finite, level = a
        i = self._root_index(finite)
        return self._roots[x.perm[i]], level - x.shift[i]

    def pull_back(self, x: AffineWeylElement, i: int) -> AffineRoot:
        """x^{-1}(a_i), read off the root tables of x without inverting it.
        x maps gamma_j + n*delta to gamma_{perm[j]} + (n - shift[j])*delta, so
        perm[j] is the root of a_i and the level is level_i + shift[j]."""
        perm, shift = x.perm, x.shift
        g, level = self._simple_at[i]
        j = perm.index(g)
        return self._roots[j], level + shift[j]

    def up_steps(self, x: AffineWeylElement) -> Iterator[tuple[int, int]]:
        """The pairs (i, k), lowest i first, where s_i x adds the inversion
        r_k - delta = -x^{-1}(a_i) of Phi^+ - delta.  Such a root has level
        -1, so s_i x is longer than x.  As in `pull_back`,
        x^{-1}(a_i) = gamma_j + (level_i + shift[j])*delta with perm[j] = g_i,
        so r_k is -gamma_j."""
        perm, shift, negative = x.perm, x.shift, self._negative
        for i, (g, level) in enumerate(self._simple_at):
            j = perm.index(g)
            if negative[j] and level + shift[j] == 1:
                yield i, self._negation[j] - self._pos_start

    def negated_position(self, a: AffineRoot) -> int | None:
        """The k with -a = r_k - delta, None if -a is not in Phi^+ - delta."""
        finite, level = a
        g = self._index[finite]
        return self._negation[g] - self._pos_start if level == 1 and self._negative[g] else None

    def normalizer_indices(self, x: AffineWeylElement) -> list[int]:
        """The finite simple indices i with x(alpha_i) again a simple affine
        root: alpha_i has index g_i and level 0, so x(alpha_i) has index
        perm[g_i] and level -shift[g_i]."""
        perm, shift, simple = x.perm, x.shift, self._simple_index
        return [
            i for i, (g, _) in enumerate(self._simple_at[1:], 1) if (perm[g], -shift[g]) in simple
        ]

    def negated_roots(self, x: AffineWeylElement) -> list[AffineRoot]:
        """The real roots a with x(a) = -a, in root order.  x sends
        gamma_g + n*delta to gamma_{perm[g]} + (n - shift[g])*delta, so that
        root is negated iff perm[g] is the index of -gamma_g and 2n = shift[g]."""
        perm, shift = x.perm, x.shift
        roots = self._roots
        return [
            (roots[g], d // 2)
            for g, (p, q, d) in enumerate(zip(perm, self._negation, shift))
            if p == q and d % 2 == 0
        ]

    def multiply(self, x: AffineWeylElement, y: AffineWeylElement) -> AffineWeylElement:
        """xy(gamma_i + n*delta) = x(gamma_{py[i]} + (n - sy[i])*delta).  The
        shifts add up unless a factor is one of the group's finite elements."""
        take = itemgetter(*y.perm)
        if x.shift is self._zero:
            shift = y.shift
        elif y.shift is self._zero:
            shift = take(x.shift)
        else:
            shift = tuple(map(add, y.shift, take(x.shift)))
        return AffineWeylElement(take(x.perm), shift)

    def inverse(self, x: AffineWeylElement) -> AffineWeylElement:
        """x^{-1} maps gamma_{perm[i]} + n*delta to gamma_i + (n + shift[i])*delta.
        Nothing in the package calls it; the name stays for the benchmark
        tracer (perfbench/tracer.py), which spans it."""
        perm, shift = x.perm, x.shift
        inv = [0] * len(perm)
        inv_shift = [0] * len(perm)
        for i, p in enumerate(perm):
            inv[p] = i
            inv_shift[p] = -shift[i]
        return AffineWeylElement(tuple(inv), tuple(inv_shift))

    def evaluate_word(self, word: ReducedWord) -> AffineWeylElement:
        out = self.identity
        for i in word:
            out = self.multiply(out, self.simple_reflection(i))
        return out

    # -- lengths, descents, words -------------------------------------------

    def descents(self, x: AffineWeylElement) -> frozenset[int]:
        """The right descents: simple indices i with x(a_i) negative.  The
        left descents of x are the right descents of its inverse."""
        perm, shift = x.perm, x.shift
        negative = self._negative
        return frozenset(
            i
            for i, (g, level) in enumerate(self._simple_at)
            if level < shift[g] or (level == shift[g] and negative[perm[g]])
        )

    def length(self, x: AffineWeylElement) -> int:
        """The closed count of the module docstring, kept on x.  Folding
        gamma with -gamma (shift and sign both flip) leaves the sum over
        gamma > 0 of |shift[gamma] + [w(gamma) < 0]|."""
        ell = x._length
        if ell is None:
            p = self._pos_start
            negative = self._negative
            ell = x._length = sum([abs(d + negative[q]) for d, q in zip(x.shift[p:], x.perm[p:])])
        return ell

    def _word(self, x: AffineWeylElement) -> ReducedWord:
        """Greedy left-descent stripping on the left table, always taking the
        smallest index; the letters evaluate left to right back to x.  Each
        element's word is stripped and checked once and kept on the element;
        the minuscule walk sets the same words on the minuscule elements as
        it reaches them."""
        word = x._word
        if word is not None:
            return word
        letters: list[int] = []
        d = self._left_table(x)
        steps = self._left_steps
        # a correct strip takes exactly l(x) steps, so a broken one stops too
        for _ in range(self.length(x)):
            i = next(self._table_descents(d), None)
            if i is None:
                break
            letters.append(i)
            d = steps[i](d)
        if tuple(d) != self._negative:
            raise AssertionError("descent stripping did not reach the identity")
        word = x._word = tuple(letters)
        return word

    # the group's own callers use _word, so replacing reduced_word on an
    # instance or wrapping it on the class reaches only outside callers
    reduced_word = _word

    def _support(self, x: AffineWeylElement) -> int:
        """The letters of x's reduced word as a bitmask, bit i for s_i, kept
        on x.  Every reduced word of x uses the same letters."""
        support = x._support
        if support is None:
            support = x._support = reduce(or_, [1 << i for i in self._word(x)], 0)
        return support

    def inversions_from_negative(self, x: AffineWeylElement) -> list[AffineRoot]:
        """{a < 0 : x(a) > 0}, in root order and then by level.  x sends
        gamma_g + n*delta to gamma_{perm[g]} + (n - shift[g])*delta, so for
        each g the levels form the interval
        shift[g] + [perm[g] < 0] <= n < [g < 0].  The tests compare it with
        a brute-force scan over a window of levels.  Nothing in the package
        calls it; the name stays for the benchmark tracer, which spans it."""
        perm, shift = x.perm, x.shift
        negative = self._negative
        roots = self._roots
        return [
            (roots[g], n)
            for g, (p, d) in enumerate(zip(perm, shift))
            for n in range(d + negative[p], negative[g])
        ]

    def inversion_mask(self, x: AffineWeylElement) -> int | None:
        """The inversion set of a minuscule x as a bitmask over the positive
        roots, bit j for r_j - delta; None if x is not minuscule.  Folding
        gamma with -gamma in the intervals above, lo = shift[g] + [perm[g] < 0]
        must be 0 or -1 for each positive gamma_g: lo > 0 inverts -gamma_g,
        lo < -1 inverts gamma_g - 2*delta, and lo = -1 inverts gamma_g - delta."""
        p = self._pos_start
        lows = list(map(add, x.shift[p:], map(self._negative.__getitem__, x.perm[p:])))
        if min(lows) < -1 or max(lows) > 0:
            return None
        return sum(1 << j for j, lo in enumerate(lows) if lo)

    def shifted_mask(self, roots: Iterable[AffineRoot]) -> int | None:
        """The bitmask of a set of roots r_j - delta, bit j; None if one of
        them is not in Phi^+ - delta."""
        try:
            return reduce(or_, map(self._shifted_bit.__getitem__, roots), 0)
        except KeyError:
            return None

    def shifted_roots(self, mask: int) -> tuple[AffineRoot, ...]:
        """The shared roots r_j - delta of the set bits j of mask, in the
        canonical order (by positive-root index)."""
        return tuple(map(self._shifted.__getitem__, _bits(mask)))

    # -- Bruhat order ---------------------------------------------------------

    def bruhat_leq(self, u: AffineWeylElement, w: AffineWeylElement) -> bool:
        """The lifting recursion: for a left descent i of w,
        u <= w iff min(u, s_i u) <= s_i w.  Taking the lowest left descent
        every time, it never branches and runs down w's greedy word, so it
        is one pass over that word carrying u's left table: u steps to s_i u
        where i is a left descent of u.  The answer is True once u is the
        identity and False once u is longer than what is left of the word;
        a descent step shortens both, so only the other steps can make it
        so.  Before any word is read, u == w is True and any other u at
        least as long as w is False (the lengths are the closed counts).
        u <= w also needs every letter of u's word in w's (the support
        masks)."""
        left, rest = self.length(u), self.length(w)
        if not left or u == w:
            return True
        if left >= rest or self._support(u) & ~self._support(w):
            return False
        d = self._left_of(u)
        at, steps = self._descent_at, self._left_steps
        for i in self._word(w):
            rest -= 1
            g, two_level = at[i]
            if d[g] > two_level:
                left -= 1
                if not left:
                    return True
                d = steps[i](d)
            elif left > rest:
                return False
        return False

    # -- per-system derived data -------------------------------------------------
    # The builders live in modules that import this one, hence the local imports.

    @cached_property
    def minuscule(self) -> tuple[MinusculeElement, ...]:
        from .minuscule import enumerate_minuscule

        return tuple(enumerate_minuscule(self))

    @cached_property
    def minuscule_ids(self) -> dict[AffineWeylElement, int]:
        return {m.element: k for k, m in enumerate(self.minuscule)}

    @cached_property
    def minuscule_pull_backs(self) -> tuple[tuple[tuple[AffineRoot, int | None], ...], ...]:
        """Per ideal id, per simple index i: beta = v^{-1}(a_i) for that
        minuscule v, with the k of -beta = r_k - delta (None if -beta is
        not in Phi^+ - delta)."""
        pulled = [[self.pull_back(m.element, i) for i in self.simple_indices] for m in self.minuscule]
        return tuple(tuple((beta, self.negated_position(beta)) for beta in betas) for betas in pulled)

    # -- alcove geometry --------------------------------------------------------

    def alcove_image_check(self, x: AffineWeylElement) -> bool:
        """True iff x^{-1} maps the closed fundamental alcove into the closed
        doubled alcove.  Checking the vertices suffices because affine maps
        send the simplex onto the convex hull of the image vertices.  A point
        p is in the doubled alcove iff every wall a (alpha_1..alpha_r and
        2*delta - theta) has a(p) >= 0, and a(x^{-1} p) = (x a)(p).  With
        x a = beta + n*delta that value is n at the vertex 0 and
        (beta_k + n*m_k) / m_k at the vertex omega_k^vee / m_k, m_k the mark
        of alpha_k in theta: integer tests on the tables of x."""
        perm, shift = x.perm, x.shift
        roots, marks = self._roots, self.rs.marks
        for g, level in self._walls:
            n = level - shift[g]
            if n < 0 or any(b + n * m < 0 for b, m in zip(roots[perm[g]], marks)):
                return False
        return True
