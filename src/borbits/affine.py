"""The affine Weyl group acting on real affine roots, with exact arithmetic.

A real affine root ``gamma + n*delta`` is a finite root plus an integer
level.  An affine Weyl group element is written ``x = t_lambda * w`` with
``w`` a finite Weyl element and ``lambda`` an integer vector over the simple
coroots, and acts by

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
subword search.  Reduced words of minuscule elements come from the
minuscule walk, which stores them here; the others are stripped on demand.
The alcove containment test reads integer wall values at the alcove
vertices off the tables; there are no tolerances anywhere.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, itemgetter, mul
from typing import TYPE_CHECKING, Iterable, Iterator

from .roots import Root, RootSystem, _Value, _bits

if TYPE_CHECKING:
    from .involutions import Involution, OrthogonalSet
    from .minuscule import MinusculeElement

__all__ = [
    "AffineRoot",
    "AffineWeylElement",
    "AffineWeylGroup",
    "ReducedWord",
    "word_to_text",
    "text_to_word",
]

# a (reduced) word is a sequence of simple reflection indices, 0 = s_{delta-theta}
ReducedWord = tuple[int, ...]


def word_to_text(word: ReducedWord) -> str:
    return " ".join(str(i) for i in word)


def text_to_word(text: str) -> ReducedWord:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split())


class AffineRoot(_Value):
    """A real affine root ``finite + level * delta``."""

    __slots__ = ("finite", "level")

    def __init__(self, finite: Root, level: int):
        if not any(finite.coeffs):
            raise ValueError("affine roots must have a nonzero finite part")
        self.finite, self.level = finite, level

    # the value methods spelled out for speed
    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.level == other.level and self.finite == other.finite

    def __hash__(self) -> int:
        return hash((self.finite, self.level))

    @property
    def is_positive(self) -> bool:
        if self.level != 0:
            return self.level > 0
        return self.finite.is_positive

    @property
    def sort_key(self) -> tuple:
        return (self.level, self.finite.sort_key)

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(-self.finite, -self.level)

    def __str__(self) -> str:
        if self.level == 0:
            return str(self.finite)
        sign = "+" if self.level > 0 else "-"
        return f"{self.finite}{sign}{abs(self.level)}d"


class AffineWeylElement:
    """``t_lambda * w`` as the root tables of the group that made it:
    ``perm[i]`` is the index of ``w(gamma_i)`` and ``shift[i]`` is
    ``<w(gamma_i), lambda>`` (see the module docstring).  Elements are
    immutable values, equal exactly when their tables are."""

    __slots__ = ("perm", "shift", "_hash")

    def __init__(self, perm: tuple[int, ...], shift: tuple[int, ...]):
        self.perm = perm
        self.shift = shift
        self._hash = None

    def __eq__(self, other) -> bool:
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
    * three tables of deterministic results, each computed and checked
      once: the involution of each orthogonal set (``reflection_product``),
      the rank of id - x of each element with its length (``rank_id_minus``)
      and the reduced word of each element;
    * the answers of the Bruhat comparisons asked for, keyed on the pair of
      elements; the walk behind them keeps nothing else;
    * ``minuscule``, the minuscule elements in canonical order (position k
      is ideal id k), enumerated on first use, and ``minuscule_ids``, the
      map from each of their elements to its ideal id;
    * ``shifted_orthogonal_index``, the orthogonal subsets of Phi^+ - delta
      bucketed by their involution, built on first use.

    Elements themselves are immutable values.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.rank = rs.rank
        # Root index i is the position in rs.roots, which is sorted by height:
        # the negative roots come first, the positive ones from _pos_start on.
        self._roots: tuple[Root, ...] = rs.roots
        self._coeffs = tuple(g.coeffs for g in rs.roots)
        self._index = {c: i for i, c in enumerate(self._coeffs)}
        self._negative = tuple(0 if g.is_positive else 1 for g in rs.roots)
        self._negation = tuple(self._index[tuple(-c for c in g)] for g in self._coeffs)
        self._coroots = tuple(rs.coroot_coords(g) for g in rs.roots)
        self._pos_start = len(rs.roots) - len(rs.positive_roots)
        if rs.roots[self._pos_start:] != rs.positive_roots:
            raise AssertionError("positive roots are not the tail of the root order")
        self._affine_simple = (AffineRoot(-rs.highest_root, 1),) + tuple(
            AffineRoot(g, 0) for g in rs.simple_roots
        )
        # r_j - delta for each positive root r_j, shared by every inversion
        # set of a minuscule element
        self._shifted = tuple(AffineRoot(g, -1) for g in rs.positive_roots)
        # (root index, level) of the affine simple roots a_0 = delta - theta, a_i = alpha_i
        self._simple_at = tuple((self._index[a.finite.coeffs], a.level) for a in self._affine_simple)
        self._simple_index = {at: i for i, at in enumerate(self._simple_at)}
        # (root index, level) of the walls alpha_1..alpha_r and 2*delta - theta
        # of the doubled alcove, for alcove_image_check
        self._walls = self._simple_at[1:] + ((self._simple_at[0][0], 2),)
        n = len(self._coeffs)
        self.identity = AffineWeylElement(tuple(range(n)), (0,) * n)
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
        self._reflections: dict[AffineRoot, AffineWeylElement] = {}
        # sigma by orthogonal set, (rank(id - x), length) and reduced word by
        # element; the first two are filled by the involutions module.
        self._sigmas: dict[OrthogonalSet, Involution] = {}
        self._ranks: dict[AffineWeylElement, tuple[int, int]] = {}
        self._words: dict[AffineWeylElement, ReducedWord] = {}
        self._bruhat: dict[tuple[AffineWeylElement, AffineWeylElement], bool] = {}

    # -- root tables ---------------------------------------------------------

    def _root_index(self, coeffs: tuple[int, ...]) -> int:
        i = self._index.get(coeffs)
        if i is None:
            raise ValueError(f"{coeffs} is not a root")
        return i

    def _reflection_at(self, g: int, level: int) -> AffineWeylElement:
        """s_a for a = gamma + level*delta, gamma the root of index g, which is
        t_{-level * gamma^vee} s_gamma.  Root by root, s_gamma(beta) = beta -
        <beta, gamma^vee> gamma, and the level drops by
        <s_gamma(beta), -level * gamma^vee> = level * <beta, gamma^vee>."""
        rank = self.rank
        cart = self.rs.cartan
        gamma = self._coeffs[g]
        cov = self._coroots[g]
        # <alpha_j, gamma^vee> for every simple root alpha_j
        pair = tuple(sum(cov[k] * cart[k][j] for k in range(rank)) for j in range(rank))
        index = self._index
        perm = []
        shift = []
        for beta in self._coeffs:
            p = sum(map(mul, beta, pair))
            perm.append(index[tuple([b - p * c for b, c in zip(beta, gamma)])])
            shift.append(level * p)
        return AffineWeylElement(tuple(perm), tuple(shift))

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
            cached = self._reflections[a] = self._reflection_at(
                self._root_index(a.finite.coeffs), a.level
            )
        return cached

    def simple_index(self, a: AffineRoot) -> int:
        """The index i with a = a_i, 0 for the affine node."""
        i = self._simple_index.get((self._index.get(a.finite.coeffs), a.level))
        if i is None:
            raise ValueError(f"{a} is not a simple affine root")
        return i

    def is_simple_affine(self, a: AffineRoot) -> bool:
        if a.level == 0:
            return a.finite.height == 1 and a.finite.is_positive
        return a.level == 1 and a.finite == -self.rs.highest_root

    # -- group operations ----------------------------------------------------

    def act(self, x: AffineWeylElement, a: AffineRoot) -> AffineRoot:
        perm, shift = x.perm, x.shift
        i = self._root_index(a.finite.coeffs)
        return AffineRoot(self._roots[perm[i]], a.level - shift[i])

    def pull_back(self, x: AffineWeylElement, i: int) -> AffineRoot:
        """x^{-1}(a_i), read off the root tables of x without inverting it.
        x maps gamma_j + n*delta to gamma_{perm[j]} + (n - shift[j])*delta, so
        perm[j] is the root of a_i and the level is level_i + shift[j]."""
        perm, shift = x.perm, x.shift
        g, level = self._simple_at[i]
        j = perm.index(g)
        return AffineRoot(self._roots[j], level + shift[j])

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
        g = self._index[a.finite.coeffs]
        return self._negation[g] - self._pos_start if a.level == 1 and self._negative[g] else None

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
            AffineRoot(roots[g], d // 2)
            for g, (p, q, d) in enumerate(zip(perm, self._negation, shift))
            if p == q and d % 2 == 0
        ]

    def multiply(self, x: AffineWeylElement, y: AffineWeylElement) -> AffineWeylElement:
        """xy(gamma_i + n*delta) = x(gamma_{py[i]} + (n - sy[i])*delta)."""
        take = itemgetter(*y.perm)
        return AffineWeylElement(take(x.perm), tuple(map(add, y.shift, take(x.shift))))

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

    def descents(self, x: AffineWeylElement, side: str = "right") -> frozenset[int]:
        """Simple indices i with x(a_i) negative (right) or x^{-1}(a_i)
        negative (left)."""
        if side == "left":
            return frozenset(self._table_descents(self._left_table(x)))
        if side != "right":
            raise ValueError("side must be 'left' or 'right'")
        perm, shift = x.perm, x.shift
        negative = self._negative
        return frozenset(
            i
            for i, (g, level) in enumerate(self._simple_at)
            if level < shift[g] or (level == shift[g] and negative[perm[g]])
        )

    def length(self, x: AffineWeylElement) -> int:
        """The closed count of the module docstring.  Folding gamma with
        -gamma (shift and sign both flip) leaves the sum over gamma > 0 of
        |shift[gamma] + [w(gamma) < 0]|."""
        perm, shift = x.perm, x.shift
        p = self._pos_start
        negative = self._negative
        return sum([abs(d + negative[q]) for d, q in zip(shift[p:], perm[p:])])

    def _word(self, x: AffineWeylElement) -> ReducedWord:
        """Greedy left-descent stripping on the left table, always taking the
        smallest index; the letters evaluate left to right back to x.  Each
        element's word is stripped and checked once and kept by the group;
        the minuscule walk stores the same words for the minuscule elements
        as it reaches them."""
        word = self._words.get(x)
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
        word = self._words[x] = tuple(letters)
        return word

    # the group's own callers use _word, so replacing reduced_word on an
    # instance or wrapping it on the class reaches only outside callers
    reduced_word = _word

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
            AffineRoot(roots[g], n)
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
        index = self.rs._pos_index
        bits = [index.get(a.finite) if a.level == -1 else None for a in roots]
        return None if None in bits else sum(1 << j for j in set(bits))

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
        u == w is True without a walk.  u <= w also needs every letter of
        u's word in w's (the support)."""
        if u == self.identity:
            return True
        key = (u, w)
        answer = self._bruhat.get(key)
        if answer is not None:
            return answer
        word, u_word = self._word(w), self._word(u)
        left, rest = len(u_word), len(word)
        answer = u == w
        if not answer and left <= rest and set(u_word) <= set(word):
            d = self._left_table(u)
            at, steps = self._descent_at, self._left_steps
            for i in word:
                rest -= 1
                g, two_level = at[i]
                if d[g] > two_level:
                    left -= 1
                    if not left:
                        answer = True
                        break
                    d = steps[i](d)
                if left > rest:
                    break
        self._bruhat[key] = answer
        return answer

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
    def shifted_orthogonal_index(self) -> dict[AffineWeylElement, list[OrthogonalSet]]:
        from .involutions import orthogonal_subsets, reflection_product

        buckets: dict[AffineWeylElement, list[OrthogonalSet]] = {}
        for sub in orthogonal_subsets(self.rs, self._shifted):
            buckets.setdefault(reflection_product(self, sub).element, []).append(sub)
        return buckets

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
        coeffs, marks = self._coeffs, self.rs.marks
        for g, level in self._walls:
            n = level - shift[g]
            if n < 0 or any(b + n * m < 0 for b, m in zip(coeffs[perm[g]], marks)):
                return False
        return True
