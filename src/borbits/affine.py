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
The value of an element is still the pair (images of the simple roots,
``lambda``): equality, hashing and JSON see only that pair, and words are
derived views.  Bruhat comparisons come from the standard lifting recursion,
run on small per-group element ids: each id stores its element, length and
left-descent bitmask, and each left product s_i x is multiplied out once
and kept as an id.  Lengths and comparisons have independent brute-force
counterparts used as oracles by the test suite: ``count_inversions``, which
scans a window of levels acting root by root and is the only such scan, and
subword search.  The alcove containment test runs on exact rational vertex
coordinates; there are no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, itemgetter, mul, neg
import re
from typing import TYPE_CHECKING

from .roots import Root, RootSystem

if TYPE_CHECKING:
    from .involutions import OrthogonalSet
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


@dataclass(frozen=True)
class AffineRoot:
    """A real affine root ``finite + level * delta``."""

    finite: Root
    level: int

    def __post_init__(self) -> None:
        if not any(self.finite.coeffs):
            raise ValueError("affine roots must have a nonzero finite part")

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


_AFFINE_RE = re.compile(r"^(?P<finite>[0-9,\-]+?)(?:(?P<sign>[+-])(?P<mult>\d*)d)?$")


def parse_affine_root(rs: RootSystem, text: str) -> AffineRoot:
    """Parse the grammar ``coeffs(+-kd)``, e.g. ``1,1-1d``."""
    m = _AFFINE_RE.match(text.strip().replace(" ", ""))
    if not m:
        raise ValueError(f"bad affine root {text!r}")
    finite = rs.parse_root(m.group("finite"))
    level = 0
    if m.group("sign"):
        mult = int(m.group("mult")) if m.group("mult") else 1
        level = mult if m.group("sign") == "+" else -mult
    return AffineRoot(finite, level)


class AffineWeylElement:
    """``t_lambda * w``: images of the simple roots under ``w`` (rows of an
    integer matrix on root coordinates) plus the translation ``lambda`` in
    simple-coroot coordinates.

    Elements are immutable values.  One made by a group also carries that
    group's root tables ``perm`` and ``shift`` (see the module docstring);
    one built directly, e.g. from JSON, gets them from the first group that
    uses it."""

    __slots__ = ("images", "translation", "_perm", "_shift", "_hash")

    def __init__(
        self,
        images: tuple[tuple[int, ...], ...],
        translation: tuple[int, ...],
        perm: tuple[int, ...] | None = None,
        shift: tuple[int, ...] | None = None,
    ):
        self.images = images
        self.translation = translation
        self._perm = perm
        self._shift = shift
        self._hash = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineWeylElement):
            return NotImplemented
        return self.images == other.images and self.translation == other.translation

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.images, self.translation))
        return h

    def __repr__(self) -> str:
        return f"AffineWeylElement(images={self.images!r}, translation={self.translation!r})"

    @property
    def is_identity(self) -> bool:
        rank = len(self.images)
        return self.translation == (0,) * rank and self.images == tuple(
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
        )

    def to_json_dict(self) -> dict:
        return {
            "w": [list(row) for row in self.images],
            "lambda": list(self.translation),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "AffineWeylElement":
        return AffineWeylElement(
            tuple(tuple(int(x) for x in row) for row in data["w"]),
            tuple(int(x) for x in data["lambda"]),
        )


def _apply_images(images: tuple[tuple[int, ...], ...], coeffs: tuple[int, ...]) -> tuple[int, ...]:
    rank = len(images)
    out = [0] * rank
    for i, c in enumerate(coeffs):
        if c:
            row = images[i]
            for j in range(rank):
                out[j] += c * row[j]
    return tuple(out)


class AffineWeylGroup:
    """Operations of the affine Weyl group of a finite root system.

    The group object owns everything derived from its root system, and all
    of it is freed with the group:

    * the root index and the tables of the simple reflections;
    * the reflection cache;
    * the Bruhat tables, all indexed by element id: the lengths, the
      left-descent masks, the left products s_i x and the comparison answers;
    * ``minuscule``, the minuscule elements in canonical order (position k
      is ideal id k), enumerated on first use, and ``minuscule_ids``, the
      map from each of their elements to its ideal id;
    * ``shifted_orthogonal_index``, the orthogonal subsets of Phi^+ - delta
      bucketed by their involution, built on first use;
    * the alcove vertices, built on first use.

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
        # (root index, level) of the affine simple roots a_0 = delta - theta, a_i = alpha_i
        self._simple_at = tuple((self._index[a.finite.coeffs], a.level) for a in self._affine_simple)
        self._simple_index = {at: i for i, at in enumerate(self._simple_at)}
        # root indices of alpha_1..alpha_r, whose images are an element's images
        self._image_at = tuple(g for g, _ in self._simple_at[1:])
        n = len(self._coeffs)
        self.identity = AffineWeylElement(
            tuple(tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)),
            (0,) * self.rank,
            tuple(range(n)),
            (0,) * n,
        )
        self._simple = [self._reflection_at(g, level) for g, level in self._simple_at]
        self._reflections: dict[AffineRoot, AffineWeylElement] = {}
        # The Bruhat order runs on small element ids from _ids, so its tables
        # hold each distinct element once.  Per id: the element, its length and
        # its left-descent bitmask; _left maps (id of x, i) to the id of s_i x.
        self._ids: dict[AffineWeylElement, int] = {}
        self._elements: list[AffineWeylElement] = []
        self._lengths: list[int] = []
        self._left_descents: list[int] = []
        self._left: dict[tuple[int, int], int] = {}
        self._bruhat: dict[tuple[int, int], bool] = {}

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
        return self._element(tuple(perm), tuple(shift), tuple(-level * c for c in cov))

    def _element(self, perm: tuple[int, ...], shift: tuple[int, ...], translation) -> AffineWeylElement:
        coeffs = self._coeffs
        return AffineWeylElement(
            tuple([coeffs[perm[g]] for g in self._image_at]), translation, perm, shift
        )

    def _tables(self, x: AffineWeylElement) -> tuple[tuple[int, ...], tuple[int, ...]]:
        perm = x._perm
        if perm is None:
            perm, shift = self._tables_from_matrix(x.images, x.translation)
            x._perm, x._shift = perm, shift
            return perm, shift
        return perm, x._shift

    def _tables_from_matrix(self, images, translation) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The root tables of an element given only as images and translation."""
        rank = self.rank
        cart = self.rs.cartan
        # <alpha_j, lambda> for every simple root alpha_j
        pair = [sum(translation[k] * cart[k][j] for k in range(rank)) for j in range(rank)]
        perm = []
        shift = []
        for c in self._coeffs:
            img = _apply_images(images, c)
            perm.append(self._root_index(img))
            shift.append(sum(a * b for a, b in zip(img, pair)))
        return tuple(perm), tuple(shift)

    def _push_coweight(self, perm: tuple[int, ...], mu: tuple[int, ...], out: list[int]) -> list[int]:
        """Add w(mu) to out, for mu over the simple coroots and w given by
        perm: w(alpha_k^vee) is the coroot of w(alpha_k)."""
        coroots = self._coroots
        for k, m in enumerate(mu):
            if m:
                for j, c in enumerate(coroots[perm[self._image_at[k]]]):
                    if c:
                        out[j] += m * c
        return out

    def _pull_back(self, perm: tuple[int, ...], shift: tuple[int, ...], i: int) -> tuple[int, int]:
        """(j, m) with x^{-1}(a_i) = gamma_j + m*delta.  x maps gamma_j + n*delta
        to gamma_{perm[j]} + (n - shift[j])*delta, so perm[j] is the root of
        a_i and m = level_i + shift[j]."""
        g, level = self._simple_at[i]
        j = perm.index(g)
        return j, level + shift[j]

    def _is_left_descent(self, perm: tuple[int, ...], shift: tuple[int, ...], i: int) -> bool:
        """Whether x^{-1}(a_i) < 0."""
        j, m = self._pull_back(perm, shift, i)
        return m < 0 or (m == 0 and self._negative[j] == 1)

    def _first_left_descent(self, perm: tuple[int, ...], shift: tuple[int, ...]) -> int | None:
        return next(
            (i for i in self.simple_indices if self._is_left_descent(perm, shift, i)), None
        )

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
        perm, shift = self._tables(x)
        i = self._root_index(a.finite.coeffs)
        return AffineRoot(self._roots[perm[i]], a.level - shift[i])

    def pull_back(self, x: AffineWeylElement, i: int) -> AffineRoot:
        """x^{-1}(a_i), read off the root tables of x."""
        j, m = self._pull_back(*self._tables(x), i)
        return AffineRoot(self._roots[j], m)

    def negated_roots(self, x: AffineWeylElement) -> list[AffineRoot]:
        """The real roots a with x(a) = -a, in root order.  x sends
        gamma_g + n*delta to gamma_{perm[g]} + (n - shift[g])*delta, so that
        root is negated iff perm[g] is the index of -gamma_g and 2n = shift[g]."""
        perm, shift = self._tables(x)
        roots = self._roots
        return [
            AffineRoot(roots[g], d // 2)
            for g, (p, q, d) in enumerate(zip(perm, self._negation, shift))
            if p == q and d % 2 == 0
        ]

    def multiply(self, x: AffineWeylElement, y: AffineWeylElement) -> AffineWeylElement:
        """xy(gamma_i + n*delta) = x(gamma_{py[i]} + (n - sy[i])*delta), and
        t_lambda w t_mu v = t_{lambda + w(mu)} wv."""
        px, sx = self._tables(x)
        py, sy = self._tables(y)
        take = itemgetter(*py)
        return self._element(
            take(px),
            tuple(map(add, sy, take(sx))),
            tuple(self._push_coweight(px, y.translation, list(x.translation))),
        )

    def inverse(self, x: AffineWeylElement) -> AffineWeylElement:
        """x^{-1} maps gamma_{perm[i]} + n*delta to gamma_i + (n + shift[i])*delta,
        and (t_lambda w)^{-1} = t_{-w^{-1}(lambda)} w^{-1}."""
        perm, shift = self._tables(x)
        inv = [0] * len(perm)
        inv_shift = [0] * len(perm)
        for i, p in enumerate(perm):
            inv[p] = i
            inv_shift[p] = -shift[i]
        lam = self._push_coweight(inv, x.translation, [0] * self.rank)
        return self._element(tuple(inv), tuple(inv_shift), tuple(map(neg, lam)))

    def evaluate_word(self, word: ReducedWord) -> AffineWeylElement:
        out = self.identity
        for i in word:
            out = self.multiply(out, self.simple_reflection(i))
        return out

    # -- lengths, descents, words -------------------------------------------

    def descents(self, x: AffineWeylElement, side: str = "right") -> frozenset[int]:
        """Simple indices i with x(a_i) negative (right) or x^{-1}(a_i)
        negative (left)."""
        perm, shift = self._tables(x)
        if side == "left":
            return frozenset(i for i in self.simple_indices if self._is_left_descent(perm, shift, i))
        if side != "right":
            raise ValueError("side must be 'left' or 'right'")
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
        perm, shift = self._tables(x)
        p = self._pos_start
        negative = self._negative
        return sum([abs(d + negative[q]) for d, q in zip(shift[p:], perm[p:])])

    def reduced_word(self, x: AffineWeylElement) -> ReducedWord:
        """Greedy left-descent stripping, always taking the smallest index;
        the letters evaluate left to right back to x."""
        letters: list[int] = []
        perm, shift = self._tables(x)
        while True:
            i = self._first_left_descent(perm, shift)
            if i is None:
                break
            letters.append(i)
            # s_i * cur, composed on the tables alone
            sp, ss = self._tables(self._simple[i])
            take = itemgetter(*perm)
            perm, shift = take(sp), tuple(map(add, shift, take(ss)))
        if perm != self.identity._perm or any(shift):
            raise AssertionError("descent stripping did not reach the identity")
        return tuple(letters)

    def count_inversions(self, x: AffineWeylElement) -> int:
        """|{a < 0 : x(a) > 0}| by brute force: act on every root of every
        level in the window -(M+1)..0, M = max|<gamma, lambda>|, which
        provably holds them all.  The test suite's oracle for `length` and
        `inversions_from_negative`; nothing in the package calls it."""
        bound = max(map(abs, self._tables(x)[1])) + 1
        return sum(
            1
            for gamma in self.rs.roots
            for n in range(-bound, 0 if gamma.is_positive else 1)
            if self.act(x, AffineRoot(gamma, n)).is_positive
        )

    def inversions_from_negative(self, x: AffineWeylElement) -> list[AffineRoot]:
        """{a < 0 : x(a) > 0}, in root order and then by level.  x sends
        gamma_g + n*delta to gamma_{perm[g]} + (n - shift[g])*delta, so for
        each g the levels form the interval
        shift[g] + [perm[g] < 0] <= n < [g < 0].  The window scan of
        `count_inversions` is the oracle the tests compare it with."""
        perm, shift = self._tables(x)
        negative = self._negative
        roots = self._roots
        return [
            AffineRoot(roots[g], n)
            for g, (p, d) in enumerate(zip(perm, shift))
            for n in range(d + negative[p], negative[g])
        ]

    # -- Bruhat order ---------------------------------------------------------

    def _id(self, x: AffineWeylElement) -> int:
        ids = self._ids
        n = ids.get(x)
        if n is None:
            n = ids[x] = len(ids)
            self._elements.append(x)
            self._lengths.append(self.length(x))
            self._left_descents.append(sum(1 << i for i in self.descents(x, "left")))
        return n

    def _left_id(self, n: int, i: int) -> int:
        """The id of s_i x, x the element of id n, multiplied out once."""
        key = (n, i)
        m = self._left.get(key)
        if m is None:
            m = self._left[key] = self._id(self.multiply(self._simple[i], self._elements[n]))
        return m

    def bruhat_leq(self, u: AffineWeylElement, w: AffineWeylElement) -> bool:
        """Lifting recursion: for a left descent i of w,
        u <= w iff min(u, s_i u) <= s_i w.  It runs on element ids, taking
        the lowest left descent of w."""
        if u == self.identity:
            return True
        bruhat = self._bruhat
        key = (self._id(u), self._id(w))
        cached = bruhat.get(key)
        if cached is not None:
            return cached
        lengths = self._lengths
        descents = self._left_descents
        left = self._left_id
        stack = [key]
        while stack:
            top = stack[-1]
            if top in bruhat:
                stack.pop()
                continue
            a, b = top
            la, lb = lengths[a], lengths[b]
            if la == 0 or la >= lb:
                bruhat[top] = la == 0 or a == b
                stack.pop()
                continue
            mask = descents[b]
            i = (mask & -mask).bit_length() - 1
            sub = (left(a, i) if descents[a] >> i & 1 else a, left(b, i))
            answer = bruhat.get(sub)
            if answer is not None:
                bruhat[top] = answer
                stack.pop()
            else:
                stack.append(sub)
        return bruhat[key]

    def bruhat_lower_interval_oracle(self, w: AffineWeylElement) -> frozenset[AffineWeylElement]:
        """Everything below w for the Bruhat order, by brute force over the
        subwords of one fixed reduced word of w.  Guarded to length <= 20."""
        word = self.reduced_word(w)
        if len(word) > 20:
            raise ValueError("the subword oracle is capped at length 20")
        reachable = {self.identity}
        for i in word:
            s = self.simple_reflection(i)
            reachable |= {self.multiply(x, s) for x in reachable}
        return frozenset(reachable)

    def bruhat_leq_oracle(self, u: AffineWeylElement, w: AffineWeylElement) -> bool:
        """Subword-property brute force: u <= w iff some subword of one fixed
        reduced word of w evaluates to u."""
        return u in self.bruhat_lower_interval_oracle(w)

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

        psi = [AffineRoot(g, -1) for g in self.rs.positive_roots]
        buckets: dict[AffineWeylElement, list[OrthogonalSet]] = {}
        for sub in orthogonal_subsets(self.rs, psi):
            buckets.setdefault(reflection_product(self, sub).element, []).append(sub)
        return buckets

    # -- alcove geometry --------------------------------------------------------

    @cached_property
    def _alcove_vertices(self) -> list[tuple[Fraction, ...]]:
        # only the alcove test needs them, so the group builds them on first use
        rank = self.rank
        cart = [[Fraction(self.rs.cartan[i][j]) for j in range(rank)] for i in range(rank)]
        inv = _invert_rational(cart)
        vertices = [tuple(Fraction(0) for _ in range(rank))]
        for i in range(rank):
            m = self.rs.marks[i]
            vertices.append(tuple(inv[i][j] / m for j in range(rank)))
        return vertices

    def _pair_root_with_point(self, coeffs: tuple[int, ...], point: tuple[Fraction, ...]) -> Fraction:
        return sum(
            (point[k] * self.rs.pairing_with_simple_coroot(coeffs, k + 1) for k in range(self.rank)),
            Fraction(0),
        )

    def act_on_point(self, x: AffineWeylElement, point: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        """Affine action on the coroot space, x . v = w(v) + lambda."""
        out = [Fraction(c) for c in x.translation]
        for k, v in enumerate(point):
            if v:
                img = self.rs.coroot_coords(Root(x.images[k]))
                for j in range(self.rank):
                    out[j] += v * img[j]
        return tuple(out)

    def alcove_image_check(self, x: AffineWeylElement) -> bool:
        """True iff x^{-1} maps the closed fundamental alcove into the closed
        doubled alcove.  Checking the vertices suffices because affine maps
        send the simplex onto the convex hull of the image vertices."""
        xinv = self.inverse(x)
        theta = self.rs.highest_root.coeffs
        for p in self._alcove_vertices:
            q = self.act_on_point(xinv, p)
            for i in range(1, self.rank + 1):
                if self._pair_root_with_point(self.rs.simple_root(i).coeffs, q) < 0:
                    return False
            if self._pair_root_with_point(theta, q) > 2:
                return False
        return True


def _invert_rational(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(rows)
    aug = [list(rows[i]) + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    return _gauss_jordan(aug, n)


def _gauss_jordan(aug: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    for col in range(n):
        piv = next(k for k in range(col, n) if aug[k][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        d = aug[col][col]
        aug[col] = [x / d for x in aug[col]]
        for k in range(n):
            if k != col and aug[k][col] != 0:
                f = aug[k][col]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[col])]
    return [row[n:] for row in aug]
