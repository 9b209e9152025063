"""Finite irreducible root systems of types A-G in simple-root coordinates.

A root is stored as its integer coefficient vector over the simple roots, so
everything in this module is exact: the pairing between roots and coroots is
derived from the Cartan matrix through its minimal integer symmetrizers,
reflections and dominance tests are integer vector arithmetic, and the
conversion to the classical epsilon coordinates of types A-D is an exact
linear solve.  No floating point is used anywhere.

The Cartan matrices follow the Bourbaki numbering and are derived from the
Bourbaki simple-root vectors rather than typed in by hand.  The convention
for the matrix is ``C[i][j] = <alpha_j, alpha_i^vee>`` (indices 0-based
internally, 1-based in the public simple-root API).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import re

__all__ = [
    "CartanDatum",
    "Root",
    "RootSystem",
    "cartan_datum",
    "build_root_system",
]

CLASSICAL_TYPES = "ABCD"
VALID_TYPES = "ABCDEFG"


def _rank_bounds(letter: str) -> tuple[int, int]:
    return {
        "A": (1, 64),
        "B": (2, 64),
        "C": (2, 64),
        "D": (3, 64),
        "E": (6, 8),
        "F": (4, 4),
        "G": (2, 2),
    }[letter]


def _doubled_simple_vectors(letter: str, rank: int) -> list[tuple[int, ...]]:
    """Bourbaki simple roots as integer vectors equal to twice the usual
    epsilon coordinates (doubling keeps the half-integer entries of E and F
    integral)."""
    vecs: list[list[int]] = []
    if letter == "A":
        dim = rank + 1
        for i in range(rank):
            v = [0] * dim
            v[i], v[i + 1] = 2, -2
            vecs.append(v)
    elif letter in ("B", "C", "D"):
        dim = rank
        for i in range(rank - 1):
            v = [0] * dim
            v[i], v[i + 1] = 2, -2
            vecs.append(v)
        v = [0] * dim
        if letter == "B":
            v[rank - 1] = 2
        elif letter == "C":
            v[rank - 1] = 4
        else:
            v[rank - 2], v[rank - 1] = 2, 2
        vecs.append(v)
    elif letter == "E":
        dim = 8
        vecs.append([1, -1, -1, -1, -1, -1, -1, 1])
        vecs.append([2, 2, 0, 0, 0, 0, 0, 0])
        for i in range(1, rank - 1):
            v = [0] * dim
            v[i - 1], v[i] = -2, 2
            vecs.append(v)
    elif letter == "F":
        vecs = [[0, 2, -2, 0], [0, 0, 2, -2], [0, 0, 0, 2], [1, -1, -1, -1]]
    elif letter == "G":
        vecs = [[2, -2, 0], [-4, 2, 2]]
    else:
        raise ValueError(f"unknown type {letter!r}")
    return [tuple(v) for v in vecs]


def _bourbaki_cartan(letter: str, rank: int) -> tuple[tuple[int, ...], ...]:
    vecs = _doubled_simple_vectors(letter, rank)
    rows = []
    for i in range(rank):
        nii = sum(x * x for x in vecs[i])
        row = []
        for j in range(rank):
            dot = sum(x * y for x, y in zip(vecs[i], vecs[j]))
            num = 2 * dot
            if num % nii:
                raise AssertionError("non-integral Cartan entry")
            row.append(num // nii)
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class CartanDatum:
    """Cartan matrix of an irreducible type, Bourbaki numbering."""

    type_letter: str
    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.type_letter not in VALID_TYPES:
            raise ValueError(f"unknown type letter {self.type_letter!r}")
        lo, hi = _rank_bounds(self.type_letter)
        if not lo <= self.rank <= hi:
            raise ValueError(
                f"type {self.type_letter} does not admit rank {self.rank}"
            )
        expected = _bourbaki_cartan(self.type_letter, self.rank)
        if self.cartan_matrix != expected:
            raise ValueError("Cartan matrix does not match the Bourbaki one")
        for i in range(self.rank):
            if self.cartan_matrix[i][i] != 2:
                raise ValueError("Cartan diagonal must be 2")
            for j in range(self.rank):
                if i != j and self.cartan_matrix[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")


def cartan_datum(type_letter: str, rank: int) -> CartanDatum:
    if type_letter not in VALID_TYPES:
        raise ValueError(f"unknown type letter {type_letter!r}")
    lo, hi = _rank_bounds(type_letter)
    if not lo <= rank <= hi:
        raise ValueError(f"type {type_letter} does not admit rank {rank}")
    return CartanDatum(type_letter, rank, _bourbaki_cartan(type_letter, rank))


@dataclass(frozen=True)
class Root:
    """A root as an integer coefficient vector over the simple roots."""

    coeffs: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coeffs) and any(self.coeffs)

    @property
    def is_negative(self) -> bool:
        return all(c <= 0 for c in self.coeffs) and any(self.coeffs)

    @property
    def sort_key(self) -> tuple:
        return (self.height, self.coeffs)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Root") -> "Root":
        return Root(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


def _symmetrizers(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Minimal positive integers d with d_i C_ij = d_j C_ji (the matrix is
    irreducible, so a breadth-first walk over the Dynkin graph fixes all
    ratios)."""
    rank = len(cartan)
    d: list[Fraction | None] = [None] * rank
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                queue.append(j)
    if any(x is None for x in d):
        raise AssertionError("Dynkin diagram is not connected")
    lcm = 1
    for x in d:
        lcm = lcm * x.denominator // _gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in d]
    g = 0
    for x in ints:
        g = _gcd(g, x)
    return tuple(x // g for x in ints)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


class RootSystem:
    """A finite irreducible root system with exact pairing and reflections.

    Construction closes the simple roots under the simple reflections, which
    reaches every root because each root is Weyl-conjugate to a simple one.
    Roots are kept in the canonical order (height, then lexicographic
    coefficients) so every enumeration downstream is deterministic.
    """

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self.rank = datum.rank
        self.cartan = datum.cartan_matrix
        self.symmetrizers = _symmetrizers(self.cartan)
        # symmetric bilinear form on the root lattice, B_ij = d_i C_ij
        self._form = tuple(
            tuple(self.symmetrizers[i] * self.cartan[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )
        all_coeffs = self._generate()
        roots = sorted((Root(c) for c in all_coeffs), key=lambda r: r.sort_key)
        self.roots: tuple[Root, ...] = tuple(roots)
        self.positive_roots: tuple[Root, ...] = tuple(
            r for r in roots if r.is_positive
        )
        if 2 * len(self.positive_roots) != len(self.roots):
            raise AssertionError("root count mismatch")
        for r in self.roots:
            if not (r.is_positive or r.is_negative):
                raise AssertionError("root with mixed coefficient signs")
        self._root_set = frozenset(r.coeffs for r in self.roots)
        self._pos_index = {r: i for i, r in enumerate(self.positive_roots)}
        self._norm2 = {r.coeffs: self._inner(r.coeffs, r.coeffs) for r in self.roots}
        self._form_vec = {
            r.coeffs: tuple(
                sum(self._form[i][j] * r.coeffs[i] for i in range(self.rank))
                for j in range(self.rank)
            )
            for r in self.roots
        }
        self.highest_root = self._find_highest()
        self.marks: tuple[int, ...] = self.highest_root.coeffs
        self._coroot = {r.coeffs: self._coroot_coords(r) for r in self.roots}
        self._eps = _doubled_simple_vectors(datum.type_letter, datum.rank)

    # -- construction helpers -------------------------------------------

    def _generate(self) -> set[tuple[int, ...]]:
        rank = self.rank
        simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        seen = set(simples)
        frontier = list(simples)
        while frontier:
            new = []
            for c in frontier:
                for i in range(rank):
                    k = sum(c[j] * self.cartan[i][j] for j in range(rank))
                    r = tuple(
                        c[j] - k if j == i else c[j] for j in range(rank)
                    )
                    if r not in seen:
                        seen.add(r)
                        new.append(r)
            frontier = new
        return seen

    def _inner(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        return sum(
            a[i] * self._form[i][j] * b[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def _find_highest(self) -> Root:
        """The maximum of the positive roots in dominance order.  A maximum
        has the largest height, so it can only be the last root."""
        top = self.positive_roots[-1]
        if not all(self.dominance_leq(p, top) for p in self.positive_roots):
            raise AssertionError("highest root is not unique")
        return top

    def _coroot_coords(self, gamma: Root) -> tuple[int, ...]:
        """Coordinates of gamma^vee over the simple coroots (integers)."""
        n = self._norm2[gamma.coeffs]
        if n % 2:
            raise AssertionError("odd root norm")
        half = n // 2
        out = []
        for k in range(self.rank):
            num = gamma.coeffs[k] * self.symmetrizers[k]
            if num % half:
                raise AssertionError("coroot coordinates are not integral")
            out.append(num // half)
        return tuple(out)

    # -- queries ---------------------------------------------------------

    def is_root(self, coeffs: tuple[int, ...]) -> bool:
        return coeffs in self._root_set

    def root(self, coeffs: tuple[int, ...]) -> Root:
        if coeffs not in self._root_set:
            raise ValueError(f"{coeffs} is not a root")
        return Root(coeffs)

    def simple_root(self, i: int) -> Root:
        """The i-th simple root, 1-based."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range")
        return Root(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    @property
    def simple_roots(self) -> tuple[Root, ...]:
        return tuple(self.simple_root(i) for i in range(1, self.rank + 1))

    def positive_index(self, root: Root) -> int:
        return self._pos_index[root]

    def pairing(self, beta: Root, gamma: Root) -> int:
        """<beta, gamma^vee>, an integer for any two roots."""
        if beta.coeffs not in self._root_set or gamma.coeffs not in self._root_set:
            raise ValueError("pairing arguments must be roots")
        num = 2 * sum(
            beta.coeffs[i] * v for i, v in enumerate(self._form_vec[gamma.coeffs])
        )
        den = self._norm2[gamma.coeffs]
        if num % den:
            raise AssertionError("non-integral pairing between roots")
        return num // den

    def pairing_with_simple_coroot(self, coeffs: tuple[int, ...], k: int) -> int:
        """<vector, alpha_k^vee> for a root-lattice vector, k 1-based."""
        row = self.cartan[k - 1]
        return sum(coeffs[j] * row[j] for j in range(self.rank))

    def coroot_coords(self, gamma: Root) -> tuple[int, ...]:
        return self._coroot[gamma.coeffs]

    def reflect(self, gamma: Root, beta: Root) -> Root:
        """s_gamma(beta) = beta - <beta, gamma^vee> gamma."""
        k = self.pairing(beta, gamma)
        out = tuple(b - k * g for b, g in zip(beta.coeffs, gamma.coeffs))
        if out not in self._root_set:
            raise AssertionError("reflection left the root system")
        return Root(out)

    def dominance_leq(self, a: Root, b: Root) -> bool:
        """a <= b iff b - a has nonnegative simple-root coefficients."""
        return all(x <= y for x, y in zip(a.coeffs, b.coeffs))

    # -- text and epsilon coordinates ------------------------------------

    def parse_root(self, text: str) -> Root:
        text = text.strip()
        if "e" in text:
            return self.epsilon_to_root(text)
        coeffs = tuple(int(p) for p in text.split(","))
        if len(coeffs) != self.rank:
            raise ValueError(f"expected {self.rank} coefficients in {text!r}")
        return self.root(coeffs)

    def _epsilon_dim(self) -> int:
        if self.datum.type_letter not in CLASSICAL_TYPES:
            raise ValueError("epsilon coordinates only for classical types")
        return len(self._eps[0])

    def root_to_epsilon(self, root: Root) -> tuple[int, ...]:
        """Exact epsilon coordinates of a root, classical types only."""
        dim = self._epsilon_dim()
        out = []
        for p in range(dim):
            doubled = sum(c * self._eps[i][p] for i, c in enumerate(root.coeffs))
            if doubled % 2:
                raise AssertionError("half-integral epsilon coordinate")
            out.append(doubled // 2)
        return tuple(out)

    def epsilon_to_root(self, expr: str | tuple[int, ...]) -> Root:
        """Parse an epsilon expression like ``e1+e3`` or ``e2-e4`` (also a
        bare coordinate vector); classical types only."""
        dim = self._epsilon_dim()
        if isinstance(expr, str):
            vec = [0] * dim
            for sign, mult, idx in re.findall(r"([+-]?)(\d*)e(\d+)", expr.replace(" ", "")):
                s = -1 if sign == "-" else 1
                m = int(mult) if mult else 1
                k = int(idx)
                if not 1 <= k <= dim:
                    raise ValueError(f"epsilon index {k} out of range in {expr!r}")
                vec[k - 1] += s * m
            target = tuple(vec)
        else:
            target = tuple(expr)
            if len(target) != dim:
                raise ValueError("epsilon vector has wrong dimension")
        coeffs = self._solve_epsilon(target)
        return self.root(coeffs)

    def _solve_epsilon(self, target: tuple[int, ...]) -> tuple[int, ...]:
        dim = self._epsilon_dim()
        rows = [
            [Fraction(self._eps[i][p], 2) for i in range(self.rank)]
            + [Fraction(target[p])]
            for p in range(dim)
        ]
        pivots = []
        r = 0
        for col in range(self.rank):
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
        sol = [Fraction(0)] * self.rank
        for k, col in enumerate(pivots):
            sol[col] = rows[k][-1]
        for k in range(r, dim):
            if rows[k][-1] != 0:
                raise ValueError("epsilon vector is not in the root lattice")
        out = []
        for x in sol:
            if x.denominator != 1:
                raise ValueError("epsilon vector is not in the root lattice")
            out.append(int(x))
        return tuple(out)

    def __repr__(self) -> str:
        return f"RootSystem({self.datum.type_letter}{self.rank})"


def build_root_system(type_letter: str | CartanDatum, rank: int | None = None) -> RootSystem:
    """Construct the root system of the given type.

    >>> rs = build_root_system("G", 2)
    >>> len(rs.positive_roots), str(rs.highest_root)
    (6, '3,2')
    >>> rs.pairing(rs.simple_root(2), rs.simple_root(1))
    -3
    """
    if isinstance(type_letter, CartanDatum):
        return RootSystem(type_letter)
    if rank is None:
        raise ValueError("rank is required")
    return RootSystem(cartan_datum(type_letter, rank))
