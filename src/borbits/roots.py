"""Finite irreducible root systems of types A-G in simple-root coordinates.

A root system is fixed by its type letter and rank, and everything else is
read off the Bourbaki simple-root vectors: the Cartan matrix, and the
symmetrizers, which are the squared norms of those vectors over their gcd.
A root is the plain tuple of its integer coefficients over the simple roots
(the `Root` alias), printed by `root_text`; the root system keys its tables
on those tuples.  A root's coefficients share one sign, so it is positive
iff ``max(r) > 0`` and negative iff ``min(r) < 0``.  Everything in this
module is exact: the pairing between roots and coroots, reflections and
dominance tests are integer vector arithmetic, and the epsilon coordinates
of types A-D are read off the same vectors and turned back into roots by
lookup.  No floating point is used anywhere.

The convention for the Cartan matrix is ``C[i][j] = <alpha_j, alpha_i^vee>``
(indices 0-based internally, 1-based in the public simple-root API).
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from operator import add, le, mul
import re

__all__ = ["Root", "RootSystem", "build_root_system", "root_text"]

CLASSICAL_TYPES = "ABCD"
# the ranks each type admits
_RANK_BOUNDS = {
    "A": (1, 64),
    "B": (2, 64),
    "C": (2, 64),
    "D": (3, 64),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _bits(mask: int) -> list[int]:
    """The set bits of mask, lowest first."""
    return [i for i, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


def _symmetric_masks(items, related) -> tuple[int, ...]:
    """Bit j of row i is set iff related(items[i], items[j]), for a
    symmetric relation: each unordered pair is tested once and its bit set
    in both rows."""
    masks = [0] * len(items)
    for i, a in enumerate(items):
        for j in range(i, len(items)):
            if related(a, items[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


def _check_type(type_letter: str, rank: int) -> None:
    if type_letter not in _RANK_BOUNDS:
        raise ValueError(f"unknown type letter {type_letter!r}")
    lo, hi = _RANK_BOUNDS[type_letter]
    if not lo <= rank <= hi:
        raise ValueError(f"type {type_letter} does not admit rank {rank}")


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
    else:  # G: the caller has checked the type
        vecs = [[2, -2, 0], [-4, 2, 2]]
    return [tuple(v) for v in vecs]


def _bourbaki_cartan(vecs: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """C[i][j] = 2 (v_i, v_j) / (v_i, v_i) on the simple-root vectors,
    checked integral and <= 0 off the diagonal (the diagonal is 2 by
    definition)."""
    rows = []
    for i, vi in enumerate(vecs):
        nii = sum(map(mul, vi, vi))
        row = []
        for j, vj in enumerate(vecs):
            num = 2 * sum(map(mul, vi, vj))
            if num % nii:
                raise AssertionError("non-integral Cartan entry")
            if i != j and num > 0:
                raise AssertionError("off-diagonal Cartan entries must be <= 0")
            row.append(num // nii)
        rows.append(tuple(row))
    return tuple(rows)


class _Value:
    """Base of the immutable value classes: equality, hashing and a
    dataclass-style repr on the slots, in slot order."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__name__}({args})"


# a root: its integer coefficient vector over the simple roots
Root = tuple[int, ...]


def root_text(r: Root) -> str:
    """A root as every output prints it: its coefficients joined by commas."""
    return ",".join(map(str, r))


class RootSystem:
    """A finite irreducible root system with exact pairing and reflections.

    Construction closes the simple roots under the simple reflections, which
    reaches every root because each root is Weyl-conjugate to a simple one.
    Roots are kept in the canonical order (height, then lexicographic
    coefficients) so every enumeration downstream is deterministic.
    """

    def __init__(self, type_letter: str, rank: int):
        _check_type(type_letter, rank)
        self.type_letter, self.rank = type_letter, rank
        self._eps = _doubled_simple_vectors(type_letter, rank)
        self.cartan = _bourbaki_cartan(self._eps)
        # d_i C_ij = 2 (v_i, v_j) / g is symmetric for d_i = |v_i|^2 / g
        norms = [sum(map(mul, v, v)) for v in self._eps]
        g = gcd(*norms)
        self.symmetrizers = tuple(n // g for n in norms)
        # symmetric bilinear form on the root lattice, B_ij = d_i C_ij
        self._form = tuple(
            tuple(self.symmetrizers[i] * self.cartan[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )
        self.roots: tuple[Root, ...] = tuple(sorted(self._generate(), key=lambda r: (sum(r), r)))
        self.positive_roots: tuple[Root, ...] = tuple(r for r in self.roots if max(r) > 0)
        if 2 * len(self.positive_roots) != len(self.roots):
            raise AssertionError("root count mismatch")
        if any(min(r) < 0 < max(r) for r in self.roots):
            raise AssertionError("root with mixed coefficient signs")
        # built once: the height-one roots open Phi^+ as alpha_rank, ..., alpha_1
        self.simple_roots: tuple[Root, ...] = self.positive_roots[self.rank - 1::-1]
        self._coeff_set = frozenset(self.roots)
        self._pos_index = {r: i for i, r in enumerate(self.positive_roots)}
        # B(r, alpha_j) for each j (B is symmetric), and B(r, r)
        self._form_vec = {c: tuple(sum(map(mul, c, row)) for row in self._form) for c in self._coeff_set}
        self._norm2 = {c: sum(map(mul, c, v)) for c, v in self._form_vec.items()}
        self.highest_root = self._find_highest()
        self.marks: tuple[int, ...] = self.highest_root
        self._coroot = {r: self._coroot_coords(r) for r in self.roots}

    # -- construction helpers -------------------------------------------

    def _generate(self) -> set[tuple[int, ...]]:
        rank = self.rank
        simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        seen = set(simples)
        frontier = list(simples)
        while frontier:
            new = []
            for c in frontier:
                for i, row in enumerate(self.cartan):
                    # s_i(c) = c - <c, alpha_i^vee> alpha_i
                    r = c[:i] + (c[i] - sum(map(mul, c, row)),) + c[i + 1:]
                    if r not in seen:
                        seen.add(r)
                        new.append(r)
            frontier = new
        return seen

    def _find_highest(self) -> Root:
        """The maximum of the positive roots in dominance order.  A maximum
        has the largest height, so it can only be the last root."""
        top = self.positive_roots[-1]
        if not all(self.dominance_leq(p, top) for p in self.positive_roots):
            raise AssertionError("highest root is not unique")
        return top

    def _coroot_coords(self, gamma: Root) -> tuple[int, ...]:
        """Coordinates of gamma^vee over the simple coroots (integers)."""
        n = self._norm2[gamma]
        if n % 2:
            raise AssertionError("odd root norm")
        half = n // 2
        out = []
        for k in range(self.rank):
            num = gamma[k] * self.symmetrizers[k]
            if num % half:
                raise AssertionError("coroot coordinates are not integral")
            out.append(num // half)
        return tuple(out)

    # -- queries ---------------------------------------------------------

    def is_root(self, coeffs: tuple[int, ...]) -> bool:
        return coeffs in self._coeff_set

    def root(self, coeffs: tuple[int, ...]) -> Root:
        if coeffs not in self._coeff_set:
            raise ValueError(f"{root_text(coeffs)} is not a root")
        return coeffs

    def simple_root(self, i: int) -> Root:
        """The i-th simple root, 1-based."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range")
        return self.simple_roots[i - 1]

    def positive_index(self, root: Root) -> int:
        return self._pos_index[root]

    def pairing(self, beta: Root, gamma: Root) -> int:
        """<beta, gamma^vee>, an integer for any two roots."""
        if beta not in self._coeff_set or gamma not in self._coeff_set:
            raise ValueError("pairing arguments must be roots")
        num = 2 * sum(map(mul, beta, self._form_vec[gamma]))
        den = self._norm2[gamma]
        if num % den:
            raise AssertionError("non-integral pairing between roots")
        return num // den

    def pairing_with_simple_coroot(self, coeffs: tuple[int, ...], k: int) -> int:
        """<vector, alpha_k^vee> for a root-lattice vector, k 1-based.
        Nothing in the package calls it; the name stays for the benchmark
        tracer (perfbench/tracer.py), which counts its calls."""
        return sum(map(mul, coeffs, self.cartan[k - 1]))

    def coroot_coords(self, gamma: Root) -> tuple[int, ...]:
        return self._coroot[gamma]

    def reflect(self, gamma: Root, beta: Root) -> Root:
        """s_gamma(beta) = beta - <beta, gamma^vee> gamma."""
        k = self.pairing(beta, gamma)
        out = tuple(b - k * g for b, g in zip(beta, gamma))
        if out not in self._coeff_set:
            raise AssertionError("reflection left the root system")
        return out

    def dominance_leq(self, a: Root, b: Root) -> bool:
        """a <= b iff b - a has nonnegative simple-root coefficients."""
        return all(map(le, a, b))

    @cached_property
    def ideal_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(above, partners), bitmasks over the positive-root indices: bit j
        of above[i] is set iff r_i <= r_j in dominance order (r_i included),
        and bit j of partners[i] iff r_i + r_j is a root.  Built on first use,
        so constructing the system does not pay for it."""
        pos = self.positive_roots
        roots = self._coeff_set
        above = tuple(sum(1 << j for j, q in enumerate(pos) if all(map(le, r, q))) for r in pos)
        partners = _symmetric_masks(pos, lambda r, q: tuple(map(add, r, q)) in roots)
        return above, partners

    @cached_property
    def orthogonal_masks(self) -> tuple[int, ...]:
        """Bit j of row i is set iff <r_i, r_j^vee> = 0, over the positive-root
        indices.  Orthogonality ignores signs and levels, so the rows serve
        every real affine root through the positive root of its finite
        part.  Built on first use, like `ideal_masks`."""
        form = self._form_vec
        return _symmetric_masks(self.positive_roots, lambda r, q: not sum(map(mul, r, form[q])))

    # -- epsilon coordinates ---------------------------------------------

    def _epsilon_dim(self) -> int:
        if self.type_letter not in CLASSICAL_TYPES:
            raise ValueError("epsilon coordinates only for classical types")
        return len(self._eps[0])

    def root_to_epsilon(self, root: Root) -> tuple[int, ...]:
        """Exact epsilon coordinates of a root, classical types only."""
        dim = self._epsilon_dim()
        out = []
        for p in range(dim):
            doubled = sum(c * self._eps[i][p] for i, c in enumerate(root))
            if doubled % 2:
                raise AssertionError("half-integral epsilon coordinate")
            out.append(doubled // 2)
        return tuple(out)

    @cached_property
    def _root_of_epsilon(self) -> dict[tuple[int, ...], Root]:
        return {self.root_to_epsilon(r): r for r in self.roots}

    def epsilon_to_root(self, expr: str | tuple[int, ...]) -> Root:
        """Parse an epsilon expression like ``e1+e3`` or ``e2-e4`` (also a
        bare coordinate vector) and look up its root; classical types only.
        Spaces are ignored, and anything else that is not a signed sum of
        terms ``[multiple]e<index>`` is refused."""
        dim = self._epsilon_dim()
        if isinstance(expr, str):
            text = expr.replace(" ", "")
            if not re.fullmatch(r"[+-]?\d*e\d+([+-]\d*e\d+)*", text):
                raise ValueError(f"malformed epsilon expression {expr!r}")
            vec = [0] * dim
            for sign, mult, idx in re.findall(r"([+-]?)(\d*)e(\d+)", text):
                s = -1 if sign == "-" else 1
                m = int(mult) if mult else 1
                k = int(idx)
                if not 1 <= k <= dim:
                    raise ValueError(f"epsilon index {k} out of range in {expr!r}")
                vec[k - 1] += s * m
            expr = vec
        root = self._root_of_epsilon.get(tuple(expr))
        if root is None:
            raise ValueError(f"epsilon vector {tuple(expr)} is not a root")
        return root

    def __repr__(self) -> str:
        return f"RootSystem({self.type_letter}{self.rank})"


def build_root_system(type_letter: str, rank: int) -> RootSystem:
    """Construct the root system of the given type.

    >>> rs = build_root_system("G", 2)
    >>> len(rs.positive_roots), root_text(rs.highest_root)
    (6, '3,2')
    >>> rs.pairing(rs.simple_root(2), rs.simple_root(1))
    -3
    """
    return RootSystem(type_letter, rank)
