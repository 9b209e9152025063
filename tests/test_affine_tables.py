"""The root-table primitives of the affine Weyl group against the matrix
formulas they replace.

The ``matrix_*`` helpers below hold an element as the pair (images of the
simple roots, translation lambda over the simple coroots), built from a
word by multiplying the matrix pairs of the simple reflections: s_i sends
alpha_j to alpha_j - C[i][j]*alpha_i and s_0 is t_{theta^vee} s_theta.
They apply that pair directly, with integer matrices, the Cartan pairing
and exact rational inversion, and never read the group's root tables.  The
agreement sweep compares act, multiply, inverse, descents and length with
them on random words, and the alcove sweep compares the integer wall check
with the rational vertex check it replaced; the sabotage tests corrupt one
table entry of a simple reflection and check that the sweep notices.
"""

import random
from fractions import Fraction

import pytest

from borbits.affine import AffineWeylGroup, is_positive
from borbits.roots import build_root_system

from conftest import count_inversions, get_system


# -- the matrix oracle ---------------------------------------------------------


def _apply(images, coeffs):
    rank = len(images)
    out = [0] * rank
    for i, c in enumerate(coeffs):
        for j in range(rank):
            out[j] += c * images[i][j]
    return tuple(out)


def _on_coroots(rs, images, mu):
    """w(mu) for mu over the simple coroots, w(alpha_k^vee) = w(alpha_k)^vee."""
    out = [0] * rs.rank
    for k, m in enumerate(mu):
        img = rs.coroot_coords(images[k])
        for j in range(rs.rank):
            out[j] += m * img[j]
    return tuple(out)


def _invert(rows):
    """The inverse of a square integer matrix, in exact rationals."""
    n = len(rows)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        piv = next((k for k in range(col, n) if aug[k][col] != 0), None)
        if piv is None:
            raise ValueError("images are singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for k in range(n):
            if k != col and aug[k][col] != 0:
                f = aug[k][col]
                aug[k] = [v - f * u for v, u in zip(aug[k], aug[col])]
    return [row[n:] for row in aug]


def matrix_simple(rs, i):
    """The matrix pair of s_i: s_i(alpha_j) = alpha_j - C[i][j]*alpha_i for
    i >= 1, and s_0 = t_{theta^vee} s_theta."""
    rank = rs.rank
    if i == 0:
        theta = rs.highest_root
        images = tuple(rs.reflect(theta, g) for g in rs.simple_roots)
        return images, rs.coroot_coords(theta)
    row = rs.cartan[i - 1]
    images = tuple(
        tuple(int(k == j) - (row[j] if k == i - 1 else 0) for k in range(rank)) for j in range(rank)
    )
    return images, (0,) * rank


def matrix_act(rs, x, a):
    images, translation = x
    finite, level = a
    g = _apply(images, finite)
    drop = sum(
        lam * rs.pairing_with_simple_coroot(g, k + 1) for k, lam in enumerate(translation)
    )
    return rs.root(g), level - drop


def matrix_multiply(rs, x, y):
    """t_lambda w t_mu v = t_{lambda + w(mu)} wv."""
    (xi, xt), (yi, yt) = x, y
    shifted = _on_coroots(rs, xi, yt)
    return tuple(_apply(xi, row) for row in yi), tuple(a + b for a, b in zip(xt, shifted))


def matrix_word(rs, word):
    rank = rs.rank
    out = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank)), (0,) * rank
    for i in word:
        out = matrix_multiply(rs, out, matrix_simple(rs, i))
    return out


def matrix_inverse(rs, x):
    """(t_lambda w)^{-1} = t_{-w^{-1}(lambda)} w^{-1}."""
    images, translation = x
    inv = []
    for row in _invert(images):
        if any(v.denominator != 1 for v in row):
            raise ValueError("images are not unimodular")
        inv.append(tuple(int(v) for v in row))
    inv = tuple(inv)
    return inv, tuple(-c for c in _on_coroots(rs, inv, translation))


def matrix_descents(group, x, side):
    y = matrix_inverse(group.rs, x) if side == "left" else x
    return frozenset(
        i
        for i in group.simple_indices
        if not is_positive(matrix_act(group.rs, y, group.simple_affine_root(i)))
    )


def matrix_length(rs, x):
    """|{a < 0 : x(a) > 0}| by a window scan over levels -(M+1)..0,
    M = max |<gamma, lambda>|."""
    bound = 1 + max(
        abs(
            sum(
                lam * rs.pairing_with_simple_coroot(g, k + 1)
                for k, lam in enumerate(x[1])
            )
        )
        for g in rs.roots
    )
    return sum(
        1
        for g in rs.roots
        for n in range(-bound, 1)
        if not (n == 0 and max(g) > 0) and is_positive(matrix_act(rs, x, (g, n)))
    )


def alcove_vertices(rs):
    """0 and omega_k^vee / m_k over the simple coroots, m_k the marks."""
    inv = _invert(rs.cartan)
    zero = tuple(Fraction(0) for _ in range(rs.rank))
    return [zero] + [tuple(v / m for v in row) for row, m in zip(inv, rs.marks)]


def act_on_point(rs, x, point):
    """Affine action on the coroot space, x . v = w(v) + lambda."""
    images, translation = x
    out = [Fraction(c) for c in translation]
    for k, v in enumerate(point):
        img = rs.coroot_coords(images[k])
        for j in range(rs.rank):
            out[j] += v * img[j]
    return tuple(out)


def _pair_with_point(rs, coeffs, point):
    return sum(point[k] * rs.pairing_with_simple_coroot(coeffs, k + 1) for k in range(rs.rank))


def matrix_alcove_check(rs, word, vertices):
    """x^{-1}, for x the value of word, maps the vertices of the fundamental
    alcove into the closed doubled alcove: alpha_i >= 0 and theta <= 2 at
    every image vertex.  x^{-1} is the reversed word, each s_i being an
    involution."""
    xinv = matrix_word(rs, word[::-1])
    theta = rs.highest_root
    for p in vertices:
        q = act_on_point(rs, xinv, p)
        if any(_pair_with_point(rs, g, q) < 0 for g in rs.simple_roots):
            return False
        if _pair_with_point(rs, theta, q) > 2:
            return False
    return True


# -- the agreement sweep -----------------------------------------------------------


def _random_words(group, rng, count, max_len):
    return [
        tuple(rng.randrange(group.rank + 1) for _ in range(rng.randrange(max_len + 1)))
        for _ in range(count)
    ]


def agreement_violations(group, seed, elements=8, max_len=12):
    """Mismatches between the table primitives and the matrix oracle on random
    words; empty when they agree.  Acting on every root at levels -1, 0 and 1
    pins both tables.  An element whose images the oracle rejects (not a
    root, not invertible) counts as a mismatch."""
    rs = group.rs
    roots = [(g, n) for g in rs.roots for n in (-1, 0, 1)]
    words = _random_words(group, random.Random(seed), elements, max_len)
    xs = [group.evaluate_word(word) for word in words]
    refs = [matrix_word(rs, word) for word in words]
    bad = []

    def same_action(label, x, ref):
        for a in roots:
            if group.act(x, a) != matrix_act(rs, ref, a):
                bad.append(f"{label}: act on {a}")
                return

    def check(k, x, ref):
        same_action(f"x{k}", x, ref)
        same_action(f"x{k}^-1", group.inverse(x), matrix_inverse(rs, ref))
        for side, y in (("left", group.inverse(x)), ("right", x)):
            if group.descents(y) != matrix_descents(group, ref, side):
                bad.append(f"x{k}: {side} descents")
        ell = group.length(x)
        if ell != matrix_length(rs, ref) or ell != count_inversions(group, x):
            bad.append(f"x{k}: length")
        k1 = (k + 1) % len(xs)
        same_action(
            f"x{k}*y", group.multiply(x, xs[k1]), matrix_multiply(rs, ref, refs[k1])
        )

    for k, (x, ref) in enumerate(zip(xs, refs)):
        try:
            check(k, x, ref)
        except ValueError as exc:
            bad.append(f"x{k}: {exc}")
    return bad


SWEEP = [("A", 3), ("B", 3), ("C", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("letter,rank", SWEEP)
def test_tables_agree_with_matrix_formulas(letter, rank):
    _, W = get_system(letter, rank)
    assert agreement_violations(W, seed=rank * 31 + ord(letter)) == []


def _fresh_group(letter, rank):
    # a private group, so the corrupted tables cannot reach the shared ones
    return AffineWeylGroup(build_root_system(letter, rank))


@pytest.mark.parametrize("table", ["perm", "shift"])
def test_sweep_detects_a_corrupted_simple_reflection(table):
    W = _fresh_group("A", 3)
    assert agreement_violations(W, seed=5) == []
    s = W.simple_reflection(2)
    if table == "perm":
        perm = list(s.perm)
        a, b = W._index[(1, 0, 0)], W._index[(0, 0, 1)]
        perm[a], perm[b] = perm[b], perm[a]
        s.perm = tuple(perm)
    else:
        shift = list(s.shift)
        shift[W._index[(1, 1, 0)]] += 1
        s.shift = tuple(shift)
    assert agreement_violations(W, seed=5) != []


# -- the alcove sweep ------------------------------------------------------------


def _ball_words(group, radius):
    """Every element of length at most radius with one reduced word, by
    breadth-first search over the Cayley graph."""
    words = {group.identity: ()}
    frontier = [group.identity]
    for _ in range(radius):
        new = []
        for x in frontier:
            for i in group.simple_indices:
                y = group.multiply(group.simple_reflection(i), x)
                if y not in words:
                    words[y] = (i,) + words[x]
                    new.append(y)
        frontier = new
    return words


ALCOVE_SWEEP = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6)]


@pytest.mark.parametrize("letter,rank", ALCOVE_SWEEP)
def test_wall_check_agrees_with_rational_vertices(letter, rank):
    """The integer wall check against the rational one (invert x, act on the
    alcove vertices, pair with the walls) over the Cayley ball of radius 6,
    seeded random words and every minuscule element."""
    rs, W = get_system(letter, rank)
    words = _ball_words(W, 6)
    rng = random.Random(rank * 31 + ord(letter))
    for word in _random_words(W, rng, 40, 16):
        words.setdefault(W.evaluate_word(word), word)
    for m in W.minuscule:
        words.setdefault(m.element, W.reduced_word(m.element))
    vertices = alcove_vertices(rs)
    answers = {x: W.alcove_image_check(x) for x in words}
    mismatched = [
        word for x, word in words.items() if answers[x] != matrix_alcove_check(rs, word, vertices)
    ]
    assert mismatched == []
    assert all(answers[m.element] for m in W.minuscule)
    assert not all(answers.values())
