"""The root-table primitives of the affine Weyl group against the matrix
formulas they replace.

An element is the pair (images of the simple roots, translation lambda over
the simple coroots).  The ``matrix_*`` helpers below apply that pair
directly, with integer matrices, the Cartan pairing and exact rational
inversion, and never read the group's root tables.  The agreement sweep
compares act, multiply, inverse, descents and length with them on random
words; the sabotage tests corrupt one table entry of a simple reflection
and check that the sweep notices.
"""

import json
import random
from fractions import Fraction

import pytest

from borbits.affine import AffineRoot, AffineWeylElement, AffineWeylGroup
from borbits.roots import Root, build_root_system

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
        img = rs.coroot_coords(Root(images[k]))
        for j in range(rs.rank):
            out[j] += m * img[j]
    return tuple(out)


def matrix_act(rs, x, a):
    g = _apply(x.images, a.finite.coeffs)
    drop = sum(
        lam * rs.pairing_with_simple_coroot(g, k + 1) for k, lam in enumerate(x.translation)
    )
    return AffineRoot(rs.root(g), a.level - drop)


def matrix_multiply(rs, x, y):
    images = tuple(_apply(x.images, row) for row in y.images)
    shifted = _on_coroots(rs, x.images, y.translation)
    return AffineWeylElement(images, tuple(a + b for a, b in zip(x.translation, shifted)))


def matrix_inverse(rs, x):
    n = rs.rank
    aug = [
        [Fraction(v) for v in x.images[i]] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
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
    inv = []
    for row in aug:
        if any(v.denominator != 1 for v in row[n:]):
            raise ValueError("images are not unimodular")
        inv.append(tuple(int(v) for v in row[n:]))
    inv = tuple(inv)
    return AffineWeylElement(inv, tuple(-c for c in _on_coroots(rs, inv, x.translation)))


def matrix_descents(group, x, side):
    y = matrix_inverse(group.rs, x) if side == "left" else x
    return frozenset(
        i
        for i in group.simple_indices
        if not matrix_act(group.rs, y, group.simple_affine_root(i)).is_positive
    )


def matrix_length(rs, x):
    """|{a < 0 : x(a) > 0}| by a window scan over levels -(M+1)..0,
    M = max |<gamma, lambda>|."""
    bound = 1 + max(
        abs(
            sum(
                lam * rs.pairing_with_simple_coroot(g.coeffs, k + 1)
                for k, lam in enumerate(x.translation)
            )
        )
        for g in rs.roots
    )
    return sum(
        1
        for g in rs.roots
        for n in range(-bound, 1)
        if not (n == 0 and g.is_positive) and matrix_act(rs, x, AffineRoot(g, n)).is_positive
    )


# -- the agreement sweep -----------------------------------------------------------


def agreement_violations(group, seed, elements=8, max_len=12):
    """Mismatches between the table primitives and the matrix oracle on random
    words; empty when they agree.  An element whose images the oracle rejects
    (not a root, not invertible) counts as a mismatch."""
    rs = group.rs
    rng = random.Random(seed)
    roots = [AffineRoot(g, n) for g in rs.roots for n in (-1, 0, 1)]
    xs = [
        group.evaluate_word(
            tuple(rng.randrange(group.rank + 1) for _ in range(rng.randrange(max_len + 1)))
        )
        for _ in range(elements)
    ]
    bad = []

    def same_action(label, x, ref):
        for a in roots:
            if group.act(x, a) != matrix_act(rs, ref, a):
                bad.append(f"{label}: act on {a}")
                return

    def check(k, x):
        same_action(f"x{k}", x, x)
        inv = group.inverse(x)
        ref_inv = matrix_inverse(rs, x)
        if inv != ref_inv:
            bad.append(f"x{k}: inverse")
        same_action(f"x{k}^-1", inv, ref_inv)
        for side in ("left", "right"):
            if group.descents(x, side) != matrix_descents(group, x, side):
                bad.append(f"x{k}: {side} descents")
        ell = group.length(x)
        if ell != matrix_length(rs, x) or ell != count_inversions(group, x):
            bad.append(f"x{k}: length")
        y = xs[(k + 1) % len(xs)]
        xy = group.multiply(x, y)
        ref_xy = matrix_multiply(rs, x, y)
        if xy != ref_xy:
            bad.append(f"x{k}: multiply")
        same_action(f"x{k}*y", xy, ref_xy)

    for k, x in enumerate(xs):
        try:
            check(k, x)
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
        perm = list(s._perm)
        a, b = W._index[(1, 0, 0)], W._index[(0, 0, 1)]
        perm[a], perm[b] = perm[b], perm[a]
        s._perm = tuple(perm)
    else:
        shift = list(s._shift)
        shift[W._index[(1, 1, 0)]] += 1
        s._shift = tuple(shift)
    assert agreement_violations(W, seed=5) != []


def test_element_from_json_gets_tables_from_the_group():
    rs, W = get_system("C", 3)
    x = W.evaluate_word((0, 1, 2, 3, 0, 2))
    y = AffineWeylElement.from_json_dict(json.loads(json.dumps(x.to_json_dict())))
    a = AffineRoot(rs.highest_root, -1)
    assert W.act(y, a) == W.act(x, a)
    assert W.length(y) == W.length(x)
    assert W.inverse(y) == W.inverse(x)
    assert W.multiply(y, x) == W.multiply(x, x)
    assert W.bruhat_leq(W.simple_reflection(0), y)


def test_bruhat_cache_is_keyed_on_element_ids():
    W = _fresh_group("B", 2)
    w = W.evaluate_word((0, 1, 2, 1, 0, 2))
    u = W.evaluate_word((1, 2, 0))
    assert W.bruhat_leq(u, w)
    assert list(W._bruhat) == [(u, w)]
    # an equal element built separately is the same key and hits the cache:
    # flip the stored answer and the copy reads the flipped one
    W._bruhat[u, w] = False
    copy = AffineWeylElement.from_json_dict(w.to_json_dict())
    assert not W.bruhat_leq(u, copy)
    assert list(W._bruhat) == [(u, w)]
