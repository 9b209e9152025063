"""Subsets of Phi^+ - delta as positive-root bitmasks, against the frozensets.

Inversion sets, the gaps between them and the orthogonal supports inside a
gap are bitmasks over the positive roots, bit j for r_j - delta.  The sweeps
compare the mask paths with the set algebra they replaced on every pair
v <= w of A3, B3, C3, D4 and G2, and on a pool of mixed levels:

* ``orthogonal_subsets`` returns the same list, in the same order, as the
  pairing-matrix backtracking kept in ``oracles``;
* ``weak_order_leq`` is frozenset inclusion of the inversions;
* every element's mask has the bits of ``inversions_from_negative``.

A wrong bit in the orthogonality table is caught, the table is built on
first use only, and the clique extension asks ``RootSystem.pairing``
nothing.
"""

import pytest

from borbits.affine import AffineWeylGroup, negate
from borbits.involutions import orthogonal_subsets
from borbits.minuscule import weak_order_leq
from borbits.roots import build_root_system

from conftest import get_system
from oracles import orthogonal_subsets_oracle

SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]


def _mixed_pool(rs):
    """The roots r - delta, r and -r - delta for every positive r."""
    pool = [(g, n) for g in rs.positive_roots for n in (-1, 0)]
    return pool + [negate((g, 1)) for g in rs.positive_roots]


def _gap_mismatches(rs, group):
    """The gaps w - v on which the mask and oracle subsets differ."""
    bad = []
    for w in group.minuscule:
        for v in group.minuscule:
            if weak_order_leq(v, w):
                gap = frozenset(group.shifted_roots(w.mask & ~v.mask))
                if orthogonal_subsets(rs, gap) != orthogonal_subsets_oracle(rs, gap):
                    bad.append((w, v))
    return bad


@pytest.mark.parametrize("letter,rank", SYSTEMS)
def test_masks_agree_with_the_frozensets_on_every_pair(letter, rank):
    rs, group = get_system(letter, rank)
    mins = group.minuscule
    pairs = 0
    for w in mins:
        assert group.shifted_mask(group.inversions_from_negative(w.element)) == w.mask
        w_set = frozenset(group.inversions_from_negative(w.element))
        for v in mins:
            v_set = frozenset(group.inversions_from_negative(v.element))
            below = v_set <= w_set
            assert weak_order_leq(v, w) == below
            if not below:
                continue
            pairs += 1
            gap = w_set - v_set
            assert frozenset(group.shifted_roots(w.mask & ~v.mask)) == gap
            subsets = orthogonal_subsets(rs, gap)
            assert subsets == orthogonal_subsets_oracle(rs, gap)
            assert all(group.shifted_mask(s) & ~(w.mask & ~v.mask) == 0 for s in subsets)
    assert pairs > len(mins)


@pytest.mark.parametrize("letter,rank", [("B", 2), ("G", 2), ("A", 3), ("C", 3)])
def test_a_mixed_level_pool_agrees_with_the_oracle(letter, rank):
    rs, _ = get_system(letter, rank)
    pool = _mixed_pool(rs)
    subsets = orthogonal_subsets(rs, pool)
    assert subsets == orthogonal_subsets_oracle(rs, pool)
    assert any(len({level for _, level in s}) > 1 for s in subsets)


def test_a_wrong_orthogonality_bit_is_caught():
    rs = build_root_system("B", 3)
    group = AffineWeylGroup(rs)
    assert _gap_mismatches(rs, group) == []
    # an orthogonal pair inside the largest inversion set loses its bits
    top = max(group.minuscule, key=lambda m: m.length)
    i, j = next(
        (rs.positive_index(g), rs.positive_index(h))
        for g, _ in group.shifted_roots(top.mask)
        for h, _ in group.shifted_roots(top.mask)
        if g != h and rs.pairing(g, h) == 0
    )
    rows = list(rs.orthogonal_masks)
    rows[i] &= ~(1 << j)
    rows[j] &= ~(1 << i)
    rs.__dict__["orthogonal_masks"] = tuple(rows)
    assert _gap_mismatches(rs, group)
    assert orthogonal_subsets(rs, _mixed_pool(rs)) != orthogonal_subsets_oracle(rs, _mixed_pool(rs))


def test_the_orthogonality_table_is_built_on_first_use():
    rs = build_root_system("E", 6)
    group = AffineWeylGroup(rs)
    group.minuscule
    assert "orthogonal_masks" not in rs.__dict__
    orthogonal_subsets(rs, group.shifted_roots(group.minuscule[-1].mask))
    assert "orthogonal_masks" in rs.__dict__
    assert rs.orthogonal_masks is rs.orthogonal_masks


def test_the_clique_extension_never_pairs(monkeypatch):
    rs = build_root_system("D", 4)
    group = AffineWeylGroup(rs)

    def refuse(*args):
        raise AssertionError("pairing called")

    monkeypatch.setattr(rs, "pairing", refuse)
    assert len(orthogonal_subsets(rs, group._shifted)) > 1
    assert len(orthogonal_subsets(rs, _mixed_pool(rs))) > 1
